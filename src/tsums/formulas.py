"""Closed forms for T(2n,d), the sums of multiple t-values at even arguments.

T(2n,d) is the sum of t(2j_1,...,2j_d) over all compositions j_1+...+j_d = n
into d positive parts.  Three exact routes are implemented:

* :func:`T_from_t_values` -- a short sum of binomial-weighted products
  pi**(2j) * t(2n-2j);
* :func:`T_from_bernoulli` -- the equivalent form whose coefficients carry
  Bernoulli numbers, the shape in which depth-by-depth coefficient rows
  (7/128, -3/64, 1/320 at depth 5, ...) are usually displayed;
* :func:`T_from_euler` -- an Euler-number sum, cheapest when n - d is small;

plus :func:`T_table_from_genfunc`, coefficient extraction from the bivariate
generating function of :mod:`tsums.series`.  All four agree exactly, and the
verification suites exercise precisely that.  The first two share one row
of n, t(2n-2j), and differ only in their row of d.

Conventions: T(2n,d) = 0 for d > n (empty sum over compositions), and every
nonzero value has pi-exponent exactly 2n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .exact import (PiPower, _at_least, _check_args, _euler_prefix, _Frozen,
                    _over_one_denominator, bernoulli, euler_number, t_even)
from .series import genfunc_biseries

__all__ = [
    "TTable",
    "CoeffRow",
    "DepthSumResult",
    "BernoulliEulerResult",
    "t_all_twos",
    "T_from_t_values",
    "T_from_bernoulli",
    "T_from_euler",
    "T_table_from_genfunc",
    "coeff_row",
    "depth_sum_identity",
    "bernoulli_euler_lhs",
    "bernoulli_euler_check",
]


def _dot(row_d: tuple[int, tuple[int, ...]], row_n: tuple[int, tuple[int, ...]]) -> Fraction:
    """sum_j C_j Q_j / (M L) for a row of d, (M, (C_0, C_1, ...)), and a row
    of n, (L, (Q_0, Q_1, ...)), each as :func:`_over_one_denominator` gives
    it, cut at the shorter row.

    The sum runs on plain integers and is normalised once: a Fraction * or +
    per term would do two or three big-integer gcds each.
    """
    (m, coeffs), (den, nums) = row_d, row_n
    return Fraction(sum(map(mul, coeffs, nums)), m * den)


def t_all_twos(n: int) -> PiPower:
    """t(2,2,...,2) with n twos: pi**(2n) / (4**n (2n)!)."""
    n = _at_least(n, 1, "n")
    return PiPower(Fraction(1, 4**n * math.factorial(2 * n)), 2 * n)


def T_from_t_values(n: int, d: int) -> PiPower:
    """T(2n,d) as sum_j (-1)**j pi**(2j) binom(2d-2j-2, d-1) t(2n-2j)
    / (2**(2d-2) (2j)! d), summed over 0 <= j <= (d-1)//2.

    The pi**(2j) factor merges with t(2n-2j)'s pi**(2n-2j), so the cell is
    the :func:`_dot` of the row of d (:func:`_t_value_row`) and the row of n
    (:func:`_t_value_terms`), with pi-exponent 2n.  Both rows are memoized,
    so a call whose n was seen before reads no t value.
    """
    n, d = _check_args(n, d)
    if d > n:
        return PiPower.zero()
    return PiPower(_dot(_t_value_row(d), _t_value_terms(n)), 2 * n)


@lru_cache(maxsize=None)
def _t_value_terms(n: int) -> tuple[int, tuple[int, ...]]:
    """Row n of :func:`T_from_t_values` and :func:`T_from_bernoulli`:
    t(2n-2j)/pi**(2n-2j) for 0 <= j <= (n-1)//2 as
    (L_n, (Q_{n,0}, Q_{n,1}, ...))."""
    return _over_one_denominator(t_even(k).coeff for k in range(n, n // 2, -1))


@lru_cache(maxsize=None)
def _t_value_row(d: int) -> tuple[int, tuple[int, ...]]:
    """Row d of :func:`T_from_t_values`: the coefficients of pi**(2j)
    t(2n-2j) in T(2n,d) for 0 <= j <= (d-1)//2, independent of n, as
    (M_d, (C_{d,0}, C_{d,1}, ...))."""
    scale = 2 ** (2 * d - 2) * d
    return _over_one_denominator(
        Fraction((-1) ** j * math.comb(2 * d - 2 * j - 2, d - 1), scale * math.factorial(2 * j))
        for j in range((d - 1) // 2 + 1)
    )


def T_from_bernoulli(n: int, d: int) -> PiPower:
    """T(2n,d) in the Bernoulli-number form

    binom(2d-2,d-1) t(2n) / (2**(2d-2) d)
      - sum_{j=1}^{(d-1)//2} binom(2d-2j-2,d-1) t(2j) t(2n-2j)
                             / (2**(2d-3) (2**(2j)-1) B_{2j} d),

    summed on rationals (every t(2j) is a rational multiple of pi**(2j)).
    The factor t(2j) depends on j alone, so it is folded into the row of d
    (:func:`_bernoulli_row`: each coefficient of :func:`coeff_row` times
    t(2j)/pi**(2j), where B_{2j} cancels); the cell is the :func:`_dot` of
    that row and the row of n that :func:`T_from_t_values` reads too
    (:func:`_t_value_terms`), with pi-exponent 2n.  Both rows are
    memoized, so a call whose n and d were seen before reads no t value.
    """
    n, d = _check_args(n, d)
    if d > n:
        return PiPower.zero()
    return PiPower(_dot(_bernoulli_row(d), _t_value_terms(n)), 2 * n)


@lru_cache(maxsize=None)
def _bernoulli_row(d: int) -> tuple[int, tuple[int, ...]]:
    """Row d of :func:`T_from_bernoulli`: the coefficients c_{d,j} of
    :func:`coeff_row`, each times t(2j)/pi**(2j) for j >= 1, as
    (M_d, (C_{d,0}, C_{d,1}, ...)).  Each product is one Fraction, so
    B_{2j} cancels before the common denominator is formed."""
    return _over_one_denominator(c * t_even(j).coeff if j else c
                                 for j, c in coeff_row(d).pairs)


@lru_cache(maxsize=None)
def _euler_weights(n: int) -> tuple[int, ...]:
    """Row n of :func:`T_from_euler`: the weights binom(2n,2l) E_{2l} for
    0 <= l < n, built once and shared by every depth of n.

    It reads E_0 .. E_{2n-2} in one slice of the Euler table, grown at most
    once.  The binomial runs from binom(2n,0) = 1: each is the one before
    times (2n-2l)(2n-2l-1), divided exactly by (2l+1)(2l+2).
    """
    b = 1
    out = []
    for ell, e in enumerate(_euler_prefix(n)):
        out.append(b * e)
        b = b * ((2 * n - 2 * ell) * (2 * n - 2 * ell - 1)) // ((2 * ell + 1) * (2 * ell + 2))
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def T_from_euler(n: int, d: int) -> PiPower:
    """T(2n,d) as (-1)**(n-d) pi**(2n) / (4**n (2n)!) times the integer
    sum_{l=0}^{n-d} binom(n-l,d) binom(2n,2l) E_{2l}.

    Memoized per cell, like :func:`coeff_row`: each cell is computed once
    per process and sums the first n-d+1 weights binom(2n,2l) E_{2l} of
    the one row of n (:func:`_euler_weights`), built once from the Euler
    table and shared by every depth; every later call returns the same
    frozen :class:`PiPower`.  The memo is keyed by argument type too, so a
    bool or float never hits the entry of the equal int and is refused on
    every call.  The route reads no row or value of the other two, so it
    stays an independent reference for them.
    """
    n, d = _check_args(n, d)
    if d > n:
        return PiPower.zero()
    weights = _euler_weights(n)
    acc = sum(math.comb(n - ell, d) * weights[ell] for ell in range(n - d + 1))
    coeff = Fraction((-1) ** (n - d) * acc, 4**n * math.factorial(2 * n))
    return PiPower(coeff, 2 * n)


class TTable(_Frozen):
    """Exact table of T(2n,d) for 1 <= d <= n <= max_n.

    ``entries`` maps (n, d) to a PiPower.  Entries for d > n are absent:
    those values are exactly zero.
    """

    __slots__ = ("max_n", "entries")

    def value(self, n: int, d: int) -> PiPower:
        n, d = _check_args(n, d)
        if n > self.max_n:
            raise KeyError(f"table holds n <= {self.max_n}, got n={n}")
        return self.entries.get((n, d), PiPower.zero())


def T_table_from_genfunc(max_n: int) -> TTable:
    """All T(2n,d) for n <= max_n by coefficient extraction from the
    generating function c((1-v)y/4)/c(y/4), whose y**n v**d coefficient is
    T(2n,d) / pi**(2n) (:func:`tsums.series.genfunc_biseries`).  Each cell's
    one Fraction is the PiPower's coefficient as it is; every cell with
    d <= n is an entry, since T(2n,d) is a sum of positive terms."""
    max_n = _at_least(max_n, 1, "max_n")
    phi = genfunc_biseries(max_n)
    return TTable(max_n, {(n, d): PiPower(phi[n][d], 2 * n)
                          for n in range(1, max_n + 1) for d in range(1, n + 1)})


class CoeffRow(_Frozen):
    """Symbolic coefficients of a fixed-depth row, independent of n:

    T(2n,d) = pairs[0] * t(2n) + sum_{j>=1} pairs[j] * t(2j) t(2n-2j),
    with j running over 0..(d-1)//2; each pair is (j, Fraction).
    """

    __slots__ = ("depth", "pairs")


@lru_cache(maxsize=None, typed=True)
def coeff_row(d: int) -> CoeffRow:
    """Coefficient row of depth d in the Bernoulli-number form (memoized)."""
    d = _at_least(d, 1, "depth")
    bernoulli(2 * ((d - 1) // 2))  # the largest index first: the table grows at most once
    pairs = [(0, Fraction(math.comb(2 * d - 2, d - 1), 2 ** (2 * d - 2) * d))]
    for j in range(1, (d - 1) // 2 + 1):
        b = bernoulli(2 * j)
        pairs.append((j, Fraction(-math.comb(2 * d - 2 * j - 2, d - 1) * b.denominator,
                                  2 ** (2 * d - 3) * (2 ** (2 * j) - 1) * d * b.numerator)))
    return CoeffRow(d, tuple(pairs))


class DepthSumResult(_Frozen):
    __slots__ = ("lhs", "rhs", "equal")


def depth_sum_identity(n: int) -> DepthSumResult:
    """Check sum_{d=1}^{n} T(2n,d) = (-1)**n E_{2n} pi**(2n) / (4**n (2n)!).

    The lhs sums the coefficients of every T_from_euler(n, d) over one
    common denominator and normalises once.
    """
    n = _at_least(n, 1, "n")
    den, nums = _over_one_denominator(T_from_euler(n, d).coeff for d in range(1, n + 1))
    lhs = PiPower(Fraction(sum(nums), den), 2 * n)
    rhs = PiPower(
        Fraction((-1) ** n * euler_number(2 * n), 4**n * math.factorial(2 * n)),
        2 * n,
    )
    return DepthSumResult(lhs, rhs, lhs == rhs)


def bernoulli_euler_lhs(n: int, d: int) -> Fraction:
    """The Bernoulli-side sum

    sum_{j=0}^{(d-1)//2} (2**(2n-2j)-1) B_{2n-2j} binom(2d-2j-2, d-1)
                         binom(2n, 2j) / (2**(2d-1) d),

    the :func:`_dot` of the row of d, V_{d,j} = binom(2d-2j-2, d-1) over
    2**(2d-1) d (:func:`_bernoulli_euler_row`), and the row of n,
    U_{n,j} = (2**(2n-2j)-1) B_{2n-2j} binom(2n,2j) for 0 <= j < n
    (:func:`_bernoulli_euler_terms`).  The j = n term vanishes through the
    factor 2**0 - 1 = 0 and terms with j > n through binom(2n,2j) = 0, so
    the product, cut at the shorter row, drops both and never touches a
    negative Bernoulli index.  Both rows are memoized, like those of
    :func:`T_from_bernoulli`.
    """
    n, d = _check_args(n, d)
    return _dot(_bernoulli_euler_row(d), _bernoulli_euler_terms(n))


@lru_cache(maxsize=None)
def _bernoulli_euler_terms(n: int) -> tuple[int, tuple[int, ...]]:
    """Row n of :func:`bernoulli_euler_lhs`: (2**(2n-2j)-1) B_{2n-2j}
    binom(2n,2j) for 0 <= j < n as (L_n, (U_{n,0}, U_{n,1}, ...))."""
    return _over_one_denominator(
        bernoulli(2 * n - 2 * j) * ((2 ** (2 * n - 2 * j) - 1) * math.comb(2 * n, 2 * j))
        for j in range(n)
    )


@lru_cache(maxsize=None)
def _bernoulli_euler_row(d: int) -> tuple[int, tuple[int, ...]]:
    """Row d of :func:`bernoulli_euler_lhs`: binom(2d-2j-2, d-1) for
    0 <= j <= (d-1)//2 over 2**(2d-1) d."""
    return 2 ** (2 * d - 1) * d, tuple(math.comb(2 * d - 2 * j - 2, d - 1)
                                       for j in range((d - 1) // 2 + 1))


class BernoulliEulerResult(_Frozen):
    __slots__ = ("n", "d", "case", "lhs", "rhs", "passed")  # case: "d<=n", "n<d<2n" or "d>=2n"


def bernoulli_euler_check(n: int, d: int) -> BernoulliEulerResult:
    """Evaluate the Bernoulli-side sum against its case-by-case value.

    * d <= n: the sum times (-1)**(n+1) pi**(2n) / (2n)! equals T(2n,d), so
      the rational target is (-1)**(n+1) (2n)! * coeff(T_from_euler(n,d));
    * d > n: the sum is n binom(2d-2n-1, d-1) / (2**(2d-1) d).  For
      n < d < 2n this is 0, since 2d-2n-1 < d-1 there, so the one formula
      serves both cases, which keep their labels "n<d<2n" and "d>=2n".
    """
    n, d = _check_args(n, d)
    lhs = bernoulli_euler_lhs(n, d)
    if d <= n:
        case = "d<=n"
        rhs = (-1) ** (n + 1) * math.factorial(2 * n) * T_from_euler(n, d).coeff
    else:
        case = "n<d<2n" if d < 2 * n else "d>=2n"
        rhs = Fraction(n * math.comb(2 * d - 2 * n - 1, d - 1), 2 ** (2 * d - 1) * d)
    return BernoulliEulerResult(n, d, case, lhs, rhs, lhs == rhs)
