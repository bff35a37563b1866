"""Truncated formal power series over exact rationals.

A one-variable series truncated at order K is the tuple of its K+1
coefficients, and a two-variable one is a tuple of such rows.  The one
operation on them is the triangular division series_quotient, which also
gives reciprocals; products are written out where they are needed.

The central convention of the whole library lives here: the substitution
``y = pi**2 * u / 4`` turns the transcendental generating functions

    cos(pi*sqrt(u)/2),  sec(pi*sqrt(u)/2),  cos(pi*sqrt((1-v)*u)/2)

into series with rational coefficients.  Writing c(y) = sum (-1)**n y**n
/ (2n)! we have cos(pi*sqrt(u)/2) = c(pi**2 u / 4), and the bivariate
quotient c((1-v)*y)/c(y) is the generating function whose y**n v**d
coefficient equals T(2n,d) * 4**n / pi**(2n) -- an exact rational.
:func:`genfunc_biseries` expands c((1-v)y/4)/c(y/4) instead, whose
coefficients are T(2n,d) / pi**(2n) themselves; conversion back to
pi-power values happens in :mod:`tsums.formulas`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb, factorial, lcm

__all__ = [
    "series_quotient",
    "cos_sqrt_series",
    "sin_sqrt_series",
    "genfunc_biseries",
    "tan_link_series",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"series coefficients must be exact rationals, got {type(x)!r}")


def _order(order: int) -> int:
    """A series order as a plain int through ``operator.index``; a bool or a
    float raises TypeError (the check of ``exact._index``, kept here because
    this module imports nothing from the package)."""
    if isinstance(order, bool):
        raise TypeError(f"series order must be an integer, got {order!r}")
    return operator.index(order)


def series_quotient(num, den) -> tuple[Fraction, ...]:
    """num/den to the order of den (num is padded with zeros or truncated).

    Solved by the triangular recurrence
    b_k = (a_k - sum_{i=1..k} d_i b_{k-i}) / d_0, so den needs a unit
    constant term; series_quotient((1,), den) is the reciprocal of den.
    Each b_k is summed on integers: a_k and the products d_i b_{k-i} are
    formed on plain numerators and denominators, brought to the lcm L of
    their denominators, and the one Fraction(sum * den(d_0), L * num(d_0))
    normalises b_k, which saves the gcds of a Fraction operation per
    multiply and add.
    """
    d = [_as_fraction(x) for x in den]
    a = [_as_fraction(x) for x in num] + [0] * len(d)
    if not d or d[0] == 0:
        raise ValueError("non-unit series: constant term is zero")
    d_num = [x.numerator for x in d]
    d_den = [x.denominator for x in d]
    b_num: list[int] = []
    b_den: list[int] = []
    out: list[Fraction] = []
    for k in range(len(d)):
        nums = [a[k].numerator] + [-d_num[i] * b_num[k - i] for i in range(1, k + 1)]
        dens = [a[k].denominator] + [d_den[i] * b_den[k - i] for i in range(1, k + 1)]
        den_k = lcm(*dens)
        b = Fraction(sum(p * (den_k // q) for p, q in zip(nums, dens)) * d_den[0], den_k * d_num[0])
        out.append(b)
        b_num.append(b.numerator)
        b_den.append(b.denominator)
    return tuple(out)


def cos_sqrt_series(order: int) -> tuple[Fraction, ...]:
    """c(y) = cos(sqrt(y)) = sum_{n<=K} (-1)**n y**n / (2n)!.

    Under y = pi**2 u/4 this is cos(pi*sqrt(u)/2); under y = pi**2 u it is
    cos(pi*sqrt(u)).
    """
    order = _order(order)
    if order < 0:
        raise ValueError("order must be >= 0")
    return tuple(Fraction((-1) ** n, factorial(2 * n)) for n in range(order + 1))


def sin_sqrt_series(order: int) -> tuple[Fraction, ...]:
    """s(y) = sin(sqrt(y))/sqrt(y) = sum_{n<=K} (-1)**n y**n / (2n+1)!."""
    order = _order(order)
    if order < 0:
        raise ValueError("order must be >= 0")
    return tuple(Fraction((-1) ** n, factorial(2 * n + 1)) for n in range(order + 1))


def genfunc_biseries(order: int) -> tuple[tuple[Fraction, ...], ...]:
    """Bivariate expansion of c((1-v)y/4) / c(y/4) to order K in both y and
    v, as the table ``phi[n][d]`` of y**n v**d coefficients, 0 <= n, d <= K.

    phi[n][d] is T(2n,d) / pi**(2n), where T(2n,d) is the sum of all
    multiple t-values of weight 2n and depth d: the y**n v**d coefficient
    of c((1-v)y)/c(y) divided by 4**n.  Rows with d > n vanish, and the
    d = 0 column is 1, 0, 0, ... since the v = 0 slice collapses to
    c(y/4)/c(y/4).  Each cell is one Fraction over (2n)! 4**n.

    The numerator's y**k v**d coefficient is (-1)**d binom(k,d) c_k, so
    phi[n][d] 4**n is the 1-D convolution (-1)**d sum_{k=d..n} binom(k,d)
    c_k sec_{n-k} with the secant series sec = 1/c.  It runs in integers:
    with a_j = sec_j (2j)! (the integer |E_2j|), c_k sec_{n-k} (2n)! is
    p_k = (-1)**k binom(2n,2k) a_{n-k}, and the sums sum_k binom(k,d) p_k
    for every d are the coefficients of P(x+1), P(x) = sum_k p_k x**k,
    which one in-place Taylor shift per row gives.  The cells with d > n
    share one ``Fraction(0)``.
    """
    order = _order(order)
    if order < 1:
        raise ValueError("order must be >= 1")
    K = order
    sec = series_quotient((1,), cos_sqrt_series(K))
    a = [int(s * factorial(2 * j)) for j, s in enumerate(sec)]
    zero = Fraction(0)
    rows = []
    for n in range(K + 1):
        p = [(-1) ** k * comb(2 * n, 2 * k) * a[n - k] for k in range(n + 1)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                p[j] += p[j + 1]
        scale = factorial(2 * n) << 2 * n
        rows.append(
            tuple(Fraction((-1) ** d * p[d], scale) for d in range(n + 1)) + (zero,) * (K - n)
        )
    return tuple(rows)


def tan_link_series(order: int) -> tuple[Fraction, ...]:
    """Normalized half-angle tangent series (y/2) * s(y) / c(y) at y = pi**2 u.

    Its y**m coefficient is the rational slot of 4**m * t(2m): multiplying
    coefficient m by pi**(2m) recovers 4**m t(2m), which is the coefficient
    of u**m in (pi*sqrt(u)/2) tan(pi*sqrt(u)).
    """
    order = _order(order)
    if order < 1:
        raise ValueError("order must be >= 1")
    half_ys = (0,) + tuple(x / 2 for x in sin_sqrt_series(order - 1))
    return series_quotient(half_ys, cos_sqrt_series(order))
