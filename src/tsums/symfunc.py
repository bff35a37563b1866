"""Finite-variable symmetric polynomials and the t-value specialization.

Works with symmetric polynomials in Q[x_1..x_m], stored in the monomial
basis m_lambda (Macdonald, ch. I).  Degree-n identities among
symmetric functions hold in the infinite ring iff they hold in m >= n
variables, so the verification routines take m large enough and check exact
polynomial equality:

* ``1 + sum N_{n,d} u**n v**d = E((v-1)u) * H(u)``, where N_{n,d} is the sum
  of monomial symmetric functions over partitions of n with exactly d parts
  and E, H are the elementary / complete generating functions;
* ``N_{n,d} = sum_{l=0}^{n-d} binom(n-l,d) (-1)**(n-d-l) h_l e_{n-l}``.

The specialization x_j -> 1/(2j-1)**2 sends p_n to t(2n), e_n to the
all-twos value t({2}**n) and N_{n,d} to T(2n,d); it extends to infinitely
many variables, so the numeric image is computed from generator expressions
(:class:`GenExpr`), truncated at a finite number of variables with a tail
bound attached.  A generator expression is a sum of terms c e_k h_l, keyed
by (k, l), since every expression the checks need has that form.  The
generators and the sum are fixed-point integers with integer error bounds,
floors only, and become mpf once, at the end (see
:func:`_generator_value` and :func:`specialize_odd_squares`).

Each N_{n,d} is written once, as the generator expression
:func:`monomial_depth_expr`: the exact checks read it through the counting
lemma below and the numeric checks specialize it.

The expansion rests on a counting lemma: for |lambda| = k + l, the
coefficient of m_lambda in e_k h_l is binom(len(lambda), k).  It is the
coefficient of the monomial x**lambda; the e_k factor supplies x**S for a
k-subset S of the variables, and h_l then supplies x**(lambda - 1_S) once,
which exists exactly when S lies in the support of lambda, a set of
len(lambda) variables.  So in a generator expression the coefficient of
m_lambda depends only on |lambda| and the length len(lambda): the
expansion computes it once per degree and length, and lists only the
partitions of the lengths where it is non-zero (for N_{n,d}, those of n
with exactly d parts).  The lemma proves the factorization in every
degree, and its check evaluates the lemma at every length, listing no
partition: the u**n v**d coefficient of the right side is
sum_k (-1)**(k-d) binom(k,d) e_k h_{n-k}, whose m_lambda coefficient at
length L is sum_k (-1)**(k-d) binom(k,d) binom(L,k) = delta_{L,d}, as
binom(L,k) binom(k,d) = binom(L,d) binom(L-d,k-d) and the alternating row
sum of binom(L-d, .) is 0 unless L = d: N_{n,d}, and 1 at n = d = 0.
Every integer argument (GenExpr keys too) goes through ``exact._index``
before any work.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, floordiv, mul
from typing import Iterator

from .exact import _at_least, _check_args, _Frozen, _index, _over_one_denominator, _rational, _set
from .oracle import PrecReal, _check_dps

# array is imported inside the function that uses it, as mpmath is in
# oracle.

__all__ = [
    "SymPoly",
    "monomial_depth_sum",
    "check_bivariate_factorization",
    "check_monomial_expansion",
    "GenExpr",
    "monomial_depth_expr",
    "specialize_odd_squares",
]


def _partitions(n: int, max_len: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n into at most max_len parts (each <= max_part), as
    weakly decreasing tuples, largest first; () is the partition of 0."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        if first * max_len < n:
            break
        for rest in _partitions(n - first, max_len - 1, first):
            yield (first,) + rest


def _partitions_of_length(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with exactly ``length`` parts: each partition of
    n - length into at most ``length`` parts, padded with zeros to
    ``length`` parts, plus one in every part.  None when length > n, and
    none of length 0 unless n = 0."""
    ones = (1,) * length
    for lam in _partitions(n - length, length):
        yield tuple(map(add, lam, ones)) + ones[len(lam):]


def _is_partition(lam: tuple[int, ...]) -> bool:
    # Passes in C, no generator per part: a float or Fraction part makes the
    # sum no int, and weakly decreasing means equal to its own decreasing sort.
    return (type(sum(lam)) is int and list(lam) == sorted(lam, reverse=True)
            and (not lam or lam[-1] >= 1))


class SymPoly(_Frozen):
    """Symmetric polynomial over Q in a fixed number m of variables, stored
    in the monomial basis: ``terms`` maps a partition lambda (a weakly
    decreasing tuple of positive int parts, at most m of them; () is the
    constant) to the coefficient of m_lambda.  Symmetric by construction.

    A record (``exact._Frozen``) with no arithmetic; zero coefficients are
    never stored.  num_vars goes through ``exact._at_least`` and each
    coefficient through ``exact._rational`` (a ``float`` raises ``TypeError``).
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        num_vars = _at_least(num_vars, 1, "num_vars")
        clean: dict[tuple[int, ...], Fraction] = {}
        for lam, c in (terms or {}).items():
            c = _rational(c)
            if len(lam) > num_vars or not _is_partition(lam):
                raise ValueError(f"{lam} is not a partition with at most {num_vars} parts")
            if c:
                clean[lam] = c
        _set(self, "num_vars", num_vars)
        _set(self, "terms", clean)


def monomial_depth_sum(n: int, d: int, m: int) -> SymPoly:
    """N_{n,d}: sum of monomial symmetric functions m_lambda over partitions
    of n with exactly d parts, in m variables.  Zero when d > n.

    Faithful (no truncation artifacts) when m >= n.
    """
    n, d = _check_args(n, d)
    m = _index(m)
    if d > m:
        raise ValueError(f"depth {d} exceeds variable count {m}")
    return SymPoly(m, dict.fromkeys(_partitions_of_length(n, d), Fraction(1)))


class GenExpr(_Frozen):
    """Exact linear combination sum c e_k h_l, with e_0 = h_0 = 1.

    ``terms`` maps (k, l), two integers >= 0, to the coefficient c, an
    ``int`` or ``Fraction`` (a ``float`` raises ``TypeError``); zero
    coefficients are dropped.  Written in generators (not in expanded
    monomials) so the infinite-variable specialization below applies
    directly.  A record like :class:`SymPoly`, built from a dict.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for (k, ell), c in (terms or {}).items():
            c = _rational(c)
            k, ell = _index(k), _index(ell)
            if k < 0 or ell < 0:
                raise ValueError(f"generator indices must be >= 0, got e_{k} h_{ell}")
            if c:
                clean[k, ell] = c
        _set(self, "terms", clean)

    @staticmethod
    def elem(j: int) -> "GenExpr":
        return GenExpr({(j, 0): 1})

    @staticmethod
    def homog(j: int) -> "GenExpr":
        return GenExpr({(0, j): 1})


def monomial_depth_expr(n: int, d: int) -> GenExpr:
    """N_{n,d} written in the h/e generators (valid in the infinite ring):
    sum_{l=0}^{n-d} binom(n-l,d) (-1)**(n-d-l) h_l e_{n-l}."""
    n, d = _check_args(n, d)
    return GenExpr({(n - ell, ell): math.comb(n - ell, d) * (-1) ** (n - d - ell)
                    for ell in range(n - d + 1)})


def _length_sums(expr: GenExpr, m: int) -> Iterator[tuple[int, int, int, int]]:
    """The counting lemma in integers: for each degree n = k + l of the
    terms c e_k h_l and each length L <= min(n, m) of a partition of n,
    (n, L, den, den f(L)), with den the lcm of the degree's denominators
    and f(L) = sum_{k<=L} c binom(L, k), the m_lambda coefficient at length L."""
    by_degree: dict[int, dict[int, Fraction]] = {}  # n -> {k: c}, as l = n - k
    for (k, ell), c in expr.terms.items():
        by_degree.setdefault(k + ell, {})[k] = c
    for n, terms in by_degree.items():
        den, nums = _over_one_denominator(terms.values())
        pairs = [*zip(terms, nums)]
        # A partition of n >= 1 has length >= 1; () is the one of n = 0.
        for L in range(1 if n else 0, min(n, m) + 1):
            yield n, L, den, sum(a * math.comb(L, k) for k, a in pairs if k <= L)


def _expand(expr: GenExpr, m: int) -> SymPoly:
    """A generator expression expanded in the monomial basis of m variables:
    only an L with f(L) != 0 (:func:`_length_sums`) lists its partitions,
    those of n with exactly L parts, and each partition is listed once."""
    out: dict[tuple[int, ...], Fraction] = {}
    for n, L, den, f in _length_sums(expr, m):
        if f:
            out.update(zip(_partitions_of_length(n, L), repeat(Fraction(f, den))))
    return SymPoly(m, out)


def check_monomial_expansion(n: int, d: int, m: int) -> bool:
    """Exact check that N_{n,d} equals :func:`monomial_depth_expr`, expanded."""
    n, d, m = _index(n), _index(d), _index(m)
    if not (1 <= d <= n <= m):
        raise ValueError(f"require 1 <= d <= n <= m, got n={n}, d={d}, m={m}")
    return monomial_depth_sum(n, d, m) == _expand(monomial_depth_expr(n, d), m)


def check_bivariate_factorization(n_max: int, m: int) -> bool:
    """Exact check, for all u-degrees n <= n_max and all v-degrees, that

    1 + sum_{n>=d>=1} N_{n,d} u**n v**d  =  E((v-1)u) * H(u).

    As (v-1)**j has v**d coefficient (-1)**(j-d) binom(j,d), the u**n v**d
    coefficient of the right side is sum_{j=d}^{n} (-1)**(j-d) binom(j,d)
    e_j h_{n-j}: :func:`monomial_depth_expr` for d >= 1 (l = n-j), and the
    column sum_j (-1)**j e_j h_{n-j} at d = 0.  A cell holds iff its terms
    have degree n and f(L) = [L = d] at every length L <= min(n, m)
    (:func:`_length_sums`); no partition is listed.
    """
    n_max, m = _index(n_max), _index(m)
    if not (1 <= n_max <= m):
        raise ValueError(f"require 1 <= n_max <= m, got n_max={n_max}, m={m}")
    for n in range(n_max + 1):
        for d in range(n + 1):
            expr = (monomial_depth_expr(n, d) if d
                    else GenExpr({(j, n - j): (-1) ** j for j in range(n + 1)}))
            cell = [deg == n and f == den * (L == d) for deg, L, den, f in _length_sums(expr, m)]
            if not (cell and all(cell)):
                return False
    return True


# Indices per block of the power-sum pass: large enough that the loops over
# indices run in C, small enough that a block's lists stay small.
_BLOCK = 512

# The last power sum computed, as [(M, scale), j, blocks]: per block of
# _BLOCK indices i, its divisors and its quotients scale // (2i-1)**(2j).
# The divisors are the squares of b = 2i-1 in an array("L") while b < 2**15,
# else the range of b itself, which stores nothing.  Advanced under
# symfunc's own lock, so a concurrent caller never reads a half-advanced
# chain.
_chain_lock = threading.Lock()
_chain: list = [None, 0, None]


def _power_sum(j: int, M: int, scale: int) -> int:
    """sum_{i<=M} scale // (2i-1)**(2j), j >= 1, dividing the kept
    quotients on to degree j by the kept divisors (see
    :func:`_generator_value`)."""
    from array import array

    with _chain_lock:
        key, reached, blocks = _chain
        _chain[:] = None, 0, None  # until the pass completes: an interrupted one restarts
        if key != (M, scale) or reached >= j:
            # Rebinding drops the old lists before any new one is built.
            reached, blocks = 0, [None] * len(range(0, M, _BLOCK))
        total = 0
        for k, lo in enumerate(range(0, M, _BLOCK)):
            if reached:
                d, x = blocks[k]
            else:
                # A fresh block divides by its squares as a list, and keeps
                # them as an array, about a fifth of the list's memory.
                bs = range(2 * lo + 1, 2 * min(lo + _BLOCK, M), 2)
                d, x = list(map(mul, bs, bs)) if bs[-1] < 1 << 15 else bs, repeat(scale, len(bs))
            for _ in range(reached, j):
                # One division by b**2 while it fits one 30-bit CPython
                # digit; beyond, two by the one-digit b, which floor the same.
                x = (map(floordiv, map(floordiv, x, d), d) if type(d) is range
                     else map(floordiv, x, d))
            x = list(x)
            blocks[k] = array("L", d) if type(d) is list else d, x
            total += sum(x)
        _chain[:] = (M, scale), j, blocks
        return total


@lru_cache(maxsize=None)
def _generator_value(kind: str, j: int, num_vars: int, dps: int) -> tuple[int, int]:
    """Image of one generator under x_i -> 1/(2i-1)**2, truncated to the
    first M = num_vars variables, in fixed point: two integers in ulps of
    10**-(dps+20), the floored value and a ceiling of its error.  e_0 = h_0
    = 1 is the exact (scale, 0), with scale = 10**(dps+20).

    p_j, asked for only at j >= 1, is the integer
    sum_{i<=M} scale // (2i-1)**(2j).  :func:`_power_sum` keeps the M
    quotients of the last p_j, block by block next to the block's
    divisors, and divides each once more by (2i-1)**2 for p_{j+1}, so a
    new degree computes no square; as floor(floor(a/b)/c) = floor(a/(bc)),
    that is the integer of a direct pass.  The divisors are built when the
    chain starts.  A request for another (M, dps), or for a j at or below
    the one reached, restarts the chain from scale: correct, only slower.
    Newton's identities ask for p_1, p_2, ... in rising order, so each new
    degree costs one division per variable.  e_j and h_j follow from the
    power sums by Newton's identities, which hold in any number of
    variables:

      j e_j = sum_{r=1}^{j} (-1)**(r-1) e_{j-r} p_r,
      j h_j = sum_{r=1}^{j} h_{j-r} p_r,

    summed exactly over the integers of e_{j-r} (h_{j-r}) and p_r and
    floored once, by the division by j scale.

    Tail bounds: with T = sum_{i>M} x_i <= 1/(2(2M-1)),
      p_j misses at most (2M-1)**(1-2j) / (2(2j-1)),
      e_j misses at most sum_{r>=1} e_{j-r}(<=M) T**r / r!,
      h_j misses at most sum_{r>=1} h_{j-r}(<=M) T**r,
    since the elementary (resp. complete) functions of the dropped tail are
    bounded by T**r/r! (resp. T**r).  Each is summed exactly, with T the
    rational 1/(2(2M-1)), and rounded up.

    Floors allowance, in ulps: M for p_j, 3jM + j for e_j and h_j.  The M
    floors of a pass lose under M ulps, and the integer of p_r is at most
    scale p_r.  Over M variables 1 <= p_r <= p_1 < 1.24, sum_r (p_r - 1) <
    1/4, sum_i e_i < cosh(pi/2) < 2.51 and h_i < 4/pi < 1.28.  Let R_i bound
    the error of the integer of e_i (or h_i), R_0 = 0.  In step j, the
    earlier errors enter with weights sum_{r<j} p_r < j, so after the
    division by j they add less than max_{i<j} R_i; the p_r add under
    M sum_r e_{j-r} / j < 2.51 M / j (h: 1.28 M); the floor adds under 1.
    Summed over the steps, R_j < 2.51 M H_j + j for e_j (H_j <= j
    harmonic) and 1.28 jM + j for h_j.  The tail sums read the integers of
    e_{j-r} (h_{j-r}), which may fall short of scale e_{j-r} by R_{j-r};
    that adds under 1.2 T (j-1)(3M + 1) <= 1.4(j-1) ulps at M >= 2, within
    the allowance's margin over R_j (at least 1.7 M (j-1)).
    """
    if j == 0:
        return 10 ** (dps + 20), 0
    M = num_vars
    scale = 10 ** (dps + 20)
    if kind == "p":
        tail = Fraction(scale, 2 * (2 * j - 1) * (2 * M - 1) ** (2 * j - 1))
        return _power_sum(j, M, scale), math.ceil(tail) + M
    if kind not in ("e", "h"):
        raise ValueError(f"unknown generator kind {kind!r}")
    below = [_generator_value(kind, r, M, dps)[0] for r in range(j)]
    sign = -1 if kind == "e" else 1
    T = Fraction(1, 2 * (2 * M - 1))
    total = tail = 0
    for r in range(1, j + 1):
        total += sign ** (r - 1) * below[j - r] * _generator_value("p", r, M, dps)[0]
        tail += below[j - r] * T**r / (math.factorial(r) if kind == "e" else 1)
    return total // (j * scale), math.ceil(tail) + 3 * j * M + j


def specialize_odd_squares(
    expr: GenExpr, num_vars: int = 50_000, dps: int = 30
) -> PrecReal:
    """Numeric image of a generator expression under x_j -> 1/(2j-1)**2.

    Truncates the variable list at num_vars and attaches a first-order tail
    bound; the value itself is the truncated specialization.  dps must be
    an integer >= MIN_DPS, the oracle's floor (checked by its _check_dps).
    The generators are fixed-point integers at 10**(dps+20), each with its
    error bound (see :func:`_generator_value`).  With L the lcm of the
    denominators of the terms and a = cL, each term c e_k h_l adds
    a v_e v_h, and the error |a| (err_e (|v_h| + err_h) + err_h (|v_e| +
    err_e)) of a product, both summed exactly in integers over
    L 10**(2(dps+20)).  Only then do they become mpf, by the oracle's one
    conversion (PrecReal._exact): at dps+20 digits, the value to nearest
    and the error rounding up, plus the value's rounding unless the
    conversion is exact (so a dyadic constant keeps err 0).
    """
    num_vars, dps = _at_least(num_vars, 2, "num_vars"), _check_dps(dps)
    den, nums = _over_one_denominator(expr.terms.values())
    total = total_err = 0
    for (k, ell), a in zip(expr.terms, nums):
        v_e, err_e = _generator_value("e", k, num_vars, dps)
        v_h, err_h = _generator_value("h", ell, num_vars, dps)
        total += a * v_e * v_h
        total_err += abs(a) * (err_e * (abs(v_h) + err_h) + err_h * (abs(v_e) + err_e))
    return PrecReal._exact(total, total_err, den * 10 ** (2 * (dps + 20)), dps)
