"""Symmetric polynomials and their image at x_j = 1/(2j-1)**2.

Works with symmetric polynomials in Q[x_1..x_m], stored in the monomial
basis m_lambda (Macdonald, ch. I).  Degree-n identities among
symmetric functions hold in the infinite ring iff they hold in m >= n
variables, so the verification routines take m large enough and check exact
polynomial equality:

* ``1 + sum N_{n,d} u**n v**d = E((v-1)u) * H(u)``, where N_{n,d} is the sum
  of monomial symmetric functions over partitions of n with exactly d parts
  and E, H are the elementary / complete generating functions;
* ``N_{n,d} = sum_{l=0}^{n-d} binom(n-l,d) (-1)**(n-d-l) h_l e_{n-l}``.

The specialization x_j -> 1/(2j-1)**2 in infinitely many variables sends
p_n to t(2n), e_n to t({2}**n) and N_{n,d} to T(2n,d), exactly
(:func:`odd_square_image`): E(-u) = prod_j (1 - u x_j) is cos(pi sqrt(u)/2),
so e_k goes to pi**(2k)/(4**k (2k)!), and h_l follows from
sum_k (-1)**k e_k h_{l-k} = 0, reading no Euler or Bernoulli number.  It
acts on generator expressions (:class:`GenExpr`), sums of terms c e_k h_l
keyed by (k, l).  Each N_{n,d} is one, :func:`monomial_depth_expr`, which
the polynomial checks read through the counting lemma below.

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
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add
from typing import Iterator

from .exact import (PiPower, _at_least, _check_args, _Frozen, _index, _over_one_denominator,
                    _rational, _set)
from .oracle import _check_dps, pi_power_eval

__all__ = [
    "SymPoly",
    "monomial_depth_sum",
    "check_bivariate_factorization",
    "check_monomial_expansion",
    "GenExpr",
    "monomial_depth_expr",
    "odd_square_image",
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
    # Passes in C, no generator per part: every part's type is int (no bool,
    # as in exact._index); weakly decreasing means equal to its decreasing sort.
    return (set(map(type, lam)) <= {int} and list(lam) == sorted(lam, reverse=True)
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



@lru_cache(maxsize=None)
def _e_image(k: int) -> Fraction:
    """epsilon_k = 1/(4**k (2k)!), the image of e_k over pi**(2k)."""
    return Fraction(1, 4**k * math.factorial(2 * k))


# eta_0, eta_1, ...: grown by _h_image and replaced whole, never changed in
# place, so a reader in another thread sees a consistent prefix without a lock.
_h_images: tuple[Fraction, ...] = (Fraction(1),)


def _h_image(ell: int) -> Fraction:
    """eta_l, the image of h_l over pi**(2l), by the e-recurrence
    eta_l = sum_{k=1}^{l} (-1)**(k+1) epsilon_k eta_{l-k}."""
    global _h_images
    eta = _h_images
    if len(eta) <= ell:
        eta = list(eta)
        for j in range(len(eta), ell + 1):
            eta.append(sum((-1) ** (k + 1) * _e_image(k) * eta[j - k] for k in range(1, j + 1)))
        _h_images = eta = tuple(eta)
    return eta[ell]


def odd_square_image(expr: GenExpr) -> PiPower:
    """Exact image of a homogeneous generator expression under
    x_j -> 1/(2j-1)**2 in infinitely many variables: sum c e_k h_l of
    degree n goes to (sum c epsilon_k eta_l) pi**(2n), epsilon_k and eta_l
    the memoized images of e_k and h_l over their powers of pi.  Terms of
    two degrees raise ValueError (no single power of pi); no term gives 0."""
    degrees = {k + ell for k, ell in expr.terms}
    if len(degrees) > 1:
        raise ValueError(f"expression is not homogeneous: degrees {sorted(degrees)}")
    return PiPower(sum(c * _e_image(k) * _h_image(ell) for (k, ell), c in expr.terms.items()),
                   2 * max(degrees, default=0))


def specialize_odd_squares(expr: GenExpr, num_vars: int = 50_000, dps: int = 30):
    """:func:`odd_square_image` as ``oracle.pi_power_eval`` gives it at dps
    digits, a ``PrecReal``.  num_vars (an integer >= 2) and dps (>= MIN_DPS)
    are checked before any work, but num_vars changes nothing: the image is
    the one in infinitely many variables.  Kept for the benchmark's spot
    requests; moving them to :func:`odd_square_image` deletes this wrapper."""
    _at_least(num_vars, 2, "num_vars")
    dps = _check_dps(dps)
    return pi_power_eval(odd_square_image(expr), dps)
