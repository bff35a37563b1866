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
by (k, l), since every expression the checks need has that form.

Each N_{n,d} is written once, as the generator expression
:func:`monomial_depth_expr`: the exact checks expand it in the m_lambda and
the numeric checks specialize it.

The expansion rests on a counting lemma: for |lambda| = k + l, the
coefficient of m_lambda in e_k h_l is binom(len(lambda), k).  It is the
coefficient of the monomial x**lambda; the e_k factor supplies x**S for a
k-subset S of the variables, and h_l then supplies x**(lambda - 1_S) once,
which exists exactly when S lies in the support of lambda, a set of
len(lambda) variables.  So in a generator expression the coefficient of
m_lambda depends only on |lambda| and the length len(lambda): the
expansion computes it once per degree and length, and lists only the
partitions of the lengths where it is non-zero, by their length (for
N_{n,d}, the partitions of n with exactly d parts).  The lemma proves the
factorization in every degree: the u**n v**d coefficient of the right
side is sum_k (-1)**(k-d) binom(k,d) e_k h_{n-k}, and at a partition of
length L its m_lambda coefficient is sum_k (-1)**(k-d) binom(k,d)
binom(L,k) = delta_{L,d}, because binom(L,k) binom(k,d) = binom(L,d)
binom(L-d,k-d) and the alternating row sum of binom(L-d, .) is 0 unless
L = d.  That is N_{n,d}, and 1 at n = d = 0.  Every integer argument
(GenExpr keys too) goes through ``exact._index`` before any work.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from operator import add, floordiv, mul
from typing import Iterator

from .exact import _check_args, _index
from .oracle import PrecReal, _check_dps

# mpmath and array are imported inside the functions that use them, as in
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
    # One sort in C, not a generator per pair: weakly decreasing means equal
    # to its own decreasing sort.
    return list(lam) == sorted(lam, reverse=True) and (not lam or lam[-1] >= 1)


class SymPoly:
    """Symmetric polynomial over Q in a fixed number m of variables, stored
    in the monomial basis: ``terms`` maps a partition lambda (a weakly
    decreasing tuple of positive parts, at most m of them; () is the
    constant) to the coefficient of m_lambda.  Symmetric by construction.

    A value: built from a dict, compared with ``==``, never changed after
    construction; zero coefficients are never stored.  num_vars goes
    through ``exact._index``, and a coefficient is an ``int`` or
    ``Fraction``, as in :class:`GenExpr` (a ``float`` raises ``TypeError``).
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        num_vars = _index(num_vars)
        if num_vars < 1:
            raise ValueError(f"need at least one variable, got {num_vars}")
        self.num_vars = num_vars
        clean: dict[tuple[int, ...], Fraction] = {}
        for lam, c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficients must be exact rationals, got {c!r}")
            if len(lam) > num_vars or not _is_partition(lam):
                raise ValueError(f"{lam} is not a partition with at most {num_vars} parts")
            if c:
                clean[lam] = c if isinstance(c, Fraction) else Fraction(c)
        self.terms = clean

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "SymPoly(0)"
        bits = [
            f"{self.terms[lam]}*m{list(lam)}" for lam in sorted(self.terms, reverse=True)
        ]
        return "SymPoly(" + " + ".join(bits) + ")"


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


class GenExpr:
    """Exact linear combination sum c e_k h_l, with e_0 = h_0 = 1.

    ``terms`` maps (k, l), two integers >= 0, to the coefficient c, an
    ``int`` or ``Fraction`` (a ``float`` raises ``TypeError``); zero
    coefficients are dropped.  Written in generators (not in expanded
    monomials) so the infinite-variable specialization below applies
    directly.  A value like :class:`SymPoly`: built from a dict, never
    changed after.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        self.terms = {}
        for (k, ell), c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficients must be exact rationals, got {c!r}")
            k, ell = _index(k), _index(ell)
            if k < 0 or ell < 0:
                raise ValueError(f"generator indices must be >= 0, got e_{k} h_{ell}")
            if c:
                self.terms[k, ell] = Fraction(c)

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


def _expand(expr: GenExpr, m: int) -> SymPoly:
    """A generator expression expanded in the monomial basis of m variables.

    By the counting lemma of the module docstring, the terms c e_k h_l of
    degree n = k + l give m_lambda, for each lambda |- n, the coefficient
    f(len(lambda)) = sum c binom(len(lambda), k).  For each length
    L <= min(n, m), f(L) is summed in integers over one common denominator;
    only an L with f(L) != 0 lists its partitions, those of n with exactly
    L parts, and each partition is listed once.
    """
    by_degree: dict[int, list[tuple[int, Fraction]]] = {}
    for (k, ell), c in expr.terms.items():
        by_degree.setdefault(k + ell, []).append((k, c))
    out: dict[tuple[int, ...], Fraction] = {}
    for n, terms in by_degree.items():
        den = math.lcm(*(c.denominator for _, c in terms))
        nums = [(k, c.numerator * (den // c.denominator)) for k, c in terms]
        # A partition of n >= 1 has length >= 1; () is the one of n = 0.
        for L in range(1 if n else 0, min(n, m) + 1):
            f = sum(a * math.comb(L, k) for k, a in nums)
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

    E((v-1)u) = sum_j e_j (v-1)**j u**j, and the v**d coefficient of
    (v-1)**j is (-1)**(j-d) binom(j,d), so the u**n v**d coefficient of the
    right side is sum_{j=d}^{n} (-1)**(j-d) binom(j,d) e_j h_{n-j}.  For
    d >= 1 this is, with l = n-j, the expansion of N_{n,d} that
    :func:`check_monomial_expansion` compares, so those cells are delegated
    to it.  Checked here is the column d = 0, where the left side is 1 at
    n = 0 (e_0 h_0) and 0 above, while the right side is
    sum_j (-1)**j e_j h_{n-j}.
    """
    n_max, m = _index(n_max), _index(m)
    if not (1 <= n_max <= m):
        raise ValueError(f"require 1 <= n_max <= m, got n_max={n_max}, m={m}")
    for n in range(n_max + 1):
        column = GenExpr({(j, n - j): (-1) ** j for j in range(n + 1)})
        if _expand(column, m) != SymPoly(m, {(): int(n == 0)}):
            return False
    return all(
        check_monomial_expansion(n, d, m)
        for n in range(1, n_max + 1)
        for d in range(1, n + 1)
    )


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
def _generator_value(kind: str, j: int, num_vars: int, dps: int):
    """Numeric image of one generator under x_i -> 1/(2i-1)**2, truncated to
    the first num_vars variables.  Returns (value, err) as mpf, and the
    exact (1, 0) for e_0 = h_0 = 1.

    p_j, asked for only at j >= 1, is the fixed-point integer
    sum_{i<=M} scale // (2i-1)**(2j) with scale = 10**(dps+20).
    :func:`_power_sum` keeps the M quotients of the last p_j, block by
    block next to the block's divisors, and divides each once more by
    (2i-1)**2 for p_{j+1}, so a new degree computes no square; as
    floor(floor(a/b)/c) = floor(a/(bc)), that is the integer of a direct
    pass, so the allowance below is unchanged.  The divisors are built when
    the chain starts.  A request for another (M, dps), or for a j at or
    below the one reached, restarts the chain from scale: correct, only
    slower.  Newton's identities ask for p_1, p_2, ... in rising order, so
    each new degree costs one division per variable.  e_j and h_j follow
    from the power sums by Newton's identities, which hold in any number
    of variables:

      j e_j = sum_{r=1}^{j} (-1)**(r-1) e_{j-r} p_r,
      j h_j = sum_{r=1}^{j} h_{j-r} p_r,

    evaluated at dps+10 digits from the cached truncated values.

    Tail bounds: with T = sum_{i>num_vars} x_i <= 1/(2(2M-1)),
      e_j misses at most sum_{r>=1} e_{j-r}(<=M) T**r / r!,
      h_j misses at most sum_{r>=1} h_{j-r}(<=M) T**r,
    since the elementary (resp. complete) functions of the dropped tail are
    bounded by T**r/r! (resp. T**r).

    Rounding allowance, in ulps of 10**-(dps+20): M + 10**10 for p_j, and
    j (3M + 4j 10**10) for e_j and h_j.  With U = 10**-(dps+10), a rounding
    at dps+10 digits (round((dps+11) log2 10) bits) moves x by under 0.15U|x|.
    The floors of the pass lose under M ulps, and mpf(total) / scale rounds
    a number below 1.24 twice, so p_r is off by at most
    delta = M 10**-(dps+20) + 0.4U.  Over M variables 1 <= p_r <= p_1 <
    1.24, sum_r (p_r - 1) < 1/4, e_i < 1.26, sum_i e_i < cosh(pi/2) < 2.51,
    h_i < 4/pi < 1.28 and sum_{r<=j} h_{j-r} p_r = j h_j.  Let R_i bound the
    error of the computed e_i (or h_i), R_0 = 0, with j R_i < 0.01 (true
    while 3j**2 M < 10**27 and j < 10**5).  In step j the earlier errors
    enter with weights sum_{r<j} (p_r + delta) < j, so after the division by
    j they add less than max_{i<j} R_i; the p_r add delta sum_r e_{j-r} / j
    < 2.51 delta / j (h: 1.28 delta); and j products, j-1 additions and the
    division round numbers below 3.2, 3.2 and 1.3 (h: 1.31j + 0.33 and 1.3),
    adding under 1.2U (h: (0.4j + 0.3)U).  Summed over the steps, R_j <
    2.51 delta H_j + 1.2jU for e_j (H_j <= j harmonic) and 1.28 j delta +
    (0.2j**2 + 0.5j)U for h_j, both below 3j delta + 2j**2 U, inside the
    allowance.  That stays below the former blanket 10**(10-dps) while
    j (3M + 4j 10**10) < 10**30, past any M and j a call can finish.
    """
    if j == 0:
        return 1, 0
    import mpmath as mp

    M = num_vars
    scale = 10 ** (dps + 20)
    with mp.workdps(dps + 10):
        if kind == "p":
            total = _power_sum(j, M, scale)
            err = mp.mpf(2 * M - 1) ** (1 - 2 * j) / (2 * (2 * j - 1))
            return mp.mpf(total) / scale, +(err + mp.mpf(M + 10**10) / scale)
        if kind not in ("e", "h"):
            raise ValueError(f"unknown generator kind {kind!r}")
        rounding = mp.mpf(j * (3 * M + 4 * j * 10**10)) / scale
        below = [_generator_value(kind, r, M, dps)[0] for r in range(j)]
        sign = -1 if kind == "e" else 1
        tail_p1 = mp.mpf(1) / (2 * (2 * M - 1))
        value = err = mp.mpf(0)
        for r in range(1, j + 1):
            value += sign ** (r - 1) * below[j - r] * _generator_value("p", r, M, dps)[0]
            err += below[j - r] * tail_p1**r / (math.factorial(r) if kind == "e" else 1)
        return value / j, +(err + rounding)


def specialize_odd_squares(
    expr: GenExpr, num_vars: int = 50_000, dps: int = 30
) -> PrecReal:
    """Numeric image of a generator expression under x_j -> 1/(2j-1)**2.

    Truncates the variable list at num_vars and attaches a first-order tail
    bound; the value itself is the truncated specialization.  dps must be
    an integer >= MIN_DPS, the oracle's floor (checked by its _check_dps):
    the power sums are fixed-point passes at 10**(dps+20), and the rounding
    allowance of each generator is derived in :func:`_generator_value`.
    Each term c e_k h_l contributes c v_e v_h, with the error
    |c| (err_e (|v_h| + err_h) + err_h (|v_e| + err_e)) of a product.

    With L the lcm of the denominators of the t terms and a = cL, the sum
    of a v_e v_h is exact and its quotient q by L rounds once, to nearest
    at the p bits of dps+10 digits: by at most 2**-p |q|, within the
    allowance 2**(1-p) |q|, added unless value * L is the sum (so a dyadic
    constant keeps err 0).  The sum S of |a| times the errors adds
    non-negative numbers at p bits, with at most t+4 roundings to nearest
    on the path of any term (4 within it, t in the accumulation), so the
    exact sum is at most S / (1 - (t+4) 2**-p) <= S (1 + (t+4) 2**(1-p)).
    Both allowances are added exactly, and the total is divided by L
    rounding up.
    """
    import mpmath as mp

    num_vars, dps = _index(num_vars), _check_dps(dps)
    if num_vars < 2:
        raise ValueError(f"need at least 2 variables, got {num_vars}")
    den = math.lcm(*(c.denominator for c in expr.terms.values()))
    add, mul = partial(mp.fadd, exact=True), partial(mp.fmul, exact=True)
    total = total_err = mp.mpf(0)
    with mp.workdps(dps + 10):
        for (k, ell), coeff in expr.terms.items():
            v_e, err_e = _generator_value("e", k, num_vars, dps)
            v_h, err_h = _generator_value("h", ell, num_vars, dps)
            a = coeff.numerator * (den // coeff.denominator)
            total = add(total, mul(a, mul(v_e, v_h)))
            total_err += abs(a) * (err_e * (abs(v_h) + err_h) + err_h * (abs(v_e) + err_e))
        value = mp.fdiv(total, den)
        slack = mp.ldexp(mul(total_err, len(expr.terms) + 4), 1 - mp.mp.prec)
        if mul(value, den) != total:
            slack = add(slack, mp.ldexp(abs(total), 1 - mp.mp.prec))
        return PrecReal(value, mp.fdiv(add(total_err, slack), den, rounding="u"))
