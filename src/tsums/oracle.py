"""Brute-force numeric evaluation of the defining series, with error bounds.

t(s_1,...,s_d) = sum over n_1 > ... > n_d >= 1 of prod (2n_i - 1)**-s_i.
t_numeric sums it over the indices m = 1..N, keeping the d+1 partial sums
A_i(m) over m >= n_{i+1} > ... > n_d of prod_{j>i} (2n_j - 1)**-s_j
(A_d = 1): index m adds A_{i+1}(m-1) (2m-1)**-s_{i+1} to A_i, reading
A_{i+1} before index m adds to it (the indices stay strict).  The indices
run in blocks of B = _BLOCK, and each block one level at a time, i = d-1
down to 0: level i's additions over the block are the floor divisions of
level i+1's values before each index by (2m-1)**s_{i+1} (see Divisions
below), and their running sums
(itertools.accumulate) are the values before each index that level i-1
reads; A_0 feeds nothing, so its additions are only summed.  A_0(N) is the
partial sum; the inner sums A_i(N-1), kept from before the last index, feed
the bound.  Cost O(d*N), memory O(d*B), whatever N.  Both passes here run
in fixed-point integers; one ulp is one unit of the scale, 10**(dps+20) in
the ladder and 10**k <= 10**(dps+20) in t_numeric (_t_scale, see Rounding).

Tail (tail_order=1): when the inner exponents are >= 2 the inner sums
increase to a finite limit, so the first-order integral correction
A_1(N-1) (2N-1)**(1-s_1) / (2(s_1-1)) is added, and err is twice the
next-order term A_1(N-1) (2N-1)**-s_1 plus twice the drift of the inner sums
beyond N times the tail integral; tail_order=0 keeps the raw partial sum,
with err cap_1 r(s_1).  The float bounds are cap_d = 1, drift_i =
cap_{i+1} r(s_{i+1}), cap_i = A_i(N-1) + drift_i, where r(s) = (2N-1)**-s +
int_N^inf (2x-1)**-s dx (_reach).  All are true upper bounds for inner
exponents >= 2.  An inner exponent 1 (never produced by the even-argument
sums this library verifies) makes the inner sums grow like log n, and the
drift term is then only a one-log-order estimate, not a proven bound.

T(2n,d) sums t(2j_1,...,2j_d) over the compositions of n into d parts.
With x_m = (2m-1)**-2 it is the limit of

    S_k[w](M) = sum over M >= m_1 > ... > m_k >= 1 and j_1+...+j_k = w,
                j_i >= 1, of prod x_{m_i}**j_i          (S_0[0] = 1)

at k = d, w = n, M -> inf.  Adding the index m adds
G_k[w] = sum_{j>=1} x_m**j S_{k-1}[w-j](m-1) = x_m (S_{k-1}[w-1](m-1) + G_k[w-1])
to S_k[w].  T_numeric runs this weight ladder,
``g = (S[k-1][w-1] + g) // (2m-1)**2; S[k][w] += g``, over the cells
1 <= k <= w <= n, in blocks of B indices like t_numeric: per block k
ascending, and per k, w ascending, so that g carries G_k[w-1].  A cell's
g over the block divides the values of S[k-1][w-1] before each index, and
its running sums are the values of S[k][w] before each index that level
k+1 reads; the cells with k = n or w = n feed no later cell, so their g
is only summed; its division by (2m-1)**2 follows the rule below.  One pass
of the top weight n serves every depth of every weight w <= n, because a
cell S[k][w] depends only on cells of weight below w and never on n; it
costs n(n+1)/2 updates per index and O(n*B) memory.  The member bounds
sum by leading part j_1 over the cells S_{d-1}[n-j_1](N-1), with the caps
from the float recursion C_k[w] = S_k[w](N-1) + sum_j r(2j) C_{k-1}[w-j],
C_0[0] = 1, summed over the compositions; so the bound equals the sum of
the member bounds up to float rounding.  Both passes end in _finish, which
converts the fixed-point sum and adds one tail correction and bound per
leading exponent.

Divisions.  Both passes divide a block's values by b**e, b = 2m-1 (e =
s_{i+1} in t_numeric, e = 2 in the ladder), by one rule (_divisors): a
chain of floor divisions by one-digit powers of b whenever at most two of
them make up b**e, otherwise one division by b**e.  CPython divides by one
digit about twice as fast as by several.  The one-digit powers are b**2
while the block's b < 2**15 (it fits one 30-bit digit) and b above, so the
chain serves e <= 4 below 2**15 and e <= 2 above.  Each divisor list is
built once per block; the one-digit divisor b is a list of the block's b,
which the powers of b are built from too, never the block's range: a map
over a range makes a new int for every element on every pass, and over a
list it reads the stored ones (a million-term ladder pass of weight 5 runs
about 5 % faster).

Quantization.  The blocks change only the order in which the floors run:
each floor divides the sum it read one index at a time, as it stood before
its index, by the same divisor.  So every sum is the same integer for any
B, and the bounds below, proved for one index at a time, hold unchanged.
Nor do the chains change a sum: floor(floor(x/a)/c) = floor(x/(ac)) for
integers x >= 0 and a, c >= 1, so a chain yields the integer of one floor
division by b**e, the one floor per division that the bounds count.
Each floor division subtracts some theta in [0, 1) ulp from a linear
recurrence with non-negative coefficients, so every sum falls short
by the thetas, each weighted by how much a unit in it adds to that sum;
index 1 divides by 1 exactly.  With e_v and h_v the elementary and complete
homogeneous symmetric polynomials, cosh(pi z/2) and cos(pi z/2) =
prod_i (1 +- z**2/(2i-1)**2) give sum_{v>=1} e_v(x_2, x_3, ...) < 0.255 and
sum_{v>=1} h_v(x_2, x_3, ...) = 4/pi - 1 < 0.28.

In t_numeric (inner exponents >= 2) a loss in A_i, i >= 1, at index m >= 2
reaches A_0 with weight at most e_i(x_{m+1}, ...) < 0.255, so A_0(N) is
short by less than (N-1)(1 + 0.255(d-1)) ulps and each A_i(N-1) by less
than (N-1)(1 + 0.255(d-2)).  For N >= 2 the finish weights those by less
than 0.52 in all (1/6 + 2/9 in the correction and the a_tail g_1 term, the
drift through r <= 0.28 per level), so the total is below (N-1)(1 + 0.39d)
ulps, a slack of more than (N+1)(1.6d + 1) > 5 of the 2(d+1)(N+1) allowed.

In the ladder a loss in g at cell (k,w) and index m >= 2 adds x_m**i to
S_k[w+i](m) and reaches S_d[n] with weight at most h_{n-w}(x_m, x_{m+1},
...): x_m**(n-w) <= 9**(w-n) for the cells (d,w), below 0.28 for the
(d-1)(n-d+1) cells with k < d.  So S_d[n](N) is short by less than
(N-1)(9/8 + 0.28(d-1)(n-d+1)) ulps, and each inner cell S_k[w](N-1) the
bound uses by less than (4/pi)(N-2) d(n-d+1), which the finish weights by
less than 0.23 in all (for N >= 3; below that they are exact): the total is
below (N+1)(9/8 + 0.6 d(n-d+1)) ulps, and (9/8)(N-1) for d = 1.  T_numeric
keeps the 2(d+1)(N+1) ulps of each of its C(n-1,d-1) >= n-d+1 members, a
slack of more than 2(4.8(n-d+1) - 1.2) ulps for d >= 2 and 5.7 for d = 1.

Rounding.  _finish works at dps+20 digits, p = round((dps+21) log2(10))
bits, so a rounding moves x by at most |x| 2**-p < 0.15|x| ulps at any
scale up to 10**(dps+20), and every number it forms is below 1.28: t(s) <=
e_d(1, x_2, ...) < 1.26 and T(2n,d) <= h_n(1, x_2, ...) <= 4/pi.  The value
takes two roundings in the conversion and seven per tail with a non-zero
inner sum (a zero one adds an exact 0): under 0.19(2 + 7t) ulps for t such
tails, so under 1.8 for t_numeric and for T_numeric at d = 1 (only j_1 =
n), and under 0.4 + 1.4(n-d+1) at d >= 2, each within the slack above.
Rounding err, cap, drift and C moves the bound by a relative 1e-15 at most,
far inside its factor 2 (tail_order=1) or its (2N-1)**-s_1 term
(tail_order=0).  That term is a_tail (2N-1)**-s_1 or more, and for N >= d
a_tail = A_1(N-1) holds the largest term L = prod_{j>=2} (2(d-j)+1)**-s_j,
so t_numeric takes k = min(dps+20, ceil(log10(2(d+1)(N+1)) + s_1
log10(2N-1) - log10(L)) + 16): its 2(d+1)(N+1) ulps stay below 1e-16 of
the bound, inside the rounding above, and the 16 digits absorb the rounding
of the float logarithms.  For N < d, A_1(N-1) = 0 and k = dps+20.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import add, floordiv
from typing import Iterable, Iterator, Sequence

from .exact import PiPower, _check_args, _Frozen, _index

# mpmath is imported inside the functions that use it, so that importing
# the package for exact work never loads it.

__all__ = [
    "DivergentSeriesError",
    "PrecReal",
    "TruncationParams",
    "t_numeric",
    "T_numeric",
    "pi_power_eval",
]

DEFAULT_TERMS = 1_000_000
DEFAULT_DPS = 50
MIN_DPS = 10

# Indices per block of the two passes (see the module docstring): large
# enough that the loops over indices run in C, small enough that a block's
# lists of big integers stay well under a megabyte.
_BLOCK = 512


class DivergentSeriesError(ValueError):
    """Raised when the requested nested series does not converge."""


class PrecReal(_Frozen):
    """A numeric value with a tracked non-negative absolute error bound,
    both mpmath numbers.

    Arithmetic is carried out exactly (sums and differences of binary floats
    are exactly representable), so combining values never loses precision
    regardless of the ambient mpmath context; error bounds add.
    """

    __slots__ = ("value", "err")

    def __init__(self, value: mp.mpf, err: mp.mpf) -> None:
        import mpmath as mp

        if not (err >= 0 and mp.isfinite(err)):
            raise ValueError(f"error bound must be finite and >= 0, got {err}")
        super().__init__(value, err)

    def __sub__(self, other: "PrecReal") -> "PrecReal":
        import mpmath as mp

        return PrecReal(
            mp.fsub(self.value, other.value, exact=True),
            mp.fadd(self.err, other.err, exact=True),
        )


class TruncationParams(_Frozen):
    """Outer-index cutoff N and tail policy for the series oracle
    (tail_order 0: raw partial sum, 1: first-order integral correction)."""

    __slots__ = ("terms", "tail_order")

    def __init__(self, terms: int = DEFAULT_TERMS, tail_order: int = 1) -> None:
        terms, tail_order = _index(terms), _index(tail_order)
        if terms < 1:
            raise ValueError(f"terms must be >= 1, got {terms}")
        if tail_order not in (0, 1):
            raise ValueError(f"tail_order must be 0 or 1, got {tail_order}")
        super().__init__(terms, tail_order)


def _check_dps(dps: int) -> int:
    """dps as a plain int >= MIN_DPS (a float makes the fixed-point scale one)."""
    dps = _index(dps)
    if dps < MIN_DPS:
        raise ValueError(f"precision must be >= {MIN_DPS} digits, got {dps}")
    return dps


def _reach(s: int, N: int) -> float:
    """r(s) = (2N-1)**-s + int_N^inf (2x-1)**-s dx, a float bound on the sum
    of (2n-1)**-s over n >= N; a one-log-order stand-in for s = 1."""
    g = float(2 * N - 1) ** (-s)
    if s >= 2:
        return g + (2 * N - 1) ** (1 - s) / (2 * (s - 1))
    return g + 0.5 * math.log(2 * N + 1)


def _finish(total: int, tails: Sequence[tuple[int, int, float, float]], ulps: int,
            N: int, scale: int, params: TruncationParams, dps: int) -> PrecReal:
    """The fixed-point sum ``total`` as a PrecReal: add the tail correction
    and the bound of each ``(s1, a_tail, drift, cap)``, one per leading
    exponent s1 (a_tail the fixed-point inner sum before index N, drift and
    cap its float bounds), and ``ulps`` units of 1/scale."""
    import mpmath as mp

    with mp.workdps(dps + 20):
        value = mp.mpf(total) / scale
        err = mp.mpf(0)
        for s1, a_tail, drift, cap in tails:
            a_tail = mp.mpf(a_tail) / scale
            g1 = mp.mpf(2 * N - 1) ** (-s1)
            integral = mp.mpf(2 * N - 1) ** (1 - s1) / (2 * (s1 - 1))
            if params.tail_order == 1:
                value += a_tail * integral
                err += 2 * (a_tail * g1 + mp.mpf(drift) * integral)
            else:
                err += mp.mpf(cap) * (g1 + integral)
        # Quantization allowance, whose slack covers the roundings here
        # (see the module docstring).
        err += mp.mpf(ulps) / scale
        return PrecReal(+value, +err)


def _blocks(M: int) -> Iterator[range]:
    """The odd b = 2m-1 of the indices m = 1..M, in ranges of _BLOCK."""
    end = 2 * M + 1
    return (range(b, min(b + 2 * _BLOCK, end), 2) for b in range(1, end, 2 * _BLOCK))


def _divisors(bs: range, exps: Iterable[int]) -> dict[int, tuple[list[int], ...]]:
    """For each exponent e in exps, the divisor lists over the block bs whose
    chained floor divisions divide by b**e: at most two one-digit powers of
    b (b**2 while the block's b < 2**15, b above), else the one list of
    b**e (see the module docstring).  Each list is built once, from one
    list of the block's b."""
    top = 2 if bs[-1] < 1 << 15 else 1  # the highest power of b in one digit
    parts = {e: (top, e - top) if top < e <= 2 * top else (e,) for e in set(exps)}
    b = list(bs)
    lists = {p: b if p == 1 else list(map(pow, b, repeat(p)))
             for p in set().union(*parts.values())}
    return {e: tuple(lists[p] for p in ps) for e, ps in parts.items()}


def _t_block(A: list[int], exps: Sequence[int], bs: range) -> None:
    """Add the indices b in bs to the partial sums A of t_numeric, with
    exponents exps, one level at a time: each level's additions chain the
    floor divisions by its exponent's divisor lists (_divisors), built once
    per block (see the module docstring)."""
    divs = _divisors(bs, exps)
    below = repeat(A[-1])  # A_d before each index
    for i in range(len(exps) - 1, -1, -1):
        q = below
        for div in divs[exps[i]]:
            q = map(floordiv, q, div)
        if i == 0:  # A_0 feeds nothing
            A[0] += sum(q)
        else:
            run = list(accumulate(q, initial=A[i]))
            A[i] = run.pop()
            below = run


def _t_sums(s: Sequence[int], N: int, scale: int) -> tuple[list[int], list[int]]:
    """The fixed-point sums A[i] = A_i of t_numeric for exponents s, before
    and after the last index N (see the module docstring)."""
    d = len(s)
    # Each A_i <= scale (1 + ln(2N-1)/2)**d < scale (2N)**d < 2**cap: b**e
    # and b**cap both floor it to 0 for b >= 3 and are both 1 at b = 1, so
    # the cap is exact.
    cap = scale.bit_length() + d * (2 * N).bit_length()
    exps = [min(e, cap) for e in s]
    A = [0] * d + [scale]
    for bs in _blocks(N - 1):
        _t_block(A, exps, bs)
    inner = A[:]
    _t_block(A, exps, range(2 * N - 1, 2 * N, 2))
    return inner, A


def _t_scale(s: Sequence[int], N: int, dps: int) -> int:
    """The fixed-point scale 10**k of t_numeric: the fewest digits, up to
    dps+20, that keep its quantization allowance below 1e-16 of its bound
    (see Rounding in the module docstring)."""
    d, k = len(s), dps + 20
    if N < d:  # A_1(N-1) = 0
        return 10**k
    # Each e log10(b) with b >= 3 exceeds e/3, so capping e at 3k leaves
    # the min unchanged and every float finite.
    bases = [2 * N - 1] + [2 * (d - j) + 1 for j in range(2, d + 1)]
    digits = math.log10(2 * (d + 1) * (N + 1)) + sum(
        min(e, 3 * k) * math.log10(b) for e, b in zip(s, bases))
    return 10 ** min(k, math.ceil(digits) + 16)


def t_numeric(
    exponents: Sequence[int],
    params: TruncationParams = TruncationParams(),
    dps: int = DEFAULT_DPS,
) -> PrecReal:
    """Evaluate t(s_1,...,s_d) by truncated summation of the defining series.

    Requires integer exponents with s_1 >= 2 (convergence) and s_i >= 1,
    and dps >= MIN_DPS.  The sums run at the scale _t_scale picks, at
    most 10**(dps+20) and as small as the bound allows; dps sets the
    precision of the result.  Cost O(d*N); memory O(d*_BLOCK), whatever N.
    """
    s = [_index(x) for x in exponents]
    dps = _check_dps(dps)
    if not s:
        raise ValueError("empty argument list")
    if any(x < 1 for x in s):
        raise ValueError(f"all exponents must be >= 1, got {s}")
    if s[0] < 2:
        raise DivergentSeriesError(
            "series diverges: the leading exponent must be >= 2"
        )
    N = params.terms
    d = len(s)
    scale = _t_scale(s, N, dps)
    inner, A = _t_sums(s, N, scale)

    # Float upper bounds on the inner sums (cap) and on how far they can
    # still move beyond N (drift); used only for the error bound.
    cap, drift = 1.0, 0.0
    for i in range(d - 1, 0, -1):
        drift = cap * _reach(s[i], N)
        cap = inner[i] / scale + drift
    return _finish(A[0], [(s[0], inner[1], drift, cap)], 2 * (d + 1) * (N + 1),
                   N, scale, params, dps)


def _ladder_block(S: list[list[int]], bs: range) -> None:
    """Add the indices b = 2m-1 in bs to the weight-ladder sums S, k
    ascending (see the module docstring)."""
    n = len(S) - 1
    divs = _divisors(bs, (2,))[2]
    below = {0: repeat(S[0][0])}  # S_0[w] before each index; 0 for w >= 1
    for k in range(1, n + 1):
        row, before, g = S[k], {}, None
        for w in range(k, n + 1):
            x = below.get(w - 1)  # None for S_0[w-1] = 0
            if g is not None:
                x = g if x is None else map(add, x, g)
            q = x
            for div in divs:
                q = map(floordiv, q, div)
            if w == n:  # feeds no later cell
                row[w] += sum(q)
            else:
                g = list(q)
                run = list(accumulate(g, initial=row[w]))
                row[w] = run.pop()
                before[w] = run
        below = before


def _weight_ladder(n: int, N: int, scale: int) -> tuple[list[list[int]], list[list[int]]]:
    """The fixed-point sums S[k][w] for 0 <= k <= w <= n, before and after
    the last index N (see the module docstring)."""
    S = [[scale] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    for bs in _blocks(N - 1):
        _ladder_block(S, bs)
    inner = [row[:] for row in S]
    _ladder_block(S, range(2 * N - 1, 2 * N, 2))
    return inner, S


# The finished rows of every weight up to the top weight of the last ladder
# pass, per (terms, tail_order, dps): _rows[key][w-1][d-1] is T(2w,d).  The
# key holds the fields of TruncationParams rather than the instance, whose
# __hash__ is a Python call.
_rows: dict[tuple[int, int, int], tuple[tuple[PrecReal, ...], ...]] = {}


def _weight_rows(n: int, params: TruncationParams, dps: int) -> tuple[tuple[PrecReal, ...], ...]:
    """T(2w,d) for 1 <= d <= w <= n from one pass of the weight ladder of
    weight n, stored in _rows."""
    N = params.terms
    scale = 10 ** (dps + 20)
    inner, S = _weight_ladder(n, N, scale)

    # Drift bounds in floats: C[k][w] sums the caps of t_numeric over the
    # compositions of w into k parts and D[k][w] their drifts.
    r = [0.0] + [_reach(2 * j, N) for j in range(1, n + 1)]
    C = [[1.0] + [0.0] * n]
    D = [[0.0] * (n + 1)]
    for k in range(1, n):
        D.append([sum(r[j] * C[k - 1][w - j] for j in range(1, w + 1)) for w in range(n + 1)])
        C.append([inner[k][w] / scale + D[k][w] for w in range(n + 1)])

    # One tail per leading part j = j_1, and the quantization allowance of
    # the C(w-1,d-1) per-composition passes, which covers the ladder's.
    rows = tuple(
        tuple(
            _finish(
                S[d][w],
                [(2 * j, inner[d - 1][w - j], D[d - 1][w - j], C[d - 1][w - j])
                 for j in range(1, w - d + 2)],
                math.comb(w - 1, d - 1) * 2 * (d + 1) * (N + 1),
                N, scale, params, dps,
            )
            for d in range(1, w + 1)
        )
        for w in range(1, n + 1)
    )
    _rows[params.terms, params.tail_order, dps] = rows
    return rows


def T_numeric(
    n: int,
    d: int,
    params: TruncationParams = TruncationParams(),
    dps: int = DEFAULT_DPS,
) -> PrecReal:
    """T(2n,d), the sum of t(2j_1,...,2j_d) over the compositions of n into
    d parts, from the weight-ladder pass of the highest weight asked for so
    far, which serves every depth of every lower weight (memoized).  The
    bound equals the sum of the t_numeric member bounds up to float
    rounding.  Requires integers n, d >= 1 and dps >= MIN_DPS.  A memoized
    cell asked for with an int dps costs one dict lookup; any other call
    checks n, d (_check_args) and dps (_check_dps) before any work, then
    reads the memo, so a float or Fraction dps is refused, memoized or not.
    Cost O(n**2 * N) per new top weight."""
    # A hit is one dict lookup on a key of plain fields, with no Python-level
    # call (hashing params itself would make one).  Of the n and d that
    # _index refuses, only True passes the comparisons and the index.  A
    # float or Fraction dps hashes like the equal int and would find its
    # row, so the key holds dps | 0: dps itself for an int, a TypeError for
    # a float or Fraction.  On the first calls of a process it costs about
    # a third of what a test of type(dps) does.
    try:
        rows = _rows.get((params.terms, params.tail_order, dps | 0), ())
        if 1 <= d <= n <= len(rows) and n is not True and d is not True:
            return rows[n - 1][d - 1]
    except TypeError:
        pass
    n, d = _check_args(n, d)
    dps = _check_dps(dps)
    if d > n:
        import mpmath as mp

        return PrecReal(mp.mpf(0), mp.mpf(0))
    rows = _rows.get((params.terms, params.tail_order, dps), ())
    if n <= len(rows):
        return rows[n - 1][d - 1]
    return _weight_rows(n, params, dps)[n - 1][d - 1]


def pi_power_eval(x: PiPower, dps: int = DEFAULT_DPS) -> PrecReal:
    """Evaluate coeff * pi**pi_exp at the requested precision.

    The error bound reflects rounding only.
    """
    import mpmath as mp

    dps = _check_dps(dps)
    with mp.workdps(dps + 5):
        value = mp.mpf(x.coeff.numerator) / x.coeff.denominator * mp.pi**x.pi_exp
        err = abs(value) * mp.mpf(10) ** (2 - dps)
        return PrecReal(+value, +err)
