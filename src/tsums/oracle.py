"""Brute-force numeric evaluation of the defining series, with error bounds.

t(s_1,...,s_d) = sum over n_1 > ... > n_d >= 1 of prod (2n_i - 1)**-s_i.
t_numeric sums it over the indices m = 1..N, keeping the d+1 partial sums
A_i(m) over m >= n_{i+1} > ... > n_d of prod_{j>i} (2n_j - 1)**-s_j
(A_d = 1): index m adds A_{i+1}(m-1) (2m-1)**-s_{i+1} to A_i, reading
A_{i+1} before index m adds to it (the indices stay strict): per index
the levels run i = 0 up to d-1, each adding a floor division of A_{i+1}
by (2m-1)**s_{i+1} (see Divisions).  A_0(N) is the partial sum; the
inner sums A_i(N-1), kept from before the last index, feed the bound.
Cost O(d*N), memory O(d), whatever N.  Both passes run in fixed-point
integers; one ulp is one unit of the scale, 10**(dps+20) in the ladder
and 10**k <= 10**(dps+20) in t_numeric (_t_scale, see Scale).

Tail (tail_order=1): when the inner exponents are >= 2 the inner sums
increase to a finite limit, so the first-order integral correction
a_tail (2N-1)**(1-s_1) / (2(s_1-1)), a_tail = A_1(N-1), is added, and err
is twice the next-order term a_tail g_1, g_1 = (2N-1)**-s_1, plus twice the
drift of the inner sums beyond N times the tail integral; tail_order=0
keeps the raw partial sum, with err cap_1 r(s_1).  The bounds are exact
rationals: cap_d = 1, drift_i = cap_{i+1} r(s_{i+1}), cap_i = A_i(N-1) +
drift_i, where r(s) = (2N-1)**-s + int_N^inf (2x-1)**-s dx = (2N-1)**-s +
(2N-1)**(1-s)/(2(s-1)) (_tails).  All are true upper bounds for inner
exponents >= 2.  An inner exponent 1 (never produced by the even-argument
sums this library verifies) makes the inner sums grow like log n; r(1) is
then the exact value of the float 1/(2N-1) + log(2N+1)/2, and the drift
term only a one-log-order estimate, not a proven bound.

T(2n,d) sums t(2j_1,...,2j_d) over the compositions of n into d parts.
With x_m = (2m-1)**-2 it is the limit of

    S_k[w](M) = sum over M >= m_1 > ... > m_k >= 1 and j_1+...+j_k = w,
                j_i >= 1, of prod x_{m_i}**j_i          (S_0[0] = 1)

at k = d, w = n, M -> inf.  Adding the index m adds
G_k[w] = sum_{j>=1} x_m**j S_{k-1}[w-j](m-1) = x_m (S_{k-1}[w-1](m-1) + G_k[w-1])
to S_k[w].  T_numeric runs this weight ladder,
``g = (S[k-1][w-1] + g) // (2m-1)**2; S[k][w] += g``, over the cells
1 <= k <= w <= n: per index k descending, so that S[k-1] still holds
the sums before the index, and per k, w ascending, so that g carries
G_k[w-1].  One pass of the top weight n serves every depth of every
weight w <= n, because a cell S[k][w] depends only on cells of weight
below w and never on n; it costs n(n+1)/2 updates per index and O(n**2)
memory.  The member bounds sum by leading part j_1 over the cells
S_{d-1}[n-j_1](N-1), with the caps from the exact recursion C_k[w] =
S_k[w](N-1) + sum_j r(2j) C_{k-1}[w-j], C_0[0] = 1, summed over the
compositions; so the bound is the sum of the member bounds, read off the
ladder's sums.  Both passes end in _finish, which adds one tail
correction and bound per leading exponent to the fixed-point sum and
converts once (see Conversion).

Divisions.  Both passes divide by b**e, b = 2m-1 (e = s_{i+1} in
t_numeric, e = 2 in the ladder), by one rule per index: a chain of floor
divisions by one-digit powers of b whenever at most two of them make up
b**e, otherwise one division by b**e.  CPython divides by one digit about
twice as fast as by several.  The one-digit powers are q = b**2 while b <
2**15 (it fits one 30-bit digit) and b above, so the chain serves e <= 4
below 2**15 and e <= 2 above.  Each loop builds every power its divisions
name once per index, shared by all its chains, by products of lower
powers already built: q = b*b, the square of b**(e/2) for even e and
b**(e-1) * b for odd e (a product costs about 25 ns, b**e 90-120 ns).

Kernels.  An index costs each pass only a few big-integer operations, so
interpreting the pass's shape per index (loops over levels or cells, list
indexing, picking each divisor) would add about half as much again.  Each
pass runs as one function generated for its shape (_kernel_source): one
loop over the indices below 2**15 and one from 2**15 on, each with the
pass's divisions, by the rule above, and additions written out in order on
local variables.  A kernel is compiled once per vector of capped
exponents (see Cap) of t_numeric and once per top weight of the ladder;
its source is built from ints only.

Quantization.  The chains do not change a sum: floor(floor(x/a)/c) =
floor(x/(ac)) for integers x >= 0 and a, c >= 1.  Each floor division
subtracts some theta in [0, 1) ulp from a linear recurrence with
non-negative coefficients, so every sum falls short by the thetas, each
weighted by how much a unit in it adds to that sum; index 1 divides by 1
exactly.  With e_v and h_v the elementary and complete homogeneous
symmetric polynomials, cosh(pi z/2) and cos(pi z/2) = prod_i (1 +-
z**2/(2i-1)**2) give sum_{v>=1} e_v(x_2, x_3, ...) < 0.255 and
sum_{v>=1} h_v(x_2, x_3, ...) = 4/pi - 1 < 0.28.

In t_numeric (inner exponents >= 2) a loss in A_i, i >= 1, at index m >= 2
reaches A_0 with weight at most e_i(x_{m+1}, ...) < 0.255, so A_0(N) is
short by less than (N-1)(1 + 0.255(d-1)) ulps and each A_i(N-1) by less
than (N-1)(1 + 0.255(d-2)).  For N >= 2 the finish weights those by less
than 0.52 in all (1/6 + 2/9 in the correction and the a_tail g_1 term, the
drift through r <= 0.28 per level), so the total is below (N-1)(1 + 0.39d)
ulps, within the 2(d+1)(N+1) allowed.

In the ladder a loss in g at cell (k,w) and index m >= 2 adds x_m**i to
S_k[w+i](m) and reaches S_d[n] with weight at most h_{n-w}(x_m, x_{m+1},
...): x_m**(n-w) <= 9**(w-n) for the cells (d,w), below 0.28 for the
(d-1)(n-d+1) cells with k < d.  So S_d[n](N) is short by less than
(N-1)(9/8 + 0.28(d-1)(n-d+1)) ulps, and each inner cell S_k[w](N-1) the
bound uses by less than (4/pi)(N-2) d(n-d+1), which the finish weights by
less than 0.23 in all (for N >= 3; below that they are exact): the total is
below (N+1)(9/8 + 0.6 d(n-d+1)) ulps, within the 2(d+1)(N+1) of each of
T_numeric's C(n-1,d-1) >= n-d+1 members.

Cap.  Each A_i < scale (2N)**d <= 2**cap, cap = bitlen(scale) + d
bitlen(2N) (_cap), so an exponent above cap changes no sum of the pass:
b**e and b**cap both floor A_i to 0 for b >= 3 and are both 1 at b = 1.
The finish caps the exponents of its powers of 2N-1 the same way, keeping
2(s-1), so no power grows without limit.  That only raises g_1, the
integral and r, and moves the correction by less than scale a_tail
(2N-1)**(1-cap) < (2/3)**cap ulps (a_tail < (2N)**(d-1), and 2N-1 >= 3
wherever a power changes), inside the slack of the quantization allowance.

Cut.  At depth 1 the pass adds scale // b**e per index, e = min(s_1,
cap), and b**e > 2**(ke) >= 2**bitlen(scale) > scale for every odd b >
2**k, k = ceil(bitlen(scale)/e), so every index from there on adds 0.
_t_sums ends both kernel calls at b = 2**k, and the sums are those of
all N indices: t(16) at scale 10**70 runs its first 16384 indices only.

Conversion.  _finish sums the value and err exactly, as integers over
scale Q**d, and converts once by PrecReal._exact: at dps+20 digits, p
bits, the value to nearest and err rounding up, plus 2**(1-p) |value|
unless the value converts exactly.  So the reported err bounds the
reported value's distance from t(s) or T(2n,d) whenever the exact err
bounds the exact value's.  Q is a common denominator of every g, integral
and r (_tails), and a bound with j factors r is an integer over scale Q**j.

Scale.  The bound's a_tail g_1 part (2 a_tail g_1, or cap_1 g_1 at
tail_order=0) is a_tail (2N-1)**-s_1 or more, and for N >= d a_tail holds
the largest term L = prod_{j>=2} (2(d-j)+1)**-s_j, so t_numeric takes
k = min(dps+20, ceil(log10(2(d+1)(N+1)) + s_1 log10(2N-1) - log10(L)) +
16): its 2(d+1)(N+1) ulps stay below 1e-16 of the bound, and the 16
digits absorb the rounding of the float logarithms.  For N < d, a_tail =
0 and k = dps+20.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

from .exact import PiPower, _at_least, _check_args, _Frozen, _index

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

    @classmethod
    def _exact(cls, num: int, err_num: int, den: int, dps: int) -> "PrecReal":
        """num/den with the bound err_num/den (integers, den >= 1) at dps+20
        digits (p bits): the value to nearest, the error rounding up, plus
        2**(1-p) |value| unless the value converts exactly.  The one
        conversion of the oracle's finish."""
        import mpmath as mp

        with mp.workdps(dps + 20):
            value = mp.fdiv(num, den)
            err = mp.fdiv(err_num, den, rounding="u")
            if mp.fmul(value, den, exact=True) != num:
                err = mp.fadd(err, mp.ldexp(abs(value), 1 - mp.mp.prec), rounding="u")
            return cls(value, err)

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
        terms, tail_order = _at_least(terms, 1, "terms"), _index(tail_order)
        if tail_order not in (0, 1):
            raise ValueError(f"tail_order must be 0 or 1, got {tail_order}")
        super().__init__(terms, tail_order)


def _check_dps(dps: int) -> int:
    """dps as a plain int >= MIN_DPS (a float makes the fixed-point scale one)."""
    dps = _index(dps)
    if dps < MIN_DPS:
        raise ValueError(f"precision must be >= {MIN_DPS} digits, got {dps}")
    return dps


def _tails(exps: Sequence[int], N: int, cap: float = math.inf) -> tuple[int, dict]:
    """Q, a common denominator of the tail parts of every exponent s in
    exps, and for each s the pair Q g, Q integral of g = (2N-1)**-s and
    int_N^inf (2x-1)**-s dx = (2N-1)**(1-s)/(2(s-1)), the exponent of each
    power of 2N-1 capped at cap (see Cap in the module docstring), whose
    sum is Q r(s).  For s = 1 the pair is 0 and Q times the exact value of
    the one-log-order stand-in for r(1), the float 1/(2N-1) + log(2N+1)/2."""
    b = 2 * N - 1
    num, den = (1 / b + math.log(2 * N + 1) / 2).as_integer_ratio()
    Q = 2 * math.lcm(*(s - 1 if s >= 2 else den for s in exps)) * b ** max(
        min(s, cap) for s in exps)
    parts = {1: (0, Q // den * num)}
    for s in exps:
        if s >= 2:
            power = b ** (min(s, cap) - 1)
            parts[s] = Q // (power * b), Q // (2 * (s - 1) * power)
    return Q, parts


def _cap(d: int, N: int, scale: int) -> int:
    """The exponent cap of t_numeric at depth d, N terms and this scale
    (see Cap in the module docstring)."""
    return scale.bit_length() + d * (2 * N).bit_length()


def _finish(total: int, tails: Sequence[tuple[int, int, int, int]], ulps: int,
            scale: int, den: int, tail_order: int, dps: int) -> PrecReal:
    """The fixed-point sum ``total`` as a PrecReal: add the tail correction
    and the bound of each ``(a_tail, drift, g1, integral)``, one per leading
    exponent s1 (a_tail the inner sum before index N, drift its bound on
    how far that sum moves beyond N, g1 and the integral of s1 from
    _tails), whose products are integers over den, and ``ulps`` units of
    1/scale, then convert once (see Conversion in the module docstring)."""
    value = err = 0
    for a_tail, drift, g1, integral in tails:
        if tail_order == 1:
            value += a_tail * integral
            err += 2 * (a_tail * g1 + drift * integral)
        else:
            err += (a_tail + drift) * (g1 + integral)
    unit = den // scale
    return PrecReal._exact(total * unit + value, ulps * unit + err, den, dps)


# The division by b**e (see Divisions in the module docstring) for b <
# 2**15 and from 2**15 on, as the exponents of the one-digit powers it
# chains; any other e divides once by b**e.
_RULES = (
    ("range(lo, min(hi, 32769), 2)", {1: (1,), 2: (2,), 3: (2, 1), 4: (2, 2)}),
    ("range(max(lo, 32769), hi, 2)", {1: (1,), 2: (1, 1)}),
)


def _power(e: int) -> str:
    """The name of b**e in a kernel: b, q = b*b, else b<e>."""
    return "b" if e == 1 else "q" if e == 2 else f"b{e}"


def _power_lines(exps: set[int]) -> list[str]:
    """The lines that build b**e for each e in exps, lowest first, each power
    from lower ones: the square of b**(e/2) for even e, else b**(e-1) * b."""
    built = set()
    for e in exps:
        while e > 1 and e not in built:
            built.add(e)
            e = e - 1 if e % 2 else e // 2
    return [f"{_power(e)} = {_power(e // 2)} * {_power(e // 2)}" if e % 2 == 0
            else f"{_power(e)} = {_power(e - 1)} * b" for e in sorted(built)]


def _kernel_source(slots: int, chains: tuple[tuple[int, tuple[tuple[int | None, int], ...]], ...]) -> str:
    """The source of kernel(x, lo, hi), which adds the indices b = lo,
    lo+2, ... below hi to the state x of slots ints and returns the new
    state.  Per index, each chain (e, steps) in turn carries one quotient g
    along its steps (src, dst): g = (x[src] + g) // b**e, x[dst] += g, where
    x[None] and g before the first step are 0.  Each loop builds every
    power its divisions name once per index (_power_lines).  Its text comes
    from _RULES and the ints of slots and chains only."""
    state = ", ".join(f"x{i}" for i in range(slots))
    lines = ["def kernel(x, lo, hi):", f"    {state}, = x"]
    for loop, rule in _RULES:
        factors = [rule.get(e, (e,)) for e, _ in chains]
        lines.append(f"    for b in {loop}:")
        lines += [f"        {line}" for line in _power_lines({f for fs in factors for f in fs})]
        for fs, (_, steps) in zip(factors, chains):
            div = " // ".join(map(_power, fs))
            for j, (src, dst) in enumerate(steps):
                x = f"x{src}" if j == 0 else "g" if src is None else f"(x{src} + g)"
                if j == len(steps) - 1:
                    lines.append(f"        x{dst} += {x} // {div}")
                else:
                    lines += [f"        g = {x} // {div}", f"        x{dst} += g"]
    lines.append(f"    return [{state}]")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=256)
def _kernel(slots: int, chains: tuple) -> Callable:
    """The kernel of _kernel_source(slots, chains), compiled once per shape."""
    namespace: dict = {}
    exec(compile(_kernel_source(slots, chains), "<oracle kernel>", "exec"), namespace)
    return namespace["kernel"]


def _t_sums(s: Sequence[int], N: int, scale: int) -> tuple[list[int], list[int]]:
    """The fixed-point sums A[i] = A_i of t_numeric for exponents s, before
    and after the last index N (see the module docstring)."""
    d = len(s)
    exps = [min(e, _cap(d, N, scale)) for e in s]
    end = 2 * N + 1
    if d == 1:  # every index from b = 2**ceil(bitlen(scale)/e) on adds 0 (see Cut)
        end = min(end, 1 << -(-scale.bit_length() // exps[0]))
    kernel = _kernel(d + 1, tuple((e, ((i + 1, i),)) for i, e in enumerate(exps)))
    inner = kernel([0] * d + [scale], 1, min(2 * N - 1, end))
    return inner, kernel(inner, 2 * N - 1, end)


def _t_scale(s: Sequence[int], N: int, dps: int) -> int:
    """The fixed-point scale 10**k of t_numeric: the fewest digits, up to
    dps+20, that keep its quantization allowance below 1e-16 of its bound
    (see Scale in the module docstring)."""
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
    precision of the result.  err is absolute at that scale, so a value
    below about 10**-(dps+20) carries no significant digits.
    Cost O(d*N); memory O(d), whatever N.
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
    scale = _t_scale(s, N, dps)
    return _t_finish(s, *_t_sums(s, N, scale), N, scale, params, dps)


def _t_finish(s: Sequence[int], inner: list[int], A: list[int], N: int, scale: int,
              params: TruncationParams, dps: int) -> PrecReal:
    """t_numeric's finish of its fixed-point sums A, and A before the last
    index (inner): the exact drift_i = (A_{i+1}(N-1) + drift_{i+1})
    r(s_{i+1}), with the exponents capped (_cap), then _finish."""
    d = len(s)
    Q, parts = _tails(s, N, _cap(d, N, scale))
    drift, q = 0, 1  # drift over scale * q
    for i in range(d - 1, 0, -1):
        drift = (inner[i + 1] * q + drift) * sum(parts[s[i]])
        q *= Q
    return _finish(A[0], [(inner[1] * q, drift, *parts[s[0]])], 2 * (d + 1) * (N + 1),
                   scale, scale * q * Q, params.tail_order, dps)


def _weight_ladder(n: int, N: int, scale: int) -> tuple[list[list[int]], list[list[int]]]:
    """The fixed-point sums S[k][w] for 0 <= k <= w <= n, before and after
    the last index N (see the module docstring), from one kernel over the
    cells S[k][w] at k*(n+1) + w, k descending and w ascending."""
    m = n + 1
    kernel = _kernel(m * m, tuple(
        (2, tuple((None if k == 1 and w > 1 else (k - 1) * m + w - 1, k * m + w) for w in range(k, m)))
        for k in range(n, 0, -1)))
    inner = kernel([scale] + [0] * (m * m - 1), 1, 2 * N - 1)
    final = kernel(inner, 2 * N - 1, 2 * N + 1)
    return tuple([x[i:i + m] for i in range(0, m * m, m)] for x in (inner, final))


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

    # Exact drift bounds, over scale * Q**k: D[k][w] sums the drifts of
    # t_numeric over the compositions of w into k parts, and C[k][w] =
    # S_k[w](N-1) + D[k][w] their caps (both 0 for w < k).
    Q, parts = _tails(range(2, 2 * n + 1, 2), N)
    Qk = [Q**k for k in range(n + 1)]
    r = [0] + [sum(parts[2 * j]) for j in range(1, n + 1)]
    C = [inner[0]]
    D = [[0] * (n + 1)]
    for k in range(1, n):
        D.append([sum(r[j] * C[k - 1][w - j] for j in range(1, w - k + 2)) for w in range(n + 1)])
        C.append([x * Qk[k] + y for x, y in zip(inner[k], D[k])])

    # One tail per leading part j = j_1, and the quantization allowance of
    # the C(w-1,d-1) per-composition passes, which covers the ladder's.
    rows = tuple(
        tuple(
            _finish(
                S[d][w],
                [(inner[d - 1][w - j] * Qk[d - 1], D[d - 1][w - j], *parts[2 * j])
                 for j in range(1, w - d + 2)],
                math.comb(w - 1, d - 1) * 2 * (d + 1) * (N + 1),
                scale, scale * Qk[d], params.tail_order, dps,
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
    bound is the sum of the t_numeric member bounds, read off the ladder's
    sums, before the one conversion.  Requires integers n, d >= 1 and dps
    >= MIN_DPS.  A memoized cell asked for with an int dps costs one dict
    lookup; any other call checks n, d (_check_args) and dps (_check_dps)
    before any work, then reads the memo, so a float or Fraction dps is
    refused, memoized or not.  Cost O(n**2 * N) per new top weight, memory
    O(n**2) whatever N."""
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
        return PrecReal._exact(0, 0, 1, dps)
    rows = _rows.get((params.terms, params.tail_order, dps), ())
    if n <= len(rows):
        return rows[n - 1][d - 1]
    return _weight_rows(n, params, dps)[n - 1][d - 1]


def pi_power_eval(x: PiPower, dps: int = DEFAULT_DPS) -> PrecReal:
    """Evaluate coeff * pi**pi_exp at the requested precision.

    x is exact, so err = |value| 10**(2-dps) bounds only rounding.  The
    value takes five roundings at dps+5 digits, p bits with 2**-p <
    10**-(dps+5): the numerator's conversion, the division, pi, its power
    and the product.  Each is within 2**(1-p) relatively, by mpmath's
    correct rounding (pi and the power from guard bits), which
    ``PrecReal._exact`` relies on too.  Together they stay within
    6 * 2**(1-p) < 1.2 * 10**-(dps+4) of |value|, a millionth of err.
    """
    import mpmath as mp

    dps = _check_dps(dps)
    with mp.workdps(dps + 5):
        value = mp.mpf(x.coeff.numerator) / x.coeff.denominator * mp.pi**x.pi_exp
        err = abs(value) * mp.mpf(10) ** (2 - dps)
        return PrecReal(+value, +err)
