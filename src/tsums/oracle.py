"""Brute-force numeric evaluation of the defining series, with error bounds.

t(s_1,...,s_d) = sum over n_1 > ... > n_d >= 1 of
prod 1/(2n_i - 1)**s_i.  The nested sum is evaluated inside-out by dynamic
programming in O(d*N) operations:

    A_0(n) = 1
    A_k(n) = sum_{m<n} A_{k-1}(m) / (2m-1)**s_{d-k+1}
    result = sum_{n<=N} A_{d-1}(n) / (2n-1)**s_1  (+ tail correction)

The bulk loop runs in fixed-point integers scaled by 10**(dps+20); each
floor division loses at most one ulp and the total quantization loss is
folded into the reported error bound.  Values convert to mpmath floats at
the requested precision only at the edges.

Tail handling (tail_order=1): the inner partial sums A_{d-1}(n) increase to
a finite limit when all inner exponents are >= 2, so the dominant tail is
A_{d-1}(N) times the tail of sum (2n-1)**(-s_1); the first-order integral
correction A_{d-1}(N) * (2N-1)**(1-s_1) / (2(s_1-1)) is added, and err is
set to twice the next-order term (the sum-vs-integral discrepancy bound
A(N)*(2N-1)**(-s_1)) plus twice the drift of the inner sums beyond N times
the tail integral.  Both pieces are true upper bounds for inner exponents
>= 2.  For arguments with inner exponents equal to 1 (never produced by the
even-argument sums this library verifies) the inner sums grow like log n
and the drift term is only a one-log-order estimate, not a proven bound.

T(2n,d) sums t(2j_1,...,2j_d) over the compositions of n into d parts.
With x_m = (2m-1)**-2 it is the limit of

    S_k[w](M) = sum over M >= m_1 > ... > m_k >= 1 and j_1+...+j_k = w,
                j_i >= 1, of prod x_{m_i}**j_i          (S_0[0] = 1)

at k = d, w = n, M -> inf.  Adding the index m adds
G_k[w] = sum_{j>=1} x_m**j S_{k-1}[w-j](m-1) = x_m (S_{k-1}[w-1](m-1) + G_k[w-1])
to S_k[w].  T_numeric runs this weight ladder in the same fixed-point
integers, ``g = (S[k-1][w-1] + g) // (2m-1)**2; S[k][w] += g``, over the
cells 1 <= k <= w <= n: k descending, so that S[k-1] still holds the sums
over indices below m (the indices stay strict), and w ascending, so that g
carries G_k[w-1].  One pass over m = 1..N gives every depth of weight n in
n(n+1)/2 updates per index and O(n**2) memory.

Grouped bound.  The bound of each member t(2j_1,...) depends on its leading
part j_1 and on inner sums before the last index N, so the member bounds sum
by j_1 over the cells S_{d-1}[n-j_1](N-1): the tail correction and the
a_tail*g_1 term come from them directly, and the drift from the float
recursion C_k[w] = S_k[w](N-1) + sum_j r(2j) C_{k-1}[w-j], C_0[0] = 1,
r(s) = (2N-1)**-s + _tail_integral(s, N), whose cells are the member caps
summed over the compositions of w into k parts.  The grouped bound equals
the sum of the member bounds up to float rounding.

Quantization.  Each floor division subtracts some theta in [0, 1) ulp from a
recurrence that is otherwise exact, linear and has non-negative coefficients,
so every cell is short of its exact scaled value by the sum of the thetas,
each weighted by how much a unit in it adds to that cell.  Index 1 divides by
1 exactly.  A loss in g at cell (k,w) and index m >= 2 adds x_m**i to
S_k[w+i](m) and then reaches S_d[n] through indices above m, so its weight
is at most h_{n-w}(x_m, x_{m+1}, ...), with h_v the complete homogeneous
symmetric polynomial.  Since sum_v h_v(x_2, x_3, ...) = prod_{i>=2}
(1 - x_i)**-1 = 4/pi (cos(pi z/2) = prod_i (1 - z**2/(2i-1)**2) at z -> 1),
that weight is x_m**(n-w) <= 9**(w-n) for the cells (d,w) and at most
4/pi - 1 < 0.28 for the (d-1)(n-d+1) cells with k < d that reach (d,n).
So S_d[n](N) is short by less than (N-1)(9/8 + 0.28 (d-1)(n-d+1)) ulps, and
each inner cell S_k[w](N-1) the bound uses by less than
(4/pi)(N-2) d(n-d+1).  The tail correction and the bound terms weight those
inner cells by less than 0.23 in all (for N >= 3; below that they are
exact), so the total is below (N+1)(9/8 + 0.6 d(n-d+1)) ulps, and below
(9/8)(N-1) for d = 1.  Both lie within the 2(d+1)(N+1) ulps per composition
that the member bounds allow, since there are C(n-1,d-1) >= n-d+1
compositions for d >= 2; T_numeric keeps that allowance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import mpmath as mp

from .exact import PiPower

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


@dataclass(frozen=True)
class PrecReal:
    """A numeric value with a tracked non-negative absolute error bound.

    Arithmetic is carried out exactly (sums and products of binary floats
    are exactly representable), so combining values never loses precision
    regardless of the ambient mpmath context; error bounds add.
    """

    value: mp.mpf
    err: mp.mpf

    def __post_init__(self) -> None:
        if not (self.err >= 0 and mp.isfinite(self.err)):
            raise ValueError(f"error bound must be finite and >= 0, got {self.err}")

    def __add__(self, other: "PrecReal") -> "PrecReal":
        return PrecReal(
            mp.fadd(self.value, other.value, exact=True),
            mp.fadd(self.err, other.err, exact=True),
        )

    def __sub__(self, other: "PrecReal") -> "PrecReal":
        return PrecReal(
            mp.fsub(self.value, other.value, exact=True),
            mp.fadd(self.err, other.err, exact=True),
        )

    def __mul__(self, other: "PrecReal") -> "PrecReal":
        a, b = abs(self.value), abs(other.value)
        err = mp.fadd(
            mp.fadd(
                mp.fmul(a, other.err, exact=True),
                mp.fmul(b, self.err, exact=True),
                exact=True,
            ),
            mp.fmul(self.err, other.err, exact=True),
            exact=True,
        )
        return PrecReal(mp.fmul(self.value, other.value, exact=True), err)

    def __neg__(self) -> "PrecReal":
        return PrecReal(-self.value, self.err)

    def agrees_with(self, x) -> bool:
        """Whether x lies within this value's error bound."""
        return abs(mp.fsub(self.value, x, exact=True)) <= self.err


@dataclass(frozen=True)
class TruncationParams:
    """Outer-index cutoff N and tail policy for the series oracle."""

    terms: int = DEFAULT_TERMS
    tail_order: int = 1  # 0: raw partial sum, 1: first-order integral correction

    def __post_init__(self) -> None:
        if self.terms < 1:
            raise ValueError(f"terms must be >= 1, got {self.terms}")
        if self.tail_order not in (0, 1):
            raise ValueError(f"tail_order must be 0 or 1, got {self.tail_order}")


def _tail_integral(s: int, N: int) -> float:
    # int_N^inf (2x-1)**(-s) dx for s >= 2; one-log-order stand-in for s = 1.
    if s >= 2:
        return (2 * N - 1) ** (1 - s) / (2 * (s - 1))
    return 0.5 * math.log(2 * N + 1)


def t_numeric(
    exponents: Sequence[int],
    params: TruncationParams | None = None,
    dps: int = DEFAULT_DPS,
) -> PrecReal:
    """Evaluate t(s_1,...,s_d) by truncated summation of the defining series.

    Requires s_1 >= 2 (convergence) and s_i >= 1.  Cost O(d * N).
    """
    s = [int(x) for x in exponents]
    if not s:
        raise ValueError("empty argument list")
    if any(x < 1 for x in s):
        raise ValueError(f"all exponents must be >= 1, got {s}")
    if s[0] < 2:
        raise DivergentSeriesError(
            "series diverges: the leading exponent must be >= 2"
        )
    if params is None:
        params = TruncationParams()
    N = params.terms
    d = len(s)
    scale = 10 ** (dps + 20)

    # Upper bounds (plain floats) on the inner-sum limits and on how far the
    # inner sums can still move beyond N; used only for the error bound.
    cap = 1.0  # bound on sup_n A_k(n)
    drift = 0.0  # bound on A_k(inf) - A_k(N)

    if d == 1:
        a_last = scale
        total = 0
        for n in range(1, N + 1):
            total += scale // (2 * n - 1) ** s[0]
    else:
        A = [scale] * (N + 1)
        for k in range(1, d):
            sk = s[d - k]
            acc = 0
            for n in range(1, N + 1):
                old = A[n]
                A[n] = acc
                acc += old // (2 * n - 1) ** sk
            g = float((2 * N - 1)) ** (-sk)
            drift = cap * (g + _tail_integral(sk, N))
            cap = A[N] / scale + drift
        a_last = A[N]
        s1 = s[0]
        total = 0
        for n in range(1, N + 1):
            total += A[n] // (2 * n - 1) ** s1

    with mp.workdps(dps + 10):
        value = mp.mpf(total) / scale
        a_tail = mp.mpf(a_last) / scale
        g1 = mp.mpf(2 * N - 1) ** (-s[0])
        integral = mp.mpf(2 * N - 1) ** (1 - s[0]) / (2 * (s[0] - 1))
        if params.tail_order == 1:
            value += a_tail * integral
            err = 2 * (a_tail * g1 + mp.mpf(drift) * integral)
        else:
            err = mp.mpf(cap) * (g1 + integral)
        # Fixed-point quantization: one ulp per floor division.
        err += mp.mpf(2 * (d + 1) * (N + 1)) / scale
        return PrecReal(+value, +err)


def _weight_ladder(n: int, N: int, scale: int) -> tuple[list[list[int]], list[list[int]]]:
    """The fixed-point sums S[k][w] for 0 <= k <= w <= n, before and after
    the last index N (see the module docstring)."""
    S = [[scale] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    # k descending: S[k-1] still holds the sums over indices below m.
    ladder = [(S[k - 1], S[k], range(k, n + 1)) for k in range(n, 0, -1)]
    for m in range(1, N + 1):
        if m == N:
            inner = [row[:] for row in S]
        q = (2 * m - 1) ** 2
        for prev, row, weights in ladder:
            g = 0
            for w in weights:
                g = (prev[w - 1] + g) // q
                row[w] += g
    return inner, S


@lru_cache(maxsize=None)
def _weight_row(n: int, params: TruncationParams, dps: int) -> tuple[PrecReal, ...]:
    """T(2n,d) for d = 1..n from one pass of the weight ladder."""
    N = params.terms
    scale = 10 ** (dps + 20)
    inner, S = _weight_ladder(n, N, scale)

    # Drift bounds in floats: C[k][w] sums the caps of t_numeric over the
    # compositions of w into k parts and D[k][w] their drifts.
    r = [0.0] + [
        float(2 * N - 1) ** (-2 * j) + _tail_integral(2 * j, N) for j in range(1, n + 1)
    ]
    C = [[1.0] + [0.0] * n]
    D = [[0.0] * (n + 1)]
    for k in range(1, n):
        D.append([sum(r[j] * C[k - 1][w - j] for j in range(1, w + 1)) for w in range(n + 1)])
        C.append([inner[k][w] / scale + D[k][w] for w in range(n + 1)])

    row = []
    with mp.workdps(dps + 10):
        for d in range(1, n + 1):
            value = mp.mpf(S[d][n]) / scale
            err = mp.mpf(0)
            for j in range(1, n - d + 2):  # j = the leading part j_1
                a_tail = mp.mpf(inner[d - 1][n - j]) / scale
                g1 = mp.mpf(2 * N - 1) ** (-2 * j)
                integral = mp.mpf(2 * N - 1) ** (1 - 2 * j) / (2 * (2 * j - 1))
                if params.tail_order == 1:
                    value += a_tail * integral
                    err += 2 * (a_tail * g1 + mp.mpf(D[d - 1][n - j]) * integral)
                else:
                    err += mp.mpf(C[d - 1][n - j]) * (g1 + integral)
            # The quantization allowance of the C(n-1,d-1) per-composition
            # passes, which covers the ladder's (see the module docstring).
            err += mp.mpf(math.comb(n - 1, d - 1) * 2 * (d + 1) * (N + 1)) / scale
            row.append(PrecReal(+value, +err))
    return tuple(row)


def T_numeric(
    n: int,
    d: int,
    params: TruncationParams | None = None,
    dps: int = DEFAULT_DPS,
) -> PrecReal:
    """T(2n,d), the sum of t(2j_1,...,2j_d) over the compositions of n into
    d parts, from one weight-ladder pass shared by every depth of weight n
    (memoized).  The bound equals the sum of the t_numeric member bounds up
    to float rounding.  Cost O(n**2 * N) per weight."""
    if n < 1 or d < 1:
        raise ValueError(f"require n >= 1 and d >= 1, got n={n}, d={d}")
    if d > n:
        return PrecReal(mp.mpf(0), mp.mpf(0))
    return _weight_row(n, params if params is not None else TruncationParams(), dps)[d - 1]


def pi_power_eval(x: PiPower, dps: int = DEFAULT_DPS) -> PrecReal:
    """Evaluate coeff * pi**pi_exp at the requested precision.

    The error bound reflects rounding only.
    """
    if dps < MIN_DPS:
        raise ValueError(f"precision must be >= {MIN_DPS} digits, got {dps}")
    if x.is_zero():
        return PrecReal(mp.mpf(0), mp.mpf(0))
    with mp.workdps(dps + 5):
        value = mp.mpf(x.coeff.numerator) / x.coeff.denominator * mp.pi**x.pi_exp
        err = abs(value) * mp.mpf(10) ** (2 - dps)
        return PrecReal(+value, +err)
