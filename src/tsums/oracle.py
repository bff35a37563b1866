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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import mpmath as mp

from .exact import PiPower

__all__ = [
    "DivergentSeriesError",
    "PrecReal",
    "TruncationParams",
    "compositions",
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


def compositions(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into d positive parts, in colexicographic order."""
    if d < 1 or n < d:
        return
    if d == 1:
        yield (n,)
        return
    for last in range(1, n - d + 2):
        for head in compositions(n - last, d - 1):
            yield head + (last,)


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


def T_numeric(
    n: int,
    d: int,
    params: TruncationParams | None = None,
    dps: int = DEFAULT_DPS,
) -> PrecReal:
    """T(2n,d) by enumerating all compositions of n into d positive parts
    and summing the series oracle over them; err adds member bounds."""
    if n < 1 or d < 1:
        raise ValueError(f"require n >= 1 and d >= 1, got n={n}, d={d}")
    if d > n:
        return PrecReal(mp.mpf(0), mp.mpf(0))
    total = PrecReal(mp.mpf(0), mp.mpf(0))
    for parts in compositions(n, d):
        total = total + t_numeric([2 * j for j in parts], params, dps)
    return total


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
