"""Truncated formal power series over exact rationals.

One-variable dense series whose sums, products and reciprocals truncate
consistently at the stored order.  The central convention of the whole
library lives here: the substitution ``y = pi**2 * u / 4`` turns the
transcendental generating functions

    cos(pi*sqrt(u)/2),  sec(pi*sqrt(u)/2),  cos(pi*sqrt((1-v)*u)/2)

into series with rational coefficients.  Writing c(y) = sum (-1)**n y**n
/ (2n)! we have cos(pi*sqrt(u)/2) = c(pi**2 u / 4), and the bivariate
quotient c((1-v)*y)/c(y) is the generating function whose y**n v**d
coefficient equals T(2n,d) * 4**n / pi**(2n) -- an exact rational.
Conversion back to pi-power values happens in :mod:`tsums.formulas`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .exact import t_even

__all__ = [
    "USeries",
    "cos_sqrt_series",
    "sin_sqrt_series",
    "genfunc_biseries",
    "tan_link_series",
    "tan_link_expected",
]

_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"series coefficients must be exact rationals, got {type(x)!r}")


@dataclass(frozen=True)
class USeries:
    """Series in one variable y, truncated at order K (inclusive)."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series stores at least its constant term")
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs))

    @staticmethod
    def from_list(coeffs) -> "USeries":
        return USeries(tuple(coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.order else _ZERO

    def __add__(self, other: "USeries") -> "USeries":
        # Mixed orders truncate to the shorter operand.
        k = min(self.order, other.order)
        return USeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(k + 1)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return USeries(tuple(c * other for c in self.coeffs))
        if not isinstance(other, USeries):
            return NotImplemented
        k = min(self.order, other.order)
        out = [_ZERO] * (k + 1)
        for i, a in enumerate(self.coeffs[: k + 1]):
            if a == 0:
                continue
            for j in range(k + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return USeries(tuple(out))

    __rmul__ = __mul__

    def recip(self) -> "USeries":
        """Multiplicative inverse up to the stored order.

        Requires a unit constant term; solved by the triangular recurrence
        b_0 = 1/a_0, b_k = -(sum_{i=1..k} a_i b_{k-i}) / a_0.
        """
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ValueError("non-unit series: constant term is zero")
        inv0 = 1 / a0
        out = [inv0] + [_ZERO] * self.order
        for k in range(1, self.order + 1):
            acc = _ZERO
            for i in range(1, k + 1):
                ai = self.coeffs[i]
                if ai:
                    acc += ai * out[k - i]
            out[k] = -acc * inv0
        return USeries(tuple(out))

    def shift_up(self) -> "USeries":
        """Multiply by y, keeping the order (top coefficient falls off)."""
        return USeries((_ZERO,) + self.coeffs[:-1])


def cos_sqrt_series(order: int) -> USeries:
    """c(y) = cos(sqrt(y)) = sum_{n<=K} (-1)**n y**n / (2n)!.

    Under y = pi**2 u/4 this is cos(pi*sqrt(u)/2); under y = pi**2 u it is
    cos(pi*sqrt(u)).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return USeries(
        tuple(Fraction((-1) ** n, factorial(2 * n)) for n in range(order + 1))
    )


def sin_sqrt_series(order: int) -> USeries:
    """s(y) = sin(sqrt(y))/sqrt(y) = sum_{n<=K} (-1)**n y**n / (2n+1)!."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return USeries(
        tuple(Fraction((-1) ** n, factorial(2 * n + 1)) for n in range(order + 1))
    )


def genfunc_biseries(order: int) -> tuple[tuple[Fraction, ...], ...]:
    """Bivariate expansion of c((1-v)y) / c(y) to order K in both y and v,
    as the table ``phi[n][d]`` of y**n v**d coefficients, 0 <= n, d <= K.

    The y**n v**d coefficient times pi**(2n) / 4**n is the sum T(2n,d) of
    all multiple t-values of weight 2n and depth d.  Rows with d > n vanish,
    and the d = 0 column is 1, 0, 0, ... since the v = 0 slice collapses to
    c(y)/c(y).

    The numerator's y**k v**d coefficient is (-1)**d binom(k,d) c_k, so each
    cell is the 1-D convolution (-1)**d sum_{k=d..n} binom(k,d) c_k sec_{n-k}
    with the secant series sec = 1/c.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    K = order
    c = cos_sqrt_series(K)
    sec = c.recip()
    rows = []
    for n in range(K + 1):
        # c_k = (-1)**k/(2k)! and sec_j = (-1)**j E_2j/(2j)! with integer
        # Euler numbers, so c_k sec_{n-k} (2n)! is +-binom(2n,2k) E_{2n-2k},
        # an integer: the convolution runs in integers.
        scale = factorial(2 * n)
        prods = [int(c[k] * sec[n - k] * scale) for k in range(n + 1)]
        rows.append(
            tuple(
                Fraction(
                    (-1) ** d * sum(comb(k, d) * prods[k] for k in range(d, n + 1)),
                    scale,
                )
                for d in range(K + 1)
            )
        )
    return tuple(rows)


def tan_link_series(order: int) -> USeries:
    """Normalized half-angle tangent series (y/2) * s(y) / c(y) at y = pi**2 u.

    Its y**m coefficient is the rational slot of 4**m * t(2m): multiplying
    coefficient m by pi**(2m) recovers 4**m t(2m), which is the coefficient
    of u**m in (pi*sqrt(u)/2) tan(pi*sqrt(u)).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    s = sin_sqrt_series(order)
    c = cos_sqrt_series(order)
    return (s * c.recip() * Fraction(1, 2)).shift_up()


def tan_link_expected(m: int) -> Fraction:
    """Independent target for the tan-link slot: 4**m * t(2m) / pi**(2m)."""
    return t_even(m).coeff * 4**m
