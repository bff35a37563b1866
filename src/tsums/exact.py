"""Exact rational arithmetic and the classical number sequences behind it.

Everything downstream works over exact rationals (`fractions.Fraction`) and
values of the form ``(rational) * pi**(even exponent)``, captured by
:class:`PiPower`.  This module supplies those types plus Bernoulli numbers,
Euler numbers, binomial coefficients, and the even zeta / t values

    zeta(2n) = (-1)**(n+1) * B_{2n} * (2*pi)**(2n) / (2 * (2n)!)
    t(2n)    = 2**(-2n) * (2**(2n) - 1) * zeta(2n)

where t(s) = sum over odd m >= 1 of 1/m**s.  Both are memoized: each value
is built once per process and the same frozen :class:`PiPower` is returned
on every later call, like the grow-on-demand Bernoulli and Euler tables.

Every index is taken through :func:`_index`: a bool or float raises
``TypeError`` before any work.  The two memos are keyed by argument type,
so ``t_even(True)`` misses the entry of 1 and is refused, while a hit on an
int entry runs no check at all.

Sign conventions: B_1 = -1/2 (the x/(e^x - 1) generating function) and the
Euler numbers are the signed integers with sec x = sum (-1)**j E_{2j} x**(2j)
/ (2j)!, so E_0 = 1, E_2 = -1, E_4 = 5, E_6 = -61.  Odd-index entries of both
sequences vanish (except B_1).
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "PiPower",
    "bernoulli",
    "euler_number",
    "binomial",
    "zeta_even",
    "t_even",
]


@dataclass(frozen=True)
class PiPower:
    """Exact value ``coeff * pi**pi_exp`` with ``pi_exp`` even and >= 0.

    ``coeff`` is exact (an ``int`` or ``Fraction``; a ``float`` raises
    ``TypeError`` rather than storing its binary approximation) and
    ``pi_exp`` is an integer (not a ``bool``).  A zero coefficient is
    normalized to exponent 0, so equality of values coincides with
    field-wise equality.
    """

    coeff: Fraction
    pi_exp: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.coeff, float):
            raise TypeError(f"PiPower coefficient must be exact, got float {self.coeff!r}")
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if isinstance(self.pi_exp, bool):
            raise TypeError(f"pi exponent must be an integer, got {self.pi_exp!r}")
        object.__setattr__(self, "pi_exp", operator.index(self.pi_exp))
        if self.pi_exp < 0 or self.pi_exp % 2 != 0:
            raise ValueError(f"pi exponent must be even and >= 0, got {self.pi_exp}")
        if self.coeff == 0:
            object.__setattr__(self, "pi_exp", 0)

    @staticmethod
    def zero() -> "PiPower":
        return PiPower(Fraction(0), 0)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __add__(self, other: "PiPower") -> "PiPower":
        if not isinstance(other, PiPower):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.pi_exp != other.pi_exp:
            raise ValueError(
                f"cannot add pi**{self.pi_exp} and pi**{other.pi_exp} terms exactly"
            )
        return PiPower(self.coeff + other.coeff, self.pi_exp)

    def __mul__(self, other):
        if isinstance(other, PiPower):
            return PiPower(self.coeff * other.coeff, self.pi_exp + other.pi_exp)
        if isinstance(other, (int, Fraction)):
            return PiPower(self.coeff * other, self.pi_exp)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.pi_exp == 0:
            return str(self.coeff)
        return f"{self.coeff}*pi^{self.pi_exp}"


# Grow-on-demand caches; entries are immutable once written.  The lock is for
# library callers that share these tables across threads (the package and its
# CLI start none): growth is serialized, so every reader sees a consistent prefix.
_lock = threading.Lock()
_bernoulli_even: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...
_euler_even: list[int] = [1]  # E_0, E_2, E_4, ...


def _index(k: int) -> int:
    """k as a plain int through ``operator.index``; a bool raises TypeError."""
    if isinstance(k, bool):
        raise TypeError(f"expected an integer, got {k!r}")
    return operator.index(k)


def binomial(a: int, b: int) -> int:
    """Binomial coefficient with the out-of-range convention binom(a,b) = 0.

    Several of the closed-form sums rely on vanishing out-of-range terms
    (b < 0 or b > a), so this never raises for integer b.
    """
    if a < 0:
        raise ValueError(f"binomial requires a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _grow_bernoulli(upto_pairs: int) -> None:
    # sum_{k=0}^{m} binom(m+1, k) B_k = 0 for m >= 1, restricted to even
    # indices: odd B_k vanish for k >= 3 and the single B_1 = -1/2 term is
    # folded in explicitly.
    for j in range(len(_bernoulli_even), upto_pairs + 1):
        m = 2 * j
        acc = Fraction(m + 1, -2)  # binom(m+1, 1) * B_1
        for k in range(j):
            acc += math.comb(m + 1, 2 * k) * _bernoulli_even[k]
        _bernoulli_even.append(-acc / (m + 1))


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m, with B_1 = -1/2 (x/(e^x-1) convention)."""
    m = _index(m)
    if m < 0:
        raise ValueError(f"bernoulli requires m >= 0, got {m}")
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    j = m // 2
    if j >= len(_bernoulli_even):
        with _lock:
            _grow_bernoulli(j)
    return _bernoulli_even[j]


def _grow_euler(upto_pairs: int) -> None:
    # From sec x * cos x = 1: sum_{k=0}^{j} binom(2j, 2k) E_{2k} = 0 for j >= 1.
    for j in range(len(_euler_even), upto_pairs + 1):
        acc = 0
        for k in range(j):
            acc += math.comb(2 * j, 2 * k) * _euler_even[k]
        _euler_even.append(-acc)


def euler_number(m: int) -> int:
    """Signed Euler number E_m (integer); E_m = 0 for odd m."""
    m = _index(m)
    if m < 0:
        raise ValueError(f"euler_number requires m >= 0, got {m}")
    if m % 2 == 1:
        return 0
    j = m // 2
    if j >= len(_euler_even):
        with _lock:
            _grow_euler(j)
    return _euler_even[j]


@lru_cache(maxsize=None, typed=True)
def zeta_even(n: int) -> PiPower:
    """zeta(2n) as an exact rational multiple of pi**(2n), for n >= 1."""
    n = _index(n)
    if n < 1:
        raise ValueError(f"zeta_even requires n >= 1, got {n}")
    m = 2 * n
    coeff = (-1) ** (n + 1) * bernoulli(m) * Fraction(2**m, 2 * math.factorial(m))
    return PiPower(coeff, m)


@lru_cache(maxsize=None, typed=True)
def t_even(n: int) -> PiPower:
    """t(2n) = 2**(-2n) (2**(2n)-1) zeta(2n) as an exact PiPower, n >= 1."""
    n = _index(n)
    if n < 1:
        raise ValueError(f"t_even requires n >= 1, got {n}")
    return zeta_even(n) * Fraction(2 ** (2 * n) - 1, 2 ** (2 * n))
