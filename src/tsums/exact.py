"""Exact rational arithmetic and the classical number sequences behind it.

Everything downstream works over exact rationals (`fractions.Fraction`) and
values of the form ``(rational) * pi**(even exponent)``, captured by
:class:`PiPower`.  This module supplies those types plus Bernoulli numbers,
Euler numbers, and the even zeta / t values

    zeta(2n) = (-1)**(n+1) * B_{2n} * (2*pi)**(2n) / (2 * (2n)!)
    t(2n)    = 2**(-2n) * (2**(2n) - 1) * zeta(2n)

where t(s) = sum over odd m >= 1 of 1/m**s.  t(2n), zeta(2n)'s one caller,
is memoized: each value is built once per process and the same frozen
:class:`PiPower` is returned on every later call, like the Bernoulli and
Euler tables; zeta(2n) is built on each call.

The two tables are grown in integers by the in-place triangles of Brent and
Harvey ("Fast computation of Bernoulli, tangent and secant numbers",
arXiv:1108.0286): tangent numbers T_k for the Bernoulli table, with
B_2k = (-1)**(k-1) 2k T_k / (4**k (4**k - 1)), and secant numbers S_k for the
Euler table, with E_2k = (-1)**k S_k.  The two are separate algorithms, so
the Bernoulli-fed routes and the Euler route share no triangle code; both
tables grow by one routine, :func:`_grow`.  A triangle is not incremental:
an ask past the end recomputes the table to the asked index or 3/2 of its
length, whichever is larger, under one module lock, and appends the new
entries in one step, so every reader sees a consistent prefix.

Every index is taken through :func:`_index`, the package's one integer
check (only ``series``, which imports nothing from the package, keeps a
copy): a bool or float raises ``TypeError`` before any work.  A cell's
(n, d) is checked by :func:`_check_args`, for every layer.  The memo of
``t_even`` is keyed by argument type, so ``t_even(True)`` misses the entry
of 1 and is refused, while a hit on an int entry runs no check at all.

Only even indices are defined: every formula of the package reads B_2k and
E_2k, so an odd index is refused like a negative one.  The Euler numbers are
the signed integers with sec x = sum (-1)**j E_{2j} x**(2j) / (2j)!, so
E_0 = 1, E_2 = -1, E_4 = 5, E_6 = -61.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "PiPower",
    "bernoulli",
    "euler_number",
    "zeta_even",
    "t_even",
]

_set = object.__setattr__  # how a record sets its own fields


class _Frozen:
    """Base of the package's immutable records: the fields of a subclass are
    its ``__slots__``, given positionally to ``__init__``.

    Two records are equal when they are of the same class and their fields
    are equal, and equal records hash equal; ``repr`` prints the class and
    its fields by name; pickle and copy rebuild a record through its
    class.  Assigning or deleting a field raises ``AttributeError``.  A
    subclass that checks or defaults its fields writes its own ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class PiPower(_Frozen):
    """Exact value ``coeff * pi**pi_exp`` with ``pi_exp`` even and >= 0.

    ``coeff`` is exact (an ``int`` or ``Fraction``; a ``float`` raises
    ``TypeError`` rather than storing its binary approximation) and
    ``pi_exp`` is an integer (not a ``bool``).  A zero coefficient is
    normalized to exponent 0, so equality of values coincides with
    field-wise equality.  The one arithmetic is scaling by an ``int`` or
    ``Fraction``; the routes add and multiply coefficients, never values,
    so ``+`` and a product of two values raise ``TypeError``.
    """

    __slots__ = ("coeff", "pi_exp")

    def __init__(self, coeff: Fraction, pi_exp: int = 0) -> None:
        if isinstance(coeff, float):
            raise TypeError(f"PiPower coefficient must be exact, got float {coeff!r}")
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        if isinstance(pi_exp, bool):
            raise TypeError(f"pi exponent must be an integer, got {pi_exp!r}")
        pi_exp = operator.index(pi_exp)
        if pi_exp < 0 or pi_exp % 2 != 0:
            raise ValueError(f"pi exponent must be even and >= 0, got {pi_exp}")
        _set(self, "coeff", coeff)
        _set(self, "pi_exp", pi_exp if coeff else 0)

    def __eq__(self, other) -> bool:
        # The base's test with the fields read directly, at half its cost.
        if other.__class__ is self.__class__:
            return (self.coeff, self.pi_exp) == (other.coeff, other.pi_exp)
        return NotImplemented

    __hash__ = _Frozen.__hash__

    @staticmethod
    def zero() -> "PiPower":
        """T(2n,d) for d > n, the empty sum over compositions; one shared instance."""
        return _ZERO

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PiPower(self.coeff * other, self.pi_exp)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.pi_exp == 0:
            return str(self.coeff)
        return f"{self.coeff}*pi^{self.pi_exp}"


_ZERO = PiPower(Fraction(0), 0)

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


def _check_args(n: int, d: int) -> tuple[int, int]:
    """The (n, d) of a cell as plain ints (:func:`_index`), both >= 1."""
    n, d = _index(n), _index(d)
    if n < 1 or d < 1:
        raise ValueError(f"require n >= 1 and d >= 1, got n={n}, d={d}")
    return n, d


def _even_index(m: int, name: str) -> int:
    """m // 2 for an even m >= 0 (:func:`_index`), else ValueError naming ``name``."""
    m = _index(m)
    if m < 0 or m % 2:
        raise ValueError(f"{name} requires an even m >= 0, got {m}")
    return m // 2


def _grow(table: list, triangle, j: int) -> None:
    """Extend ``table`` past index j by ``triangle(have, K)``, its entries
    have..K.  A triangle is not incremental, so K is the asked pair or 3/2
    of the table's length, whichever is larger: for asks that rise one pair
    at a time (the table and verify commands) 3/2 costs about 2.9 one-shot
    triangles on average against 3.7 for doubling, and at most 6.2 against
    9.1 (measured for final pairs 100 <= N <= 700).  The length is read
    again under _lock, so a table another thread grew past j meanwhile
    gets nothing, and one list.extend appends the new entries, so a reader
    sees the old prefix or the new one, never a partial one."""
    with _lock:
        have = len(table)
        if j >= have:
            table.extend(triangle(have, max(j, 3 * have // 2)))


def _tangent_entries(have: int, K: int) -> list[Fraction]:
    """B_2k for have <= k <= K by Brent and Harvey's in-place tangent
    triangle, integers only: t[k] starts at (k-1)!, and after the passes
    k = 2..K it holds the tangent number T_k, the (2k-1)-th derivative of
    tan at 0; then B_2k = (-1)**(k-1) 2k T_k / (4**k (4**k - 1))."""
    t = [0, 1] + [0] * (K - 1)
    for k in range(2, K + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, K + 1):
        for i in range(k, K + 1):
            t[i] = (i - k) * t[i - 1] + (i - k + 2) * t[i]
    return [Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)) for k in range(have, K + 1)]


def _secant_entries(have: int, K: int) -> list[int]:
    """E_2k for have <= k <= K by Brent and Harvey's in-place secant
    triangle: s[k] starts at k!, and after the passes k = 1..K it holds the
    secant number S_k, the 2k-th derivative of sec at 0; then
    E_2k = (-1)**k S_k."""
    s = [1] + [0] * K
    for k in range(1, K + 1):
        s[k] = k * s[k - 1]
    for k in range(1, K + 1):
        for i in range(k + 1, K + 1):
            s[i] = (i - k) * s[i - 1] + (i - k + 1) * s[i]
    return [(-1) ** k * s[k] for k in range(have, K + 1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m for an even m >= 0."""
    j = _even_index(m, "bernoulli")
    if j >= len(_bernoulli_even):
        _grow(_bernoulli_even, _tangent_entries, j)
    return _bernoulli_even[j]


def euler_number(m: int) -> int:
    """Signed Euler number E_m (an integer) for an even m >= 0."""
    j = _even_index(m, "euler_number")
    if j >= len(_euler_even):
        _grow(_euler_even, _secant_entries, j)
    return _euler_even[j]


def _euler_prefix(n: int) -> list[int]:
    """E_0, E_2, ..., E_{2n-2} for n >= 1, the table grown at most once."""
    euler_number(2 * n - 2)
    return _euler_even[:n]


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
