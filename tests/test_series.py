"""Truncated power series as coefficient tuples: the triangular division,
and the normalized trigonometric series that feed the generating-function
route."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsums.exact import euler_number, t_even
from tsums.series import (
    cos_sqrt_series,
    genfunc_biseries,
    series_quotient,
    sin_sqrt_series,
    tan_link_series,
)

ORDER = 5

small_fractions = st.integers(min_value=-9, max_value=9).map(Fraction)
coeffs_st = st.lists(small_fractions, min_size=ORDER + 1, max_size=ORDER + 1)
unit_series_st = st.tuples(
    st.integers(min_value=1, max_value=9), coeffs_st
).map(lambda t: (Fraction(t[0]),) + tuple(t[1][1:]))


def _old_series_quotient(num, den):
    # The per-term Fraction recurrence series_quotient ran before it summed
    # each coefficient over one denominator, kept verbatim as the reference.
    d = [Fraction(x) for x in den]
    a = [Fraction(x) for x in num] + [0] * len(d)
    out = []
    for k in range(len(d)):
        out.append((a[k] - sum(d[i] * out[k - i] for i in range(1, k + 1))) / d[0])
    return tuple(out)


def _mul(a, b):
    """Product of two series of one order, truncated at that order."""
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(b)))


def test_recip_geometric():
    assert series_quotient((1,), (1, -1, 0, 0, 0)) == (Fraction(1),) * 5


def test_recip_constant():
    assert series_quotient((1,), (2, 0, 0, 0)) == (Fraction(1, 2), 0, 0, 0)


def test_recip_contract():
    c = cos_sqrt_series(8)
    assert _mul(series_quotient((1,), c), c) == (1,) + (0,) * 8


def test_recip_nonunit_rejected():
    with pytest.raises(ValueError, match="non-unit"):
        series_quotient((1,), (0, 1))


@pytest.mark.parametrize(
    "num, den",
    [
        ((1,), (Fraction(3, 2), 1, Fraction(-2, 7), 0, 5)),
        ((Fraction(1, 3), -4, Fraction(5, 9)), (Fraction(-3, 2), Fraction(1, 6), Fraction(7, 10))),
        ((1,), cos_sqrt_series(60)),
        ((0,) + tuple(x / 2 for x in sin_sqrt_series(59)), cos_sqrt_series(60)),
    ],
    ids=["nonunit-d0", "negative-d0", "sec60", "tan60"],
)
def test_quotient_equals_old_recurrence(num, den):
    got = series_quotient(num, den)
    assert all(type(x) is Fraction for x in got)
    assert got == _old_series_quotient(num, den)


@pytest.mark.parametrize("func", [cos_sqrt_series, sin_sqrt_series, genfunc_biseries, tan_link_series])
@pytest.mark.parametrize("order", [True, False, 2.0, Fraction(2)])
def test_order_must_be_an_integer(func, order):
    # A bool would run silently at order 1 or 0, and a float failed deep
    # inside range(); both are refused before any work.
    with pytest.raises(TypeError):
        func(order)


def test_float_coefficient_rejected():
    with pytest.raises(TypeError, match="exact rationals"):
        series_quotient((1,), (1, 0.5))
    with pytest.raises(TypeError, match="exact rationals"):
        series_quotient((0.5,), (1, 1))


def test_series_are_coefficient_tuples():
    c = cos_sqrt_series(3)
    assert isinstance(c, tuple)
    assert len(c) == 4
    assert c[-1] == Fraction(-1, 720)
    assert all(type(x) is Fraction for x in c + sin_sqrt_series(3) + tan_link_series(3))


def test_cos_sqrt_coefficients():
    c = cos_sqrt_series(3)
    assert c == (
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 24),
        Fraction(-1, 720),
    )


def test_secant_euler_link():
    # Reciprocal of the cos-type series carries (-1)**j E_{2j}/(2j)!.
    r = series_quotient((1,), cos_sqrt_series(12))
    for j in range(13):
        assert r[j] == Fraction(
            (-1) ** j * euler_number(2 * j), math.factorial(2 * j)
        ), j
    assert r[2] == Fraction(5, 24)


def test_genfunc_v0_column_is_one():
    phi = genfunc_biseries(6)
    assert phi[0][0] == 1
    for n in range(1, 7):
        assert phi[n][0] == 0


def test_genfunc_all_twos_cell():
    # Row n is c((1-v)y)/c(y)'s row divided by 4**n: T(4,2) = pi**4 / 384.
    assert genfunc_biseries(4)[2][2] * 4**2 == Fraction(1, 24)


def test_genfunc_upper_triangle_vanishes():
    phi = genfunc_biseries(6)
    for n in range(7):
        for d in range(n + 1, 7):
            assert phi[n][d] == 0, (n, d)


def test_tan_link_first_slots():
    s = tan_link_series(3)
    assert s[0] == 0
    assert s[1] == Fraction(1, 2)
    assert s[2] == Fraction(1, 6)
    assert s[3] == Fraction(1, 15)


def test_tan_link_matches_t_values():
    s = tan_link_series(12)
    for m in range(1, 13):
        assert s[m] == t_even(m).coeff * 4**m, m


def test_sin_sqrt_coefficients():
    s = sin_sqrt_series(2)
    assert s == (Fraction(1), Fraction(-1, 6), Fraction(1, 120))


@pytest.mark.parametrize("order", range(1, 7))
def test_genfunc_table_matches_bivariate_product(order):
    # Reference: the full 2-D product of the numerator c((1-v)y), whose
    # y**k v**i coefficient is (-1)**(k+i) binom(k,i)/(2k)!, with the
    # secant series 1/c(y), truncated at order K in y and in v; the table
    # holds row n of that product divided by 4**n.
    K = order
    numerator = [
        [Fraction((-1) ** (k + i) * math.comb(k, i), math.factorial(2 * k))
         for i in range(K + 1)]
        for k in range(K + 1)
    ]
    sec = series_quotient((1,), cos_sqrt_series(K))
    product = [[Fraction(0)] * (K + 1) for _ in range(K + 1)]
    for k in range(K + 1):
        for i in range(K + 1):
            for j in range(K + 1 - k):
                product[k + j][i] += numerator[k][i] * sec[j]
    phi = genfunc_biseries(K)
    assert all(type(c) is Fraction for row in phi for c in row)
    assert tuple(tuple(c * 4**n for c in row) for n, row in enumerate(phi)) == tuple(
        tuple(row) for row in product)


def test_genfunc_table_matches_comb_sums():
    # Each cell written out as (-1)**d sum_{k=d..n} binom(k,d) c_k sec_{n-k},
    # with c_k sec_{n-k} (2n)! = (-1)**k binom(2n,2k) |E_{2n-2k}|, for every
    # order up to 40: the Taylor shift must give these sums exactly (row n
    # of the table is divided by 4**n).
    for K in range(1, 41):
        phi = genfunc_biseries(K)
        assert len(phi) == K + 1 and all(len(row) == K + 1 for row in phi)
        for n in range(K + 1):
            prods = [(-1) ** k * math.comb(2 * n, 2 * k) * abs(euler_number(2 * n - 2 * k))
                     for k in range(n + 1)]
            for d in range(K + 1):
                acc = sum(math.comb(k, d) * prods[k] for k in range(d, n + 1))
                want = Fraction((-1) ** d * acc, math.factorial(2 * n))
                assert type(phi[n][d]) is Fraction and phi[n][d] * 4**n == want, (K, n, d)


@settings(max_examples=40)
@given(unit_series_st)
def test_recip_is_right_inverse(a):
    assert _mul(series_quotient((1,), a), a) == (1,) + (0,) * ORDER


@settings(max_examples=60)
@given(st.lists(small_fractions, max_size=ORDER + 3), unit_series_st)
def test_quotient_times_den_gives_num(num, den):
    padded = (tuple(num) + (0,) * len(den))[: len(den)]
    assert _mul(series_quotient(num, den), den) == padded


@settings(max_examples=60)
@given(st.lists(small_fractions, max_size=ORDER + 3), unit_series_st)
def test_quotient_equals_old_recurrence_on_random_series(num, den):
    assert series_quotient(num, den) == _old_series_quotient(num, den)
