"""Truncated power series: ring behaviour, reciprocals, and the normalized
trigonometric series that feed the generating-function route."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsums.exact import euler_number
from tsums.series import (
    USeries,
    cos_sqrt_series,
    genfunc_biseries,
    sin_sqrt_series,
    tan_link_expected,
    tan_link_series,
)

ORDER = 5

coeffs_st = st.lists(
    st.integers(min_value=-9, max_value=9).map(Fraction),
    min_size=ORDER + 1,
    max_size=ORDER + 1,
)
series_st = coeffs_st.map(USeries.from_list)
unit_series_st = st.tuples(
    st.integers(min_value=1, max_value=9), coeffs_st
).map(lambda t: USeries.from_list([Fraction(t[0])] + t[1][1:]))


def test_mul_example():
    one_plus = USeries.from_list([1, 1, 0])
    one_minus = USeries.from_list([1, -1, 0])
    assert (one_plus * one_minus).coeffs == (Fraction(1), Fraction(0), Fraction(-1))


def test_add_example():
    a = USeries.from_list([1, 1])
    b = USeries.from_list([1, -1])
    assert (a + b).coeffs == (Fraction(2), Fraction(0))


def test_mixed_orders_truncate_to_min():
    a = USeries.from_list([1, 2, 3, 4])
    b = USeries.from_list([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert (a * b).coeffs == (Fraction(1), Fraction(3))


def test_recip_geometric():
    g = USeries.from_list([1, -1, 0, 0, 0]).recip()
    assert g.coeffs == (Fraction(1),) * 5


def test_recip_constant():
    assert USeries.from_list([2, 0, 0, 0]).recip() == USeries.from_list([Fraction(1, 2), 0, 0, 0])


def test_recip_contract():
    c = cos_sqrt_series(8)
    assert (c * c.recip()) == USeries.from_list([1] + [0] * 8)


def test_recip_nonunit_rejected():
    with pytest.raises(ValueError, match="non-unit"):
        USeries.from_list([0, 1]).recip()


def test_cos_sqrt_coefficients():
    c = cos_sqrt_series(3)
    assert c.coeffs == (
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 24),
        Fraction(-1, 720),
    )


def test_secant_euler_link():
    # Reciprocal of the cos-type series carries (-1)**j E_{2j}/(2j)!.
    r = cos_sqrt_series(12).recip()
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
    assert genfunc_biseries(4)[2][2] == Fraction(1, 24)


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
        assert s[m] == tan_link_expected(m), m


def test_sin_sqrt_coefficients():
    s = sin_sqrt_series(2)
    assert s.coeffs == (Fraction(1), Fraction(-1, 6), Fraction(1, 120))


@pytest.mark.parametrize("order", range(1, 7))
def test_genfunc_table_matches_bivariate_product(order):
    # Reference: the full 2-D product of the numerator c((1-v)y), whose
    # y**k v**i coefficient is (-1)**(k+i) binom(k,i)/(2k)!, with the
    # secant series 1/c(y), truncated at order K in y and in v.
    K = order
    numerator = [
        [Fraction((-1) ** (k + i) * math.comb(k, i), math.factorial(2 * k))
         for i in range(K + 1)]
        for k in range(K + 1)
    ]
    sec = cos_sqrt_series(K).recip()
    product = [[Fraction(0)] * (K + 1) for _ in range(K + 1)]
    for k in range(K + 1):
        for i in range(K + 1):
            for j in range(K + 1 - k):
                product[k + j][i] += numerator[k][i] * sec[j]
    assert genfunc_biseries(K) == tuple(tuple(row) for row in product)


@settings(max_examples=60)
@given(series_st, series_st, series_st)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40)
@given(unit_series_st)
def test_recip_is_right_inverse(a):
    assert a * a.recip() == USeries.from_list([1] + [0] * ORDER)
