"""Number sequences and pi-power values, checked against independent oracles.

The Bernoulli and Euler oracles here expand the defining generating
functions by series reciprocal over plain Fractions, sharing no code with
the library's recurrences.
"""

import math
import re
from fractions import Fraction

import tsums.exact

import mpmath as mp
import pytest

from tsums import formulas, oracle, symfunc
from tsums.exact import PiPower, bernoulli, euler_number, t_even, zeta_even
from tsums.oracle import pi_power_eval

# Every public function of a cell (n, d), each checking it by exact._check_args.
CELL_ENTRY_POINTS = {
    "T_from_t_values": formulas.T_from_t_values,
    "T_from_bernoulli": formulas.T_from_bernoulli,
    "T_from_euler": formulas.T_from_euler,
    "TTable.value": lambda n, d: formulas.T_table_from_genfunc(3).value(n, d),
    "bernoulli_euler_lhs": formulas.bernoulli_euler_lhs,
    "bernoulli_euler_check": formulas.bernoulli_euler_check,
    "T_numeric": oracle.T_numeric,
    "monomial_depth_sum": lambda n, d: symfunc.monomial_depth_sum(n, d, 3),
    "monomial_depth_expr": symfunc.monomial_depth_expr,
}


def _series_recip(a, order):
    """Coefficients of 1/sum(a[k] x**k) up to the given order."""
    assert a[0] != 0
    out = [1 / a[0]] + [Fraction(0)] * order
    for k in range(1, order + 1):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0]
    return out


def _bernoulli_oracle(order):
    # x/(e^x - 1) is the reciprocal of (e^x - 1)/x = sum x**k/(k+1)!.
    g = [Fraction(1, math.factorial(k + 1)) for k in range(order + 1)]
    return [c * math.factorial(k) for k, c in enumerate(_series_recip(g, order))]


def _euler_oracle(order):
    # sec x = 1/cos x; E_{2j} = (-1)**j (2j)! [x**(2j)] sec x.
    cos = [
        Fraction((-1) ** (k // 2), math.factorial(k)) if k % 2 == 0 else Fraction(0)
        for k in range(2 * order + 1)
    ]
    sec = _series_recip(cos, 2 * order)
    return [(-1) ** j * sec[2 * j] * math.factorial(2 * j) for j in range(order + 1)]


def _old_bernoulli_table(upto_pairs):
    # The recurrence the Bernoulli table was grown by before the tangent
    # triangle, kept verbatim (on a local list) as the reference.
    _bernoulli_even = [Fraction(1)]
    for j in range(len(_bernoulli_even), upto_pairs + 1):
        m = 2 * j
        acc = Fraction(m + 1, -2)  # binom(m+1, 1) * B_1
        for k in range(j):
            acc += math.comb(m + 1, 2 * k) * _bernoulli_even[k]
        _bernoulli_even.append(-acc / (m + 1))
    return _bernoulli_even


def _old_euler_table(upto_pairs):
    # The recurrence the Euler table was grown by before the secant
    # triangle, kept verbatim (on a local list) as the reference.
    _euler_even = [1]
    for j in range(len(_euler_even), upto_pairs + 1):
        acc = 0
        for k in range(j):
            acc += math.comb(2 * j, 2 * k) * _euler_even[k]
        _euler_even.append(-acc)
    return _euler_even


OLD_BERNOULLI = _old_bernoulli_table(200)  # B_0 .. B_400
OLD_EULER = _old_euler_table(200)  # E_0 .. E_400


@pytest.fixture
def empty_tables(monkeypatch):
    """Fresh Bernoulli and Euler tables holding only B_0 and E_0."""
    monkeypatch.setattr(tsums.exact, "_bernoulli_even", [Fraction(1)])
    monkeypatch.setattr(tsums.exact, "_euler_even", [1])


class TestTriangles:
    @pytest.mark.parametrize("asks", ["rising", "one"])
    def test_equal_old_recurrences_to_400(self, empty_tables, asks):
        # From empty tables, by asks that rise one index at a time (a growth
        # per 3/2 step) or by one ask for the last index.
        if asks == "one":
            bernoulli(400), euler_number(400)
        for j in range(201):
            assert bernoulli(2 * j) == OLD_BERNOULLI[j], 2 * j
            assert euler_number(2 * j) == OLD_EULER[j], 2 * j
        assert tsums.exact._bernoulli_even[:201] == OLD_BERNOULLI
        assert tsums.exact._euler_even[:201] == OLD_EULER

    def test_growth_rule(self, empty_tables):
        # An ask past the end grows the table to the asked index or 3/2 of
        # its length, whichever is larger; an ask inside it grows nothing.
        bernoulli(20)
        assert len(tsums.exact._bernoulli_even) == 11
        bernoulli(22)
        assert len(tsums.exact._bernoulli_even) == 17
        bernoulli(30)
        assert len(tsums.exact._bernoulli_even) == 17
        euler_number(60)
        euler_number(62)
        assert len(tsums.exact._euler_even) == 47

    def test_threads_asking_rising_indices_see_one_prefix(self, empty_tables):
        # Threads released together ask different, rising indices of both
        # tables; each records the prefix it reads back.  Two growths that
        # both read the table's length before either appended would append
        # one stretch twice.
        import sys
        import threading

        count = 12
        barrier = threading.Barrier(count)
        seen = [None] * count

        def worker(i):
            barrier.wait()
            top = 15 * (i + 1)
            bernoulli(2 * top)
            euler_number(2 * top)
            seen[i] = ([bernoulli(2 * j) for j in range(top + 1)],
                       [euler_number(2 * j) for j in range(top + 1)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, (b, e) in enumerate(seen):
            assert b == OLD_BERNOULLI[:len(b)] and e == OLD_EULER[:len(e)], i
        for table, ref in ((tsums.exact._bernoulli_even, OLD_BERNOULLI),
                           (tsums.exact._euler_even, OLD_EULER)):
            assert len(table) >= 15 * count + 1
            assert table[:len(ref)] == ref[:len(table)]


class TestBernoulli:
    def test_against_series_reciprocal(self):
        want = _bernoulli_oracle(40)
        for m in range(0, 41, 2):
            assert bernoulli(m) == want[m], m

    def test_frozen_examples(self):
        assert bernoulli(0) == 1
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_indices_raise(self):
        # Every formula reads B_2k; B_1 and the odd zeros are not served.
        for m in (1, 3, 41):
            with pytest.raises(ValueError, match="even m >= 0"):
                bernoulli(m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestEulerNumbers:
    def test_against_series_reciprocal(self):
        want = _euler_oracle(10)
        for j in range(11):
            assert euler_number(2 * j) == want[j], j

    def test_frozen_examples(self):
        assert euler_number(0) == 1
        assert euler_number(4) == 5
        assert euler_number(6) == -61

    def test_sign_alternation(self):
        for j in range(21):
            e = euler_number(2 * j)
            assert isinstance(e, int)
            assert (-1) ** j * e > 0, j

    def test_odd_indices_raise(self):
        for m in (1, 3, 41):
            with pytest.raises(ValueError, match="even m >= 0"):
                euler_number(m)


class TestEvenValues:
    def test_zeta_examples(self):
        assert zeta_even(1) == PiPower(Fraction(1, 6), 2)
        assert zeta_even(2) == PiPower(Fraction(1, 90), 4)
        assert zeta_even(3) == PiPower(Fraction(1, 945), 6)

    def test_zeta_against_numeric_summation(self):
        with mp.workdps(30):
            for n in (1, 2, 3):
                num = mp.nsum(lambda k: 1 / k ** (2 * n), [1, mp.inf])
                closed = pi_power_eval(zeta_even(n), 30)
                assert abs(num - closed.value) < mp.mpf("1e-25")

    def test_t_even_examples(self):
        assert t_even(1) == PiPower(Fraction(1, 8), 2)
        assert t_even(2) == PiPower(Fraction(1, 96), 4)
        assert t_even(3) == PiPower(Fraction(1, 960), 6)

    def test_t_even_against_numeric_summation(self):
        with mp.workdps(30):
            for n in (1, 2, 3):
                num = mp.nsum(lambda k: (2 * k - 1) ** (-2 * n), [1, mp.inf])
                closed = pi_power_eval(t_even(n), 30)
                assert abs(num - closed.value) < mp.mpf("1e-25")

    def test_positivity_and_weight(self):
        for n in range(1, 31):
            v = t_even(n)
            assert v.coeff > 0
            assert v.pi_exp == 2 * n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            zeta_even(0)
        with pytest.raises(ValueError):
            t_even(0)

    def test_values_are_memoized(self):
        # t_even is memoized; zeta_even, read only on a t_even miss, is not.
        for n in (1, 6, 30):
            assert t_even(n) is t_even(n)
            assert zeta_even(n) == zeta_even(n)
        assert not hasattr(zeta_even, "cache_info")


class TestInputContract:
    @pytest.mark.parametrize(
        "func, bad, good",
        [(t_even, True, 1), (zeta_even, True, 1), (euler_number, True, 2), (bernoulli, 2.0, 2)],
    )
    def test_bool_or_float_index_raises(self, monkeypatch, func, bad, good):
        # Before and after the equal int entry is cached: the memo and the
        # tables start empty, so the int call below is what fills them.
        monkeypatch.setattr(tsums.exact, "_bernoulli_even", [Fraction(1)])
        monkeypatch.setattr(tsums.exact, "_euler_even", [1])
        t_even.cache_clear()
        try:
            with pytest.raises(TypeError):
                func(bad)
            func(good)
            with pytest.raises(TypeError):
                func(bad)
        finally:
            t_even.cache_clear()

    @pytest.mark.parametrize("name", list(CELL_ENTRY_POINTS))
    def test_every_cell_entry_point_checks_n_and_d_alike(self, name):
        func = CELL_ENTRY_POINTS[name]
        for n, d in ((0, 1), (1, 0), (0, 0)):
            text = f"require n >= 1 and d >= 1, got n={n}, d={d}"
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                func(n, d)
        for n, d in ((True, 1), (1, True)):
            with pytest.raises(TypeError, match="^expected an integer, got True$"):
                func(n, d)

    def test_float_index_raises(self):
        for func in (t_even, zeta_even, euler_number, bernoulli):
            with pytest.raises(TypeError):
                func(2.0)


class TestPiPower:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PiPower(Fraction(1), 3)
        with pytest.raises(ValueError):
            PiPower(Fraction(1), -2)

    def test_input_contract(self):
        # A float exponent or coefficient, or a bool exponent, is refused
        # rather than printed as pi^2.0 or stored as a binary approximation.
        for bad in ((Fraction(1, 6), 2.0), (Fraction(1, 6), True), (0.1, 2), (0.0, 0)):
            with pytest.raises(TypeError):
                PiPower(*bad)
        assert PiPower(3, 2) == PiPower(Fraction(3), 2)
        value = PiPower(Fraction(1, 6), 2)
        assert type(value.pi_exp) is int and str(value) == "1/6*pi^2"

    def test_zero_normalization(self):
        # A zero value compares equal regardless of the exponent it was
        # built with.
        assert PiPower(Fraction(0), 4) == PiPower(Fraction(0), 0) == PiPower.zero()
        # zero() builds nothing: every caller shares one frozen instance.
        assert PiPower.zero() is PiPower.zero()

    def test_addition_same_weight(self):
        # The routes sum coefficients, never values: even two values of one
        # weight do not add.
        a = PiPower(Fraction(1, 8), 2)
        b = PiPower(Fraction(3, 8), 2)
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a + PiPower.zero()
        assert not hasattr(PiPower, "__add__") and not hasattr(PiPower, "is_zero")

    def test_addition_weight_mismatch(self):
        with pytest.raises(TypeError):
            PiPower(Fraction(1), 2) + PiPower(Fraction(1), 4)

    def test_multiplication(self):
        # Scaling by an int or a Fraction is the one product; two values
        # do not multiply.
        a = PiPower(Fraction(1, 8), 2)
        b = PiPower(Fraction(1, 96), 4)
        with pytest.raises(TypeError):
            a * b
        assert Fraction(3, 4) * a == a * Fraction(3, 4) == PiPower(Fraction(3, 32), 2)
        assert 2 * a == PiPower(Fraction(1, 4), 2)

    def test_repeated_calls_identical(self):
        assert bernoulli(24) == bernoulli(24)
        assert euler_number(24) == euler_number(24)
        assert t_even(7) == t_even(7)


def test_concurrent_cache_growth():
    # Concurrent cold misses must serialize; every thread sees the same
    # values.
    import threading

    results = []

    def worker():
        results.append((bernoulli(120), euler_number(120)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0][0] == bernoulli(120)
