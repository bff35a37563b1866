"""The closed forms for T(2n,d) and the identities tying them together."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsums.formulas
from tsums.exact import PiPower, bernoulli, euler_number, t_even
from tsums.formulas import (
    T_from_bernoulli,
    T_from_euler,
    T_from_t_values,
    T_table_from_genfunc,
    bernoulli_euler_check,
    bernoulli_euler_lhs,
    coeff_row,
    depth_sum_identity,
    t_all_twos,
)

ALL_PATHS = (T_from_t_values, T_from_bernoulli, T_from_euler)


def clear_row_memos():
    """Empty the memoized row of n that the t-value and Bernoulli routes
    share, and the Bernoulli route's row of d, which reads t(2j)."""
    tsums.formulas._t_value_terms.cache_clear()
    tsums.formulas._bernoulli_row.cache_clear()


class TestAllTwos:
    def test_values(self):
        assert t_all_twos(1) == PiPower(Fraction(1, 8), 2)
        assert t_all_twos(2) == PiPower(Fraction(1, 384), 4)
        assert t_all_twos(3) == PiPower(Fraction(1, 46080), 6)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            t_all_twos(0)


class TestClosedForms:
    def test_depth_one_is_t(self):
        for path in ALL_PATHS:
            assert path(3, 1) == PiPower(Fraction(1, 960), 6)
            for n in range(1, 13):
                assert path(n, 1) == t_even(n), (path.__name__, n)

    def test_frozen_cells(self):
        # Hand-evaluated through two independent routes.
        for path in ALL_PATHS:
            assert path(3, 2) == PiPower(Fraction(1, 3840), 6), path.__name__
            assert path(4, 3) == PiPower(Fraction(1, 430080), 8), path.__name__
            assert path(2, 2) == t_all_twos(2), path.__name__

    def test_full_depth_is_all_twos(self):
        for n in range(1, 13):
            for path in ALL_PATHS:
                assert path(n, n) == t_all_twos(n), (path.__name__, n)

    def test_vanishing_beyond_depth(self):
        # Every d > n cell of every route is the one shared zero.
        for path in ALL_PATHS:
            for n in range(1, 6):
                for d in range(n + 1, n + 4):
                    assert path(n, d) is PiPower.zero(), (path.__name__, n, d)

    def test_rejects_bad_arguments(self):
        for path in ALL_PATHS:
            with pytest.raises(ValueError):
                path(0, 1)
            with pytest.raises(ValueError):
                path(3, 0)

    def test_triple_path_agreement(self):
        # Every cell to n = 60: the first two routes sum over rows cached
        # per depth, the Euler route memoizes each cell from the Euler table.
        table = T_table_from_genfunc(60)
        for n in range(1, 61):
            for d in range(1, n + 1):
                ref = T_from_euler(n, d)
                assert T_from_t_values(n, d) == ref, (n, d)
                assert T_from_bernoulli(n, d) == ref, (n, d)
                assert table.value(n, d) == ref, (n, d)

    def test_corrupted_t_value_reaches_both_routes(self, monkeypatch):
        # Rows are memoized, so each corruption starts from cleared row
        # memos, like the Euler memo test.  T(16,5) reads t(12) in its row
        # of n at j = 2; T(16,3) stops at j = 1 and does not read it.
        cells = ((T_from_t_values, 6, 1), (T_from_bernoulli, 8, 5), (T_from_bernoulli, 8, 3))
        for route, n, d in cells:
            assert route(n, d) == T_from_euler(n, d)

        def corrupt(n):
            return t_even(n) * 2 if n == 6 else t_even(n)

        # A corrupted t(2j) factor: the Bernoulli route folds t(2) into its
        # row of depth 3, so T(16,3) reads it there, while the t-value route
        # reads only t(16) and t(14) and its row of d reads no t value.
        def corrupt_t2(n):
            return t_even(n) * 2 if n == 1 else t_even(n)

        try:
            clear_row_memos()
            monkeypatch.setattr(tsums.formulas, "t_even", corrupt)
            assert T_from_t_values(6, 1) != T_from_euler(6, 1)
            assert T_from_bernoulli(8, 5) != T_from_euler(8, 5)
            assert T_from_bernoulli(8, 3) == T_from_euler(8, 3)

            clear_row_memos()
            monkeypatch.setattr(tsums.formulas, "t_even", corrupt_t2)
            assert T_from_bernoulli(8, 3) != T_from_euler(8, 3)
            assert T_from_t_values(8, 3) == T_from_euler(8, 3)
        finally:
            clear_row_memos()

    @pytest.mark.parametrize("route", [
        pytest.param(T_from_t_values, id="T_from_t_values-_t_value_terms"),
        pytest.param(T_from_bernoulli, id="T_from_bernoulli-_bernoulli_terms"),
    ])
    def test_cell_order_does_not_matter(self, route):
        # From an empty memo, the cells of one n are the same values whether
        # the deepest or the shallowest cell builds the row of n.  Both
        # routes now read the one row of n in _t_value_terms; the case ids
        # keep the names they had when each route had its own memo.
        clear = tsums.formulas._t_value_terms.cache_clear
        for n in (1, 2, 9, 40):
            clear()
            deep_first = [route(n, d) for d in range(n, 0, -1)][::-1]
            clear()
            shallow_first = [route(n, d) for d in range(1, n + 1)]
            assert deep_first == shallow_first == [T_from_euler(n, d) for d in range(1, n + 1)]

    def test_rows_are_cached_tuples(self):
        # Every row of d, like every row of n, is (den, ints), memoized, with
        # one entry per j of coeff_row(d).
        rows_of_d = (tsums.formulas._t_value_row, tsums.formulas._bernoulli_row,
                     tsums.formulas._bernoulli_euler_row)
        for d in (1, 5, 12):
            assert coeff_row(d) is coeff_row(d)
            assert type(coeff_row(d).pairs) is tuple
            for memo in rows_of_d:
                den, ints = row = memo(d)
                assert row is memo(d)
                assert type(den) is int and type(ints) is tuple
                assert all(type(c) is int for c in ints)
                assert len(ints) == len(coeff_row(d).pairs)
        memo = tsums.formulas._t_value_terms
        for n in (1, 8, 40):
            _, nums = memo(n)
            assert memo(n) is memo(n)
            assert type(nums) is tuple and len(nums) == (n - 1) // 2 + 1

    def test_routes_read_each_t_value_of_n_once(self, monkeypatch):
        # The t-value and Bernoulli routes share one row of n, so every
        # depth of both routes at n = 12 reads each t(2k) with k > 6, which
        # only a row of n holds, exactly once.  Every private memo of the
        # module starts empty, so a second row of n would be read too.
        reads = Counter()

        def counted(k):
            reads[k] += 1
            return t_even(k)

        try:
            for name, memo in vars(tsums.formulas).items():
                if name.startswith("_") and hasattr(memo, "cache_clear"):
                    memo.cache_clear()
            monkeypatch.setattr(tsums.formulas, "t_even", counted)
            for d in range(1, 13):
                assert T_from_t_values(12, d) == T_from_bernoulli(12, d) == T_from_euler(12, d)
        finally:
            clear_row_memos()
        assert {k: c for k, c in reads.items() if k > 6} == dict.fromkeys(range(7, 13), 1)


class TestEulerMemo:
    def test_cell_is_memoized(self):
        for n, d in ((1, 1), (7, 3), (30, 12), (5, 9)):
            assert T_from_euler(n, d) is T_from_euler(n, d)

    def test_equals_per_cell_loop(self):
        # The Euler sum written out term by term, for every
        # 1 <= d <= n + 2 <= 62.
        for n in range(1, 61):
            for d in range(1, n + 3):
                acc = 0
                for ell in range(n - d + 1):
                    acc += math.comb(n - ell, d) * math.comb(2 * n, 2 * ell) * euler_number(2 * ell)
                sign = -1 if (n - d) % 2 else 1
                want = PiPower(Fraction(sign * acc, 4**n * math.factorial(2 * n)), 2 * n)
                assert T_from_euler(n, d) == want, (n, d)

    def test_filled_from_euler_table(self, monkeypatch):
        # T(6,1) reads E_4; a corrupted E_4 in the Euler table must reach a
        # freshly filled memo through a fresh weight row.
        good = T_from_euler(3, 1)  # grows the table past E_4
        tsums.formulas._euler_weights.cache_clear()
        T_from_euler.cache_clear()
        table = tsums.exact._euler_even
        monkeypatch.setattr(tsums.exact, "_euler_even", [*table[:2], table[2] + 2, *table[3:]])
        try:
            assert T_from_euler(3, 1) != good
            assert T_from_euler(3, 2) == PiPower(Fraction(1, 3840), 6)
        finally:
            tsums.formulas._euler_weights.cache_clear()
            T_from_euler.cache_clear()

    def test_running_binomial_weights(self):
        # Row n holds binom(2n,2l) E_{2l} for every 0 <= l < n.
        for n in range(1, 61):
            want = tuple(math.comb(2 * n, 2 * ell) * euler_number(2 * ell) for ell in range(n))
            assert tsums.formulas._euler_weights(n) == want, n

    def test_cell_order_does_not_matter(self):
        # From empty memos, the cells of one n are the same values whether
        # the deepest or the shallowest cell builds the row of n, and they
        # equal the Euler sum written out term by term.
        try:
            for n in (1, 2, 9, 40, 150):
                want = []
                for d in range(1, n + 1):
                    acc = sum(math.comb(n - ell, d) * math.comb(2 * n, 2 * ell) * euler_number(2 * ell)
                              for ell in range(n - d + 1))
                    want.append(PiPower(Fraction((-1) ** (n - d) * acc, 4**n * math.factorial(2 * n)), 2 * n))
                for order in (range(n, 0, -1), range(1, n + 1)):
                    tsums.formulas._euler_weights.cache_clear()
                    T_from_euler.cache_clear()
                    got = {d: T_from_euler(n, d) for d in order}
                    assert [got[d] for d in range(1, n + 1)] == want, (n, order)
        finally:
            T_from_euler.cache_clear()

    def test_one_row_per_n(self):
        # Every depth of one n reads one row, built on the first cell.
        weights = tsums.formulas._euler_weights
        weights.cache_clear()
        T_from_euler.cache_clear()
        try:
            for d in range(30, 0, -1):
                T_from_euler(30, d)
            assert weights.cache_info().misses == 1
            assert weights.cache_info().hits == 29
        finally:
            T_from_euler.cache_clear()

    def test_rejected_arguments_raise_on_every_call(self):
        # The equal int cells are memoized first: a bool or float must not
        # hit their entries, and a refusal is not cached.
        T_from_euler(1, 1), T_from_euler(2, 1), coeff_row(1), coeff_row(2)
        rejected = [
            (TypeError, T_from_euler, (True, 1)),
            (TypeError, T_from_euler, (1, True)),
            (TypeError, T_from_euler, (2.0, 1)),
            (TypeError, T_from_t_values, (2, True)),
            (TypeError, T_from_bernoulli, (2.0, 1)),
            (TypeError, coeff_row, (True,)),
            (TypeError, coeff_row, (2.0,)),
            (TypeError, t_all_twos, (True,)),
            (TypeError, depth_sum_identity, (True,)),
            (TypeError, depth_sum_identity, (2.0,)),
            (TypeError, bernoulli_euler_check, (1, True)),
            (TypeError, T_table_from_genfunc, (True,)),
            (ValueError, T_from_euler, (0, 1)),
            (ValueError, T_from_euler, (3, -1)),
            (ValueError, coeff_row, (0,)),
        ]
        for error, func, args in rejected:
            for _ in range(2):
                with pytest.raises(error):
                    func(*args)


# Signed and zero numerators, large denominators; Fractions and plain ints.
fractions_st = st.builds(
    Fraction, st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**30),
)
terms_st = st.lists(st.one_of(fractions_st, st.integers(min_value=-(10**30), max_value=10**30)),
                    max_size=8)


@settings(max_examples=200)
@given(terms_st, terms_st)
def test_sum_products_equals_fraction_fold(terms, other):
    # The values over one denominator, summed, are the Fraction fold.
    den, nums = tsums.formulas._over_one_denominator(terms)
    assert type(den) is int and all(type(q) is int for q in nums)
    assert [Fraction(q, den) for q in nums] == terms
    assert Fraction(sum(nums), den) == sum(terms, Fraction(0))
    assert tsums.formulas._over_one_denominator(iter(terms)) == (den, nums)
    # _dot of two such rows, of any lengths, is the Fraction sum of the
    # pairwise products up to the shorter row.
    row = tsums.formulas._over_one_denominator(other)
    dot = sum((a * b for a, b in zip(terms, other)), Fraction(0))
    assert tsums.formulas._dot(row, (den, nums)) == dot
    assert tsums.formulas._dot((den, nums), row) == dot


def test_sum_products_edge_cases():
    over_one_denominator = tsums.formulas._over_one_denominator
    assert over_one_denominator([]) == (1, ())
    assert over_one_denominator([Fraction(0, 7), Fraction(-3, 4), 2]) == (4, (0, -3, 8))
    assert over_one_denominator([Fraction(1, 6), -6]) == (6, (1, -36))


class TestGenfuncTable:
    def test_entries(self):
        table = T_table_from_genfunc(5)
        assert table.value(1, 1) == PiPower(Fraction(1, 8), 2)
        assert table.value(2, 2) == PiPower(Fraction(1, 384), 4)

    def test_absent_cells_are_zero(self):
        table = T_table_from_genfunc(4)
        assert table.value(2, 3) is PiPower.zero()

    def test_lookups_build_no_value(self, monkeypatch):
        # A lookup of a present cell returns its entry and builds no
        # PiPower, not even the zero it would return for an absent cell.
        table = T_table_from_genfunc(6)
        built = []
        init = PiPower.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(PiPower, "__init__", counting_init)
        cells = [(n, d) for n in range(1, 7) for d in range(1, n + 1)]
        assert [table.value(n, d) for n, d in cells] == [table.entries[c] for c in cells]
        assert built == []

    def test_out_of_range_rejected(self):
        table = T_table_from_genfunc(4)
        with pytest.raises(KeyError):
            table.value(5, 1)

    def test_depth5_row_matches_coeff_row(self):
        # Reassemble T(2n,5) from the symbolic row and compare, n = 6, on
        # the coefficients of pi**(2n).
        table = T_table_from_genfunc(6)
        row = coeff_row(5)
        n = 6
        acc = Fraction(0)
        for j, c in row.pairs:
            t = t_even(n).coeff if j == 0 else t_even(j).coeff * t_even(n - j).coeff
            acc += c * t
        assert PiPower(acc, 2 * n) == table.value(n, 5)


class TestCoeffRows:
    def test_published_rows(self):
        assert coeff_row(5).pairs == (
            (0, Fraction(7, 128)),
            (1, Fraction(-3, 64)),
            (2, Fraction(1, 320)),
        )
        assert coeff_row(6).pairs == (
            (0, Fraction(21, 512)),
            (1, Fraction(-7, 192)),
            (2, Fraction(1, 256)),
        )
        assert coeff_row(7).pairs == (
            (0, Fraction(33, 1024)),
            (1, Fraction(-15, 512)),
            (2, Fraction(1, 256)),
            (3, Fraction(-1, 21504)),
        )
        assert coeff_row(8).pairs == (
            (0, Fraction(429, 16384)),
            (1, Fraction(-99, 4096)),
            (2, Fraction(15, 4096)),
            (3, Fraction(-1, 12288)),
        )

    def test_depth_one(self):
        assert coeff_row(1).pairs == ((0, Fraction(1)),)

    def test_rows_equal_fraction_chains(self):
        # Each entry is built as one Fraction; here as the chains of Fraction
        # multiplies and divides that the closed forms are written as.
        for d in range(1, 61):
            bern = [(0, Fraction(math.comb(2 * d - 2, d - 1), 2 ** (2 * d - 2) * d))]
            bern += [(j, -math.comb(2 * d - 2 * j - 2, d - 1)
                      / (Fraction(2 ** (2 * d - 3) * (2 ** (2 * j) - 1) * d) * bernoulli(2 * j)))
                     for j in range(1, (d - 1) // 2 + 1)]
            assert coeff_row(d).pairs == tuple(bern), d
            # The entries C_{d,j}/M_d of the t-value row.
            scale = Fraction(1, 2 ** (2 * d - 2) * d)
            tval = [scale * Fraction((-1) ** j * math.comb(2 * d - 2 * j - 2, d - 1),
                                     math.factorial(2 * j))
                    for j in range((d - 1) // 2 + 1)]
            m, ints = tsums.formulas._t_value_row(d)
            assert [Fraction(c, m) for c in ints] == tval, d
            # The Bernoulli row of d folds t(2j)/pi**(2j) into c_{d,j}.  It
            # is the t-value row, the same (M, ints) tuple, and both routes
            # dot it with one memoized row of n, so T_from_bernoulli =
            # T_from_t_values for every n >= d.
            folded = [c * t_even(j).coeff if j else c for j, c in bern]
            m, ints = row = tsums.formulas._bernoulli_row(d)
            assert [Fraction(c, m) for c in ints] == folded == tval, d
            assert row == tsums.formulas._t_value_row(d), d
            m, ints = tsums.formulas._bernoulli_euler_row(d)
            assert [Fraction(c, m) for c in ints] == [
                Fraction(math.comb(2 * d - 2 * j - 2, d - 1), 2 ** (2 * d - 1) * d)
                for j in range((d - 1) // 2 + 1)], d

    def test_sign_alternation(self):
        for d in range(1, 41):
            for j, c in coeff_row(d).pairs:
                assert c != 0
                assert (c > 0) == (j % 2 == 0), (d, j)

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            coeff_row(0)


class TestDepthSum:
    def test_small_cases(self):
        r1 = depth_sum_identity(1)
        assert r1.equal and r1.lhs == PiPower(Fraction(1, 8), 2)
        r2 = depth_sum_identity(2)
        assert r2.equal and r2.lhs == PiPower(Fraction(5, 384), 4)
        assert depth_sum_identity(3).equal

    def test_range(self):
        assert all(depth_sum_identity(n).equal for n in range(1, 16))


class TestBernoulliEuler:
    def test_lhs_examples(self):
        assert bernoulli_euler_lhs(1, 2) == Fraction(1, 16)
        assert bernoulli_euler_lhs(2, 3) == 0
        assert bernoulli_euler_lhs(1, 1) == Fraction(1, 4)

    def test_case_branches(self):
        r = bernoulli_euler_check(2, 3)
        assert r.case == "n<d<2n" and r.lhs == 0 and r.passed
        r = bernoulli_euler_check(1, 2)
        assert r.case == "d>=2n" and r.rhs == Fraction(1, 16) and r.passed
        r = bernoulli_euler_check(3, 3)
        assert r.case == "d<=n" and r.passed

    def test_grid(self):
        for n in range(1, 9):
            for d in range(1, 21):
                assert bernoulli_euler_check(n, d).passed, (n, d)

    def test_one_formula_for_d_above_n_keeps_every_case_and_rhs(self):
        # The three-branch target the check used before n < d < 2n was
        # folded into the d >= 2n formula, kept as the reference.
        def three_branch(n, d):
            if d <= n:
                return "d<=n", (-1) ** (n + 1) * math.factorial(2 * n) * T_from_euler(n, d).coeff
            if d < 2 * n:
                return "n<d<2n", Fraction(0)
            return "d>=2n", Fraction(n * math.comb(2 * d - 2 * n - 1, d - 1),
                                     2 ** (2 * d - 1) * d)

        for n in range(1, 21):
            for d in range(1, 3 * n + 1):
                r = bernoulli_euler_check(n, d)
                assert (r.case, r.rhs) == three_branch(n, d), (n, d)
                assert type(r.rhs) is Fraction and r.passed, (n, d)

    def test_lhs_equals_term_by_term_sum(self):
        # The sum as written, one Fraction term at a time, for every n <= 20
        # and d <= 60: all three case branches, and rows of n shorter and
        # longer than rows of d.
        for n in range(1, 21):
            for d in range(1, 61):
                want = Fraction(0)
                for j in range((d - 1) // 2 + 1):
                    if j <= n:
                        m = 2 * n - 2 * j
                        want += ((2**m - 1) * bernoulli(m) * math.comb(2 * d - 2 * j - 2, d - 1)
                                 * math.comb(2 * n, 2 * j))
                want /= 2 ** (2 * d - 1) * d
                got = bernoulli_euler_lhs(n, d)
                assert type(got) is Fraction and got == want, (n, d)
