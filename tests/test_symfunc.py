"""Symmetric polynomials, the depth-graded monomial sums, and the exact
specialization x_j -> 1/(2j-1)**2."""

import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest

import tsums.symfunc
from tsums.exact import PiPower, euler_number, t_even
from tsums.formulas import T_from_euler, depth_sum_identity, t_all_twos
from tsums.oracle import pi_power_eval
from tsums.symfunc import (
    GenExpr,
    SymPoly,
    _expand,
    _is_partition,
    _partitions,
    _partitions_of_length,
    check_bivariate_factorization,
    check_monomial_expansion,
    monomial_depth_expr,
    monomial_depth_sum,
    odd_square_image,
    specialize_odd_squares,
)
from tsums.verify import run_suite

ONE = Fraction(1)


class TestGenerators:
    def test_elementary(self):
        assert _expand(GenExpr.elem(2), 3) == SymPoly(3, {(1, 1): ONE})
        assert _expand(GenExpr.elem(4), 3) == SymPoly(3)
        assert _expand(GenExpr.elem(0), 2) == SymPoly(2, {(): 1})

    def test_complete(self):
        assert _expand(GenExpr.homog(2), 2) == SymPoly(2, {(2,): ONE, (1, 1): ONE})
        assert _expand(GenExpr.homog(3), 2) == SymPoly(2, {(3,): ONE, (2, 1): ONE})

    def test_power_sum(self):
        # p_j = N_{j,1}, the one-part monomial sum.
        assert monomial_depth_sum(3, 1, 2) == SymPoly(2, {(3,): ONE})
        assert _expand(monomial_depth_expr(3, 1), 2) == SymPoly(2, {(3,): ONE})

    def test_non_partition_keys_rejected(self):
        # A part that is not an int is refused too, even one of integer value.
        # A bool part is refused like a bool index (exact._index).
        for key in ((1, 2), (1, 0), (1, 1, 1), (2, 1.5), (2.0,), (Fraction(3),), (2, Fraction(1)),
                    (True,), (2, True), (True, True)):
            with pytest.raises(ValueError, match="is not a partition"):
                SymPoly(2, {key: ONE})

    def test_coefficients_are_exact_rationals(self):
        # A float coefficient is refused, not stored as its binary value,
        # as in GenExpr; an int is stored as a Fraction.
        for c in (0.1, 0.5, mp.mpf(1)):
            with pytest.raises(TypeError):
                SymPoly(2, {(1,): c})
        got = SymPoly(2, {(1,): 2, (2,): Fraction(1, 10), (1, 1): 0})
        assert got.terms == {(1,): 2, (2,): Fraction(1, 10)}
        assert all(type(c) is Fraction for c in got.terms.values())

    def test_variable_count_is_an_integer(self):
        for bad in (2.5, 2.0, True):
            with pytest.raises(TypeError):
                SymPoly(bad, {(1,): ONE})
        with pytest.raises(ValueError):
            SymPoly(0)

    def test_degree_one_coincidence(self):
        p_1 = SymPoly(4, {(1,): ONE})
        assert _expand(GenExpr.elem(1), 4) == _expand(GenExpr.homog(1), 4) == p_1
        assert monomial_depth_sum(1, 1, 4) == p_1

    def test_newton_consistency(self):
        # E(-u) H(u) = 1, coefficient by coefficient, degrees <= 8.
        m = 8
        for n in range(1, 9):
            column = GenExpr({(j, n - j): (-1) ** j for j in range(n + 1)})
            assert _expand(column, m) == SymPoly(m), n


class TestPartitionsOfLength:
    def test_matches_filtering_all_partitions(self):
        # Every partition of n with exactly L parts, in the order of
        # _partitions, and none for L = 0 (n >= 1) or L > n.
        for n in range(15):
            every = list(_partitions(n, n))
            for L in range(n + 2):
                want = [lam for lam in every if len(lam) == L]
                assert list(_partitions_of_length(n, L)) == want, (n, L)

    def test_expansion_check_lists_only_its_depth(self, monkeypatch):
        # check_monomial_expansion(n, d, n) lists partitions only through
        # the lister and only of length d, once for each side; the lister
        # starts _partitions only at (n - d, d), the partitions of n - d
        # into at most d parts, never at those of n with at most d parts.
        asked, listed = [], []
        real_lister, real_partitions = _partitions_of_length, _partitions

        def lister(n, length):
            asked.append((n, length))
            return real_lister(n, length)

        def partitions(n, max_len, max_part=None):
            if max_part is None:
                listed.append((n, max_len))
            return real_partitions(n, max_len, max_part)

        monkeypatch.setattr(tsums.symfunc, "_partitions_of_length", lister)
        monkeypatch.setattr(tsums.symfunc, "_partitions", partitions)
        for n in range(1, 11):
            for d in range(1, n + 1):
                asked.clear()
                listed.clear()
                assert check_monomial_expansion(n, d, n)
                assert asked == [(n, d)] * 2, (n, d)
                assert listed == [(n - d, d)] * 2, (n, d)

    def test_partition_check_matches_pairwise_form(self):
        # The sorted comparison accepts and refuses exactly what the
        # pairwise generator did, on every tuple of length <= 6 over -1..4.
        def pairwise(lam):
            return all(a >= b for a, b in zip(lam, lam[1:])) and (not lam or lam[-1] >= 1)

        for length in range(7):
            for lam in itertools.product(range(-1, 5), repeat=length):
                assert _is_partition(lam) == pairwise(lam), lam


class TestMonomialDepthSums:
    def test_examples(self):
        assert monomial_depth_sum(2, 1, 3) == SymPoly(3, {(2,): ONE})
        assert monomial_depth_sum(2, 2, 3) == SymPoly(3, {(1, 1): ONE})
        assert monomial_depth_sum(3, 2, 3).terms == {(2, 1): ONE}
        assert monomial_depth_sum(6, 2, 6).terms == {(5, 1): ONE, (4, 2): ONE, (3, 3): ONE}

    def test_no_partitions_gives_zero(self):
        assert monomial_depth_sum(2, 3, 4) == SymPoly(4)

    def test_full_depth_is_elementary(self):
        for n in range(1, 6):
            assert monomial_depth_sum(n, n, 6) == SymPoly(6, {(1,) * n: ONE})


def _exponent_vectors(p):
    """Exponent-vector form of a SymPoly: every distinct rearrangement of
    each partition, padded with zeros to the variable count."""
    out = {}
    for lam, c in p.terms.items():
        padded = lam + (0,) * (p.num_vars - len(lam))
        for alpha in set(itertools.permutations(padded)):
            out[alpha] = c
    return out


def _monomials(choose, j, m):
    """e_j (choose = combinations) or h_j (combinations_with_replacement)
    in m variables as exponent vectors: one monomial per choice of j
    variable indices, each with coefficient 1."""
    out = {}
    for picked in choose(range(m), j):
        alpha = [0] * m
        for i in picked:
            alpha[i] += 1
        out[tuple(alpha)] = 1
    return out


def _exponent_vector_product(f, g):
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def test_product_matches_exponent_vector_product():
    # Brute-force reference for the counting lemma: multiply every monomial
    # of e_k and of h_l in m variables, then compare every exponent vector.
    cases = [(k, ell, m) for m, top in ((1, 8), (2, 8), (3, 8), (4, 8), (5, 6))
             for k in range(top + 1) for ell in range(top + 1 - k)]
    assert len(cases) == 208
    for k, ell, m in cases:
        want = _exponent_vector_product(
            _monomials(itertools.combinations, k, m),
            _monomials(itertools.combinations_with_replacement, ell, m),
        )
        got = _expand(GenExpr({(k, ell): 1}), m)
        assert _exponent_vectors(got) == want, (k, ell, m)


class TestIdentities:
    def test_factorization_small(self):
        assert check_bivariate_factorization(1, 1)
        assert check_bivariate_factorization(4, 4)

    def test_factorization_above_degree_eight(self):
        assert check_bivariate_factorization(16, 16)

    def test_expansion_examples(self):
        assert check_monomial_expansion(2, 1, 2)
        assert check_monomial_expansion(6, 3, 6)
        for n in range(1, 7):
            assert check_monomial_expansion(n, n, 6)

    def test_expansion_two_variable_hand_case(self):
        # N_{2,1} = -2 e_2 + h_1 e_1 = p_2 in two variables.
        m = 2
        rhs = GenExpr({(2, 0): -2, (1, 1): 1})
        assert monomial_depth_expr(2, 1).terms == rhs.terms
        p_2 = SymPoly(m, {(2,): ONE})
        assert _expand(rhs, m) == p_2
        assert monomial_depth_sum(2, 1, m) == p_2

    def test_expand_rejects_other_products(self):
        # A term is one e_k h_l: a p_j, an e_k e_l or three factors cannot
        # be written as a key, so the expression is refused when built.
        for key, error in (((("p", 2),), ValueError), ((("e", 1), ("e", 2)), TypeError),
                           ((("e", 1), ("h", 1), ("h", 2)), ValueError)):
            with pytest.raises(error):
                _expand(GenExpr({key: 1}), 4)

    def test_expansion_detects_wrong_depth(self, monkeypatch):
        real = tsums.symfunc.monomial_depth_sum
        monkeypatch.setattr(
            tsums.symfunc, "monomial_depth_sum", lambda n, d, m: real(n, d + 1, m)
        )
        assert not check_monomial_expansion(5, 2, 5)
        assert not check_monomial_expansion(6, 3, 6)

    def test_checks_expand_monomial_depth_expr(self, monkeypatch):
        # Both exact checks must expand the expression that the numeric
        # specialization evaluates, so a wrong expression fails them.
        real = tsums.symfunc.monomial_depth_expr

        def wrong(n, d):
            terms = dict(real(n, d).terms)
            terms[(n, 0)] += 1
            return GenExpr(terms)

        monkeypatch.setattr(tsums.symfunc, "monomial_depth_expr", wrong)
        assert not check_monomial_expansion(5, 2, 5)
        assert not check_bivariate_factorization(5, 5)

    def test_every_coefficient_mutation_fails_the_check(self, monkeypatch):
        # Each coefficient of each N_{n,d} expression, moved by +1, -1 or
        # +1/2 alone, must make both exact checks fail; every other cell
        # keeps its true expression.
        real = tsums.symfunc.monomial_depth_expr
        mutations = 0
        for n in range(2, 10):
            for d in range(1, n + 1):
                terms = real(n, d).terms
                for key in terms:
                    for delta in (1, -1, Fraction(1, 2)):
                        wrong = GenExpr({**terms, key: terms[key] + delta})
                        monkeypatch.setattr(
                            tsums.symfunc, "monomial_depth_expr",
                            lambda n_, d_, cell=(n, d), wrong=wrong:
                                wrong if (n_, d_) == cell else real(n_, d_))
                        assert not check_monomial_expansion(n, d, n), (n, d, key, delta)
                        assert not check_bivariate_factorization(n, n), (n, d, key, delta)
                        mutations += 1
        assert mutations == 492

    def test_factorization_lists_no_partition(self, monkeypatch):
        # The factorization evaluates the counting lemma at every length;
        # it never lists a partition.
        def refuse(n, length):
            raise AssertionError(f"listed the partitions of {n} of length {length}")

        monkeypatch.setattr(tsums.symfunc, "_partitions_of_length", refuse)
        assert check_bivariate_factorization(8, 8)

    def test_factorization_reads_the_binomials(self, monkeypatch):
        # One binomial C(3, 1) off by one, in the expressions and in the
        # lemma's sums alike, makes the factorization fail.
        real = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: real(n, k) + ((n, k) == (3, 1)))
        assert not check_bivariate_factorization(4, 4)

    def test_expansion_is_the_same_in_more_variables(self):
        # N_{n,d} has degree n, so m = n variables already see every
        # partition: more variables add no term and change no coefficient.
        for n in range(1, 7):
            for d in range(1, n + 1):
                expr = monomial_depth_expr(n, d)
                assert _expand(expr, n).terms == _expand(expr, n + 3).terms, (n, d)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            check_bivariate_factorization(5, 4)
        with pytest.raises(ValueError):
            check_monomial_expansion(3, 4, 8)


@pytest.mark.parametrize("call, args, want", [
    (monomial_depth_sum, (3, 2, 3), {(2, 1): ONE}),
    (monomial_depth_expr, (3, 2), {(3, 0): -3, (2, 1): 1}),
    (check_monomial_expansion, (3, 2, 3), True),
    (check_bivariate_factorization, (2, 3), True),
])
def test_indices_must_be_integers(call, args, want):
    # A bool or a float index is refused before any work, as in the exact
    # layer; the integer call keeps its result.
    for i, arg in enumerate(args):
        for bad in (True, float(arg)):
            with pytest.raises(TypeError):
                call(*args[:i], bad, *args[i + 1:])
    got = call(*args)
    assert getattr(got, "terms", got) == want


def _mpf(x):
    """An exact Fraction, or PiPower, as mpf at the working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return _mpf(x.coeff) * mp.pi**x.pi_exp


class TestSpecialization:
    def test_power_sum_hits_t(self):
        # p_j = N_{j,1} goes to t(2j), which t_even reads off B_2j.
        for j in range(1, 31):
            assert odd_square_image(monomial_depth_expr(j, 1)) == t_even(j), j

    def test_elementary_hits_all_twos(self):
        for n in range(1, 31):
            assert odd_square_image(GenExpr.elem(n)) == t_all_twos(n), n

    def test_complete_hits_depth_sum(self):
        # eta_l, from the e-recurrence alone, is the depth sum's
        # |E_2l| / (4**l (2l)!), read off the Euler table.
        for ell in range(121):
            want = PiPower(Fraction(abs(euler_number(2 * ell)), 4**ell * math.factorial(2 * ell)),
                           2 * ell)
            assert odd_square_image(GenExpr.homog(ell)) == want, ell
        for n in range(1, 31):
            assert odd_square_image(GenExpr.homog(n)) == depth_sum_identity(n).rhs, n

    def test_degree_one_images_identical(self):
        want = PiPower(Fraction(1, 8), 2)
        assert odd_square_image(GenExpr.elem(1)) == odd_square_image(GenExpr.homog(1)) == want
        assert odd_square_image(monomial_depth_expr(1, 1)) == want

    def test_monomial_depth_expr_hits_T(self):
        for n in range(1, 41):
            for d in range(1, n + 1):
                assert odd_square_image(monomial_depth_expr(n, d)) == T_from_euler(n, d), (n, d)

    def test_expression_arithmetic(self):
        # The image is linear, and a term's image is the product of its
        # factors' images.
        half = Fraction(1, 2)
        assert odd_square_image(GenExpr({(1, 0): half, (0, 1): half})) == t_all_twos(1)
        got = odd_square_image(GenExpr({(2, 1): 3, (1, 2): Fraction(-1, 5)}))
        e = [t_all_twos(k).coeff for k in (1, 2)]
        h = [depth_sum_identity(k).rhs.coeff for k in (1, 2)]
        assert got == PiPower(3 * e[1] * h[0] - e[0] * h[1] / 5, 6)
        assert odd_square_image(GenExpr()) == PiPower.zero()

    @pytest.mark.parametrize("terms", [{(0, 0): Fraction(1, 3), (1, 0): 1},
                                       {(2, 0): 1, (0, 1): 1}, {(3, 1): 1, (1, 2): -1}])
    def test_inhomogeneous_expression_is_refused(self, terms):
        # Terms of two degrees have no single power of pi as their image.
        with pytest.raises(ValueError, match="not homogeneous"):
            odd_square_image(GenExpr(terms))
        with pytest.raises(ValueError, match="not homogeneous"):
            specialize_odd_squares(GenExpr(terms))

    def test_corrupted_epsilon_fails_its_spot_cases(self, monkeypatch):
        # epsilon_2 doubled before eta grows: the spot cases that read it,
        # directly or through eta_2.., fail, and the rest pass.
        real = tsums.symfunc._e_image
        monkeypatch.setattr(tsums.symfunc, "_e_image", lambda k: real(k) * (1 + (k == 2)))
        monkeypatch.setattr(tsums.symfunc, "_h_images", (Fraction(1),))
        failed = [c["id"] for c in run_suite("symmetric", max_n=4)["cases"] if not c["pass"]]
        assert failed == ["specialize e_2", "specialize h_2", "specialize h_3", "specialize h_4",
                          "specialize N(2,1)", "specialize N(2,2)", "specialize N(3,2)"]

    def test_concurrent_askers_get_the_same_images(self, monkeypatch):
        # 8 threads released together on empty tables, each asking for
        # h_1..h_40 in its own order: the tables are replaced whole, so none
        # reads a half-grown one.
        want = {ell: depth_sum_identity(ell).rhs for ell in range(1, 41)}
        monkeypatch.setattr(tsums.symfunc, "_h_images", (Fraction(1),))
        count = 8
        orders = [list(range(1, 41)), list(range(40, 0, -1))]
        rng = random.Random(27)
        while len(orders) < count:
            orders.append(rng.sample(range(1, 41), 40))
        barrier = threading.Barrier(count)
        seen = [None] * count

        def worker(i):
            barrier.wait()
            seen[i] = {ell: odd_square_image(GenExpr.homog(ell)) for ell in orders[i]}

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
        assert seen == [want] * count

    def test_rejects_non_integer_precision(self):
        with pytest.raises(TypeError):
            specialize_odd_squares(GenExpr.elem(1), 7, 30.0)
        got = specialize_odd_squares(GenExpr.elem(1), 7, 30)
        assert got == pi_power_eval(t_all_twos(1), 30)

    @pytest.mark.parametrize("num_vars, dps", [(100.0, 15), (True, 15), (7, True)])
    def test_rejects_non_integer_sizes_before_any_work(self, monkeypatch, num_vars, dps):
        # Refused before the image tables grow.
        monkeypatch.setattr(tsums.symfunc, "_h_images", (Fraction(1),))
        tsums.symfunc._e_image.cache_clear()
        with pytest.raises(TypeError):
            specialize_odd_squares(GenExpr({(1, 2): 1}), num_vars, dps)
        assert tsums.symfunc._e_image.cache_info().currsize == 0
        assert tsums.symfunc._h_images == (Fraction(1),)

    def test_num_vars_changes_nothing(self):
        # The image is the one in infinitely many variables: num_vars is
        # checked, and then read by nothing.
        for n, d in ((2, 1), (3, 2), (4, 4)):
            expr = monomial_depth_expr(n, d)
            want = pi_power_eval(T_from_euler(n, d), 30)
            assert {specialize_odd_squares(expr, m, 30) for m in (2, 10, 10**4, 10**12)} == {want}

    def test_rounding_allowance_at_lowest_precision(self):
        # At dps = MIN_DPS, e_1's err is pi_power_eval's 10**-8 of the value,
        # and it covers the distance to pi**2/8.
        got = specialize_odd_squares(GenExpr.elem(1), 10**4, 10)
        assert got.err < mp.mpf("1.3e-8")
        with mp.workdps(50):
            assert abs(got.value - mp.pi**2 / 8) <= got.err

    def test_caller_context_changes_no_bit(self):
        # The image is exact and pi_power_eval works at its own precision,
        # so the caller's mpmath context changes no bit of a value or an err.
        exprs = [GenExpr.elem(3), GenExpr.homog(4), monomial_depth_expr(4, 2),
                 GenExpr({(0, 0): Fraction(-3, 4)}), GenExpr({(1, 2): Fraction(1, 3), (2, 1): 5})]

        def images():
            return [(got.value._mpf_, got.err._mpf_)
                    for got in (specialize_odd_squares(e, 2000, 30) for e in exprs)]

        want = images()
        with mp.workprec(8):
            assert images() == want
        with mp.workdps(200):
            assert images() == want

    @pytest.mark.parametrize("dps", [5, -30])
    def test_rejects_low_precision(self, dps):
        # Below MIN_DPS digits is refused, as in the oracle.
        with pytest.raises(ValueError):
            specialize_odd_squares(GenExpr.elem(1), 7, dps)


class TestGenExpr:
    def test_compares_by_value(self):
        assert monomial_depth_expr(4, 2) == monomial_depth_expr(4, 2)
        assert monomial_depth_expr(4, 2) != monomial_depth_expr(4, 3)
        assert GenExpr.elem(1) == GenExpr({(1, 0): Fraction(1)}) != GenExpr.homog(1)

    def test_terms_cannot_be_assigned_or_deleted(self):
        for value in (SymPoly(2, {(1,): ONE}), GenExpr.homog(1)):
            with pytest.raises(AttributeError):
                value.terms = {}
            with pytest.raises(AttributeError):
                del value.terms
            assert value.terms

    def test_terms_keyed_by_k_and_l(self):
        # (k, l) is e_k h_l: e_2 h_1 and e_1 h_2 are different terms.
        assert GenExpr({(2, 1): 1, (1, 2): 2}).terms == {(2, 1): 1, (1, 2): 2}
        assert GenExpr({(2, 1): 0}).terms == {}
        assert GenExpr.elem(3).terms == {(3, 0): 1}
        assert GenExpr.homog(3).terms == {(0, 3): 1}

    def test_indices_are_non_negative_integers(self):
        with pytest.raises(ValueError):
            GenExpr({(-1, 0): 1})
        with pytest.raises(ValueError):
            GenExpr.homog(-2)
        for key in ((0.5, 1), (True, 0), (0, True)):
            with pytest.raises(TypeError):
                GenExpr({key: 1})

    def test_coefficients_are_exact_rationals(self):
        # A float coefficient is refused, not stored as its binary value.
        for c in (0.1, 0.5, mp.mpf(1)):
            with pytest.raises(TypeError):
                GenExpr({(1, 0): c})
        assert GenExpr({(1, 0): 2, (0, 1): Fraction(1, 10)}).terms == {(1, 0): 2, (0, 1): Fraction(1, 10)}

    def test_index_zero_term_is_the_constant(self):
        # e_0 = h_0 = 1: the term c e_0 h_0 is c, exactly and in any m.
        c = Fraction(-3, 4)
        assert odd_square_image(GenExpr({(0, 0): c})) == PiPower(c, 0)
        assert specialize_odd_squares(GenExpr({(0, 0): c}), 7, 30).value == mp.mpf(-0.75)
        assert _expand(GenExpr({(0, 0): c}), 3).terms == {(): c}

    def test_err_covers_final_roundings(self):
        # 1/3 has no binary float: the rounding of the value must be in err,
        # alone and with a power of pi.
        third = Fraction(1, 3)
        for terms in ({(0, 0): third}, {(1, 0): third, (0, 1): 1}):
            got = specialize_odd_squares(GenExpr(terms), 7, 10)
            with mp.workdps(60):
                gap = abs(got.value - _mpf(odd_square_image(GenExpr(terms))))
                assert 0 < gap <= got.err, terms


def _odd_square_values(kind, j, m):
    """p_j, e_j or h_j of x_i = 1/(2i-1)**2, i <= m, as an exact Fraction,
    summed over the monomials themselves: the m variables for p_j, the
    j-subsets of them for e_j and the j-multisets for h_j."""
    xs = [Fraction(1, (2 * i - 1) ** 2) for i in range(1, m + 1)]
    if kind == "p":
        return sum(x**j for x in xs)
    choose = {
        "e": itertools.combinations,
        "h": itertools.combinations_with_replacement,
    }[kind]
    return sum((math.prod(c) for c in choose(xs, j)), Fraction(0))



class TestSpecializationExact:
    """Few variables: the truncated value is exactly computable, and the
    exact image, the value in infinitely many variables, lies above it by
    at most the tail bound of the dropped variables."""

    KINDS = "peh"

    @staticmethod
    def _expr(kind, j):
        return {"p": lambda j: monomial_depth_expr(j, 1), "e": GenExpr.elem,
                "h": GenExpr.homog}[kind](j)

    @staticmethod
    def _tail(kind, j, m):
        """An exact bound on what the variables past the first m add to p_j,
        e_j or h_j.  With T = 1/(2(2m-1)) >= sum_{i>m} x_i, the tail adds
        at most (2m-1)**(1-2j)/(2(2j-1)) to p_j, sum_{r>=1} e_{j-r} T**r/r!
        to e_j and sum_{r>=1} h_{j-r} T**r to h_j, each e_{j-r} or h_{j-r}
        over the first m variables."""
        if kind == "p":
            return Fraction(1, 2 * (2 * j - 1) * (2 * m - 1) ** (2 * j - 1))
        T = Fraction(1, 2 * (2 * m - 1))
        return sum(_odd_square_values(kind, j - r, m) * T**r
                   / (math.factorial(r) if kind == "e" else 1) for r in range(1, j + 1))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_truncated_value_is_exact(self, m):
        # The expansion in m variables, evaluated at their odd squares, is
        # the sum over the monomials themselves: the reference the tail
        # bounds below start from.
        xs = [Fraction(1, (2 * i - 1) ** 2) for i in range(1, m + 1)]
        for kind in self.KINDS:
            for j in range(1, 9):
                vectors = _exponent_vectors(_expand(self._expr(kind, j), m))
                got = sum((c * math.prod(x**a for x, a in zip(xs, alpha))
                           for alpha, c in vectors.items()), Fraction(0))
                assert got == _odd_square_values(kind, j, m), (kind, j, m)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_infinite_value_within_tail_bound(self, m):
        for kind in self.KINDS:
            for j in range(1, 9):
                truncated = _odd_square_values(kind, j, m)
                with mp.workdps(60):
                    gap = _mpf(odd_square_image(self._expr(kind, j))) - _mpf(truncated)
                    assert 0 < gap <= _mpf(self._tail(kind, j, m)), (kind, j, m)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_two_factor_terms(self, m):
        # N_{n,d} mixes e_k h_l products with signs: its image lies within
        # sum |c| (t_e (h + t_h) + t_h e) of the truncated value, t_e and
        # t_h the tail bounds of e_k and h_l.
        for n in range(1, 7):
            for d in range(1, n + 1):
                expr = monomial_depth_expr(n, d)
                truncated = bound = Fraction(0)
                for (k, ell), c in expr.terms.items():
                    e, h = _odd_square_values("e", k, m), _odd_square_values("h", ell, m)
                    t_e, t_h = self._tail("e", k, m), self._tail("h", ell, m)
                    truncated += c * e * h
                    bound += abs(c) * (t_e * (h + t_h) + t_h * e)
                with mp.workdps(60):
                    gap = _mpf(odd_square_image(expr)) - _mpf(truncated)
                    assert abs(gap) <= _mpf(bound), (n, d, m)
