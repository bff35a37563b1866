"""Symmetric polynomials, the depth-graded monomial sums, and the numeric
specialization x_j -> 1/(2j-1)**2."""

import gc
import itertools
import math
import random
import sys
import threading
import tracemalloc
from array import array
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest

import tsums.symfunc
from tsums.formulas import T_from_euler, depth_sum_identity, t_all_twos
from tsums.oracle import pi_power_eval
from tsums.symfunc import (
    GenExpr,
    SymPoly,
    _expand,
    _generator_value,
    _is_partition,
    _partitions,
    _partitions_of_length,
    _power_sum,
    check_bivariate_factorization,
    check_monomial_expansion,
    monomial_depth_expr,
    monomial_depth_sum,
    specialize_odd_squares,
)

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
        for key in ((1, 2), (1, 0), (1, 1, 1), (2, 1.5), (2.0,), (Fraction(3),), (2, Fraction(1))):
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


def _generator_mpf(kind, j, m, dps):
    """_generator_value as mpf: its two integers divided by the scale
    10**(dps+20) at dps+20 digits, the value to nearest and the err rounding
    up, as specialize_odd_squares converts its sum."""
    value, err = _generator_value(kind, j, m, dps)
    scale = 10 ** (dps + 20)
    with mp.workdps(dps + 20):
        return mp.fdiv(value, scale), mp.fdiv(err, scale, rounding="u")


class TestSpecialization:
    M = 10_000
    DPS = 25

    def test_power_sum_hits_t(self):
        value, err = _generator_mpf("p", 1, self.M, self.DPS)
        want = pi_power_eval(t_all_twos(1), self.DPS)
        assert abs(value - want.value) <= err

    def test_elementary_hits_all_twos(self):
        for n in (1, 2, 3, 4):
            got = specialize_odd_squares(GenExpr.elem(n), self.M, self.DPS)
            want = pi_power_eval(t_all_twos(n), self.DPS)
            assert abs(got.value - want.value) <= got.err, n

    def test_complete_hits_depth_sum(self):
        for n in (1, 2, 3, 4):
            got = specialize_odd_squares(GenExpr.homog(n), self.M, self.DPS)
            want = pi_power_eval(depth_sum_identity(n).rhs, self.DPS)
            assert abs(got.value - want.value) <= got.err, n

    def test_degree_one_images_identical(self):
        a, _ = _generator_mpf("p", 1, self.M, self.DPS)
        b = specialize_odd_squares(GenExpr.elem(1), self.M, self.DPS)
        c = specialize_odd_squares(GenExpr.homog(1), self.M, self.DPS)
        assert a == b.value == c.value

    def test_monomial_depth_expr_hits_T(self):
        for n, d in ((2, 1), (2, 2), (3, 2), (3, 3)):
            got = specialize_odd_squares(monomial_depth_expr(n, d), self.M, self.DPS)
            want = pi_power_eval(T_from_euler(n, d), self.DPS)
            assert abs(got.value - want.value) <= got.err, (n, d)

    def test_expression_arithmetic(self):
        e = GenExpr({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
        got = specialize_odd_squares(e, self.M, self.DPS)
        want, want_err = _generator_mpf("p", 1, self.M, self.DPS)
        assert abs(got.value - want) <= got.err + want_err

    def test_rejects_non_integer_precision(self):
        # A float dps would sum the power sums in floats and cache them
        # under a key equal to the integer one.
        with pytest.raises(TypeError):
            specialize_odd_squares(GenExpr.elem(1), 7, 30.0)
        got = specialize_odd_squares(GenExpr.elem(1), 7, 30)
        exact = _odd_square_values("e", 1, 7)
        with mp.workdps(50):
            gap = abs(got.value - mp.mpf(exact.numerator) / exact.denominator)
        assert gap <= mp.mpf(10) ** -20

    @pytest.mark.parametrize("num_vars, dps", [(100.0, 15), (True, 15), (7, True)])
    def test_rejects_non_integer_sizes_before_any_work(self, num_vars, dps):
        # Refused before _generator_value caches anything (e_0 included)
        # and before the power-sum chain moves.
        before = _generator_value.cache_info().currsize
        chain = list(tsums.symfunc._chain)
        with pytest.raises(TypeError):
            specialize_odd_squares(GenExpr.elem(1), num_vars, dps)
        assert _generator_value.cache_info().currsize == before
        assert all(a is b for a, b in zip(tsums.symfunc._chain, chain, strict=True))

    def test_rounding_allowance_at_lowest_precision(self):
        # The former blanket allowance 10**(10-dps) made e_1's err 1.0 at
        # dps = MIN_DPS; the tail bound 1/(2(2M-1)) now dominates it.
        got = specialize_odd_squares(GenExpr.elem(1), 10**4, 10)
        assert got.err < mp.mpf("1e-4")
        assert abs(got.value - mp.pi**2 / 8) <= got.err

    def test_caller_context_changes_no_bit(self):
        # The sum is in integers and converted at its own precision, so the
        # caller's mpmath context changes no bit of a value or an err.
        exprs = [GenExpr.elem(3), GenExpr.homog(4), monomial_depth_expr(4, 2),
                 GenExpr({(0, 0): Fraction(-3, 4)}), GenExpr({(0, 0): Fraction(1, 3), (2, 1): 5})]

        def images():
            _generator_value.cache_clear()
            return [(got.value._mpf_, got.err._mpf_)
                    for got in (specialize_odd_squares(e, 2000, 30) for e in exprs)]

        want = images()
        with mp.workprec(8):
            assert images() == want
        with mp.workdps(200):
            assert images() == want

    @pytest.mark.parametrize("dps", [5, -30])
    def test_rejects_low_precision(self, dps):
        # Below MIN_DPS digits is refused, as in the oracle; a negative dps
        # would make the fixed-point scale a float.
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
        got = specialize_odd_squares(GenExpr({(0, 0): c}), 7, 30)
        assert got.value == mp.mpf(-0.75) and got.err == 0
        assert _expand(GenExpr({(0, 0): c}), 3).terms == {(): c}

    def test_err_covers_final_roundings(self):
        # 1/3 has no binary float: the rounding of the final sum must be in
        # err, alone and next to a generator term.
        third = Fraction(1, 3)
        for terms in ({(0, 0): third}, {(0, 0): third, (1, 0): 1}):
            got = specialize_odd_squares(GenExpr(terms), 7, 10)
            exact = third + (_odd_square_values("e", 1, 7) if (1, 0) in terms else 0)
            with mp.workdps(60):
                gap = abs(got.value - mp.mpf(exact.numerator) / exact.denominator)
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
    infinite-variable value must lie within the (large) tail bound."""

    DPS = 30
    KINDS = "peh"

    @staticmethod
    def _truncated_value(kind, j, m, dps):
        """(value, err) of one generator in m variables: the p_j pass
        itself, or e_j or h_j through the specialization."""
        if kind == "p":
            return _generator_mpf("p", j, m, dps)
        got = specialize_odd_squares({"e": GenExpr.elem, "h": GenExpr.homog}[kind](j), m, dps)
        return got.value, got.err

    @staticmethod
    def _infinite_value(kind, j, dps):
        if kind == "p":
            return pi_power_eval(T_from_euler(j, 1), dps)  # t(2j)
        if kind == "e":
            return pi_power_eval(t_all_twos(j), dps)
        return pi_power_eval(depth_sum_identity(j).rhs, dps)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_truncated_value_is_exact(self, m):
        allowance = mp.mpf(10) ** (10 - self.DPS)
        for kind in self.KINDS:
            for j in range(1, 9):
                value, _ = self._truncated_value(kind, j, m, self.DPS)
                exact = _odd_square_values(kind, j, m)
                with mp.workdps(self.DPS + 20):
                    gap = abs(value - mp.mpf(exact.numerator) / exact.denominator)
                assert gap <= allowance, (kind, j, m, gap)

    @pytest.mark.parametrize("dps", [10, 30])
    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_rounding_within_derived_allowance(self, m, dps):
        # _generator_value's floors allowance, in ulps of 10**-(dps+20): m
        # for p_j, 3jm + j for e_j and h_j; it covers the gap to the exact
        # truncated value and stays below the former 10**(10-dps).
        for kind in self.KINDS:
            for j in range(1, 9):
                value, _ = _generator_mpf(kind, j, m, dps)
                exact = _odd_square_values(kind, j, m)
                ulps = m if kind == "p" else 3 * j * m + j
                assert ulps < 10**30
                with mp.workdps(dps + 40):
                    gap = abs(value - mp.mpf(exact.numerator) / exact.denominator)
                    assert gap <= mp.mpf(ulps) / 10 ** (dps + 20), (kind, j, m, gap)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_infinite_value_within_tail_bound(self, m):
        for kind in self.KINDS:
            for j in range(1, 9):
                value, err = self._truncated_value(kind, j, m, self.DPS)
                want = self._infinite_value(kind, j, self.DPS)
                assert abs(value - want.value) <= err, (kind, j, m)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_two_factor_terms(self, m):
        # N_{n,d} mixes e_k h_l products, whose error bound combines two
        # large tail bounds: the truncated value is still exact, and
        # T(2n,d) still lies within the reported err.
        allowance = mp.mpf(10) ** (10 - self.DPS)
        for n in range(1, 7):
            for d in range(1, n + 1):
                expr = monomial_depth_expr(n, d)
                got = specialize_odd_squares(expr, m, self.DPS)
                exact = sum(c * _odd_square_values("e", k, m) * _odd_square_values("h", ell, m)
                            for (k, ell), c in expr.terms.items())
                with mp.workdps(self.DPS + 20):
                    gap = abs(got.value - mp.mpf(exact.numerator) / exact.denominator)
                assert gap <= allowance, (n, d, m, gap)
                want = pi_power_eval(T_from_euler(n, d), self.DPS)
                assert abs(got.value - want.value) <= got.err, (n, d, m)


@lru_cache(maxsize=None)
def _direct_power_sum(j, m, dps):
    """The direct generator pass that the chained one replaced, verbatim:
    sum_{i<=m} scale // (2i-1)**(2j) with scale = 10**(dps+20)."""
    scale = 10 ** (dps + 20)
    return sum(scale // (2 * i - 1) ** (2 * j) for i in range(1, m + 1))


class TestChainedPowerSums:
    """p_j divides the kept quotients of p_{j-1} once more: the same integer
    as the direct pass, whatever the order of asking.  The sizes straddle the
    block edge (512) and the one-digit-square edge 2m-1 = 2**15 (m = 16385)."""

    SIZES = (2, 5, 511, 512, 513, 16384, 16385, 20000)
    DPSES = (10, 30)

    @classmethod
    def _ask(cls, order):
        """Every (value, err) of p_j, e_j and h_j, j <= 8, asked in order
        from an empty cache."""
        cells = list(itertools.product(cls.SIZES, cls.DPSES))
        js = range(8, 0, -1) if order == "falling" else range(1, 9)
        if order == "interleaved":
            keys = [(kind, j, m, dps) for j in js for m, dps in cells for kind in "peh"]
        else:
            keys = [(kind, j, m, dps) for m, dps in cells for j in js for kind in "peh"]
        _generator_value.cache_clear()
        return {key: _generator_value(*key) for key in keys}

    @pytest.fixture(scope="class")
    def rising(self):
        return self._ask("rising")

    def test_rising_order_matches_the_direct_pass(self, rising):
        for (kind, j, m, dps), (value, _) in rising.items():
            if kind == "p":
                scale = 10 ** (dps + 20)
                total = _direct_power_sum(j, m, dps)
                assert _power_sum(j, m, scale) == total, (j, m, dps)
                assert value == total, (j, m, dps)

    @pytest.mark.parametrize("order", ["falling", "interleaved"])
    def test_any_order_gives_the_same_values(self, rising, order):
        # Restarts included; e_j and h_j follow from the p_r, so they agree too.
        assert self._ask(order) == rising

    def test_interleaved_calls_keep_one_quotient_list(self):
        self._ask("interleaved")
        last_m, last_dps = self.SIZES[-1], self.DPSES[-1]
        (m, scale), j, blocks = tsums.symfunc._chain
        assert (m, scale, j) == (last_m, 10 ** (last_dps + 20), 8)
        # One block per 512 indices: the kept squares while 2i-1 < 2**15,
        # the range of 2i-1 beyond, and the quotients of p_8.
        bs = [range(2 * lo + 1, 2 * min(lo + 512, m), 2) for lo in range(0, m, 512)]
        assert [type(d) for d, _ in blocks] == [array if b[-1] < 1 << 15 else range for b in bs]
        for b, (d, x) in zip(bs, blocks, strict=True):
            assert list(d) == ([i * i for i in b] if type(d) is array else list(b))
            assert x == [scale // i ** 16 for i in b]
        # The first quotient of a chain is scale // 1 = scale at every degree,
        # so a surviving second chain, flat or in blocks, would show here.
        scales = {10 ** (dps + 20) for dps in self.DPSES}
        gc.collect()
        kept = [x for x in gc.get_objects()
                if type(x) is list and x and type(x[0]) is int and x[0] in scales]
        assert len(kept) == 1 and kept[0] is blocks[0][1]

    def test_concurrent_askers_get_the_direct_sums(self):
        # 8 threads released together, each asking four times for p_1..p_6
        # at one m in its own order: every restart and extension happens
        # under the chain's lock, so none reads a half-advanced list.
        m, dps, count = 4000, 30, 8
        scale = 10 ** (dps + 20)
        want = {j: _direct_power_sum(j, m, dps) for j in range(1, 7)}
        orders = [list(range(1, 7)), list(range(6, 0, -1))]
        rng = random.Random(27)
        while len(orders) < count:
            orders.append(rng.sample(range(1, 7), 6))
        barrier = threading.Barrier(count)
        seen = [None] * count

        def worker(i):
            barrier.wait()
            seen[i] = [{j: _power_sum(j, m, scale) for j in orders[i]} for _ in range(4)]

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
        assert seen == [[want] * 4] * count

    def test_no_second_quotient_list_is_built(self):
        # p_1..p_4 at 20 000 variables: the traced peak stays below 1.5
        # times one list of the p_1 quotients (the largest of the chain).
        m, dps = 20_000, 30
        scale = 10 ** (dps + 20)
        one_list = sys.getsizeof([0] * m) + sum(
            sys.getsizeof(scale // (2 * i - 1) ** 2) for i in range(1, m + 1))
        _generator_value.cache_clear()
        tracemalloc.start()
        try:
            for j in range(1, 5):
                _generator_value("p", j, m, dps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * one_list, (peak, one_list)
