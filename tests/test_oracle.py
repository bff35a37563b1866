"""The brute-force series oracle against the exact closed forms."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest

from tsums import oracle
from tsums.exact import t_even
from tsums.formulas import T_from_euler, t_all_twos
from tsums.oracle import (
    DivergentSeriesError,
    PrecReal,
    TruncationParams,
    T_numeric,
    _weight_ladder,
    _weight_rows,
    pi_power_eval,
    t_numeric,
)
from tsums.verify import _within

FAST = TruncationParams(terms=100_000, tail_order=1)


class Index:
    """An integer type that defines only ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def compositions(n, d):
    """The compositions of n into d positive parts, as a reference for the
    sums T_numeric forms without enumerating them."""
    parts = range(1, n - d + 2)
    return [c for c in itertools.product(parts, repeat=d) if sum(c) == n]


def exact_sum(parts):
    """The PrecReal whose value and err are the exact sums of the parts'."""
    value = err = mp.mpf(0)
    for p in parts:
        value = mp.fadd(value, p.value, exact=True)
        err = mp.fadd(err, p.err, exact=True)
    return PrecReal(value, err)


def _uncapped_t_sums(s, N, scale):
    """t_numeric's pass one index at a time, dividing by the real powers
    b**s_i: the sums before and after the last index N, a reference for its
    exponent cap."""
    A = [0] * len(s) + [scale]
    for b in range(1, 2 * N, 2):
        if b == 2 * N - 1:
            inner = A[:]
        for i, e in enumerate(s):
            A[i] += A[i + 1] // b**e
    return inner, A


def _uncapped_finish(s, inner, A, N, scale, params, dps):
    """t_numeric's finish with the real powers (2N-1)**s_i, a reference
    for its exponent cap."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_cap", lambda d, N, scale: math.inf)
        return oracle._t_finish(s, inner, A, N, scale, params, dps)


def _full_scale_t_numeric(s, params, dps=oracle.DEFAULT_DPS):
    """t(s) summed at the ladder's scale 10**(dps+20) and finished as
    t_numeric finishes, whatever scale t_numeric picks."""
    N, scale = params.terms, 10 ** (dps + 20)
    return oracle._t_finish(s, *oracle._t_sums(s, N, scale), N, scale, params, dps)


def _reference_t_sums(s, N, scale):
    """t_numeric's pass one index at a time: the fixed-point sums A before
    and after the last index N."""
    d = len(s)
    cap = scale.bit_length() + d * (2 * N).bit_length()
    steps = [(i, min(e, cap)) for i, e in enumerate(s)]
    A = [0] * d + [scale]
    for b in range(1, 2 * N - 1, 2):
        for i, e in steps:
            A[i] += A[i + 1] // b**e
    inner = A[:]  # before the last index
    b = 2 * N - 1
    for i, e in steps:
        A[i] += A[i + 1] // b**e
    return inner, A


def _reference_weight_ladder(n, N, scale):
    """_weight_ladder one index at a time."""
    S = [[scale] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    # k descending: S[k-1] still holds the sums over indices below m.
    ladder = [(S[k - 1], S[k], range(k, n + 1)) for k in range(n, 0, -1)]
    for m in range(1, N + 1):
        if m == N:
            inner = [row[:] for row in S]
        # Two divisions by b = 2m-1 < 2**30, one CPython digit, floor
        # exactly as one by b**2, which takes two digits from m > 16384 on.
        b = 2 * m - 1
        for prev, row, weights in ladder:
            g = 0
            for w in weights:
                g = (prev[w - 1] + g) // b // b
                row[w] += g
    return inner, S


# Depths 1-5: inner 1s, repeated exponents, and 1000, above the exponent cap
# at dps 10 for every N below.
VECTORS = ([2], [3, 1], [2, 2, 2], [5, 1, 1, 3], [2, 1000], [4, 4, 1, 4, 4], [3, 2, 1, 1, 2])


def _check_kernels(s_list, ns, N, scale=10**30):  # dps = 10
    """_t_sums and _weight_ladder give the integers of one index at a time."""
    for s in s_list:
        assert oracle._t_sums(s, N, scale) == _reference_t_sums(s, N, scale), (s, N)
    for n in ns:
        assert _weight_ladder(n, N, scale) == _reference_weight_ladder(n, N, scale), (n, N)


class TestKernels:
    """The generated kernels give the same integers as one index at a time."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 100])
    def test_matches_one_index_at_a_time(self, N):
        # N = 1 runs only the last index, and N = 2 one index before it.
        _check_kernels(VECTORS, range(1, 6), N)

    @pytest.mark.parametrize("bs", [range(1, 64, 2), range(32701, 1 << 15, 2), range(32741, 32800, 2),
                                    range(1999941, 2000060, 2)],
                             ids=["from-1", "below-2**15", "straddles-2**15", "near-2*10**6"])
    def test_divisions_floor_by_the_power(self, bs):
        # One chain per exponent, each from its own slot of random sums into a
        # slot at 0: one index b adds x // b**e exactly.  Each x has 64 bits
        # more than b**e, so no quotient is 0; 1000 stands for an exponent at
        # the cap, whose powers the kernel builds like any other.
        rng = random.Random(20261019)
        exps = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 1000)
        kernel = oracle._kernel(2 * len(exps), tuple((e, ((2 * c + 1, 2 * c),)) for c, e in enumerate(exps)))
        for b in bs:
            for _ in range(3):
                xs = [rng.getrandbits(e * b.bit_length() + 64) for e in exps]
                got = kernel([v for x in xs for v in (0, x)], b, b + 2)
                assert got[::2] == [x // b**e for x, e in zip(xs, exps)], b
                assert got[1::2] == xs, b

    def test_divisions_chain_one_digit_divisors(self):
        # The rule of the module docstring, read off the emitted source: below
        # 2**15, where q = b*b fits one 30-bit digit, a chain of at most two
        # one-digit divisors for e <= 4; from 2**15 on two divisions by b for
        # e = 2; else one division by b**e.  Each loop first assigns every
        # power it names once, as the product of two powers already built,
        # lowest first, and no kernel calls **.
        exps = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 1000)
        chains = tuple((e, ((c + 1, 0),)) for c, e in enumerate(exps))
        source = oracle._kernel_source(len(exps) + 1, chains)
        assert "**" not in source
        low, high = source.split("\n    for b in ")[1:]
        assert low.startswith("range(lo, min(hi, 32769), 2):") and 32767**2 < 1 << 30
        assert high.startswith("range(max(lo, 32769), hi, 2):")
        powers = [f"b{e}" for e in exps[4:]]
        rules = ((low, ["b", "q", "q // b", "q // q"] + powers), (high, ["b", "b // b", "b3", "b4"] + powers))
        for loop, divs in rules:
            lines = [line.strip() for line in loop.splitlines() if line.startswith(" " * 8)]
            assert lines[-len(exps):] == [f"x0 += x{c + 1} // {div}" for c, div in enumerate(divs)], loop
            built = {"b": 1}
            for line in lines[:-len(exps)]:
                name, _, left, _, right = line.split()
                assert name not in built and left in built and right in built, line
                assert right == left or right == "b", line
                built[name] = built[left] + built[right]
                assert name == ("q" if built[name] == 2 else f"b{built[name]}"), line
            assert list(built.values()) == sorted(built.values()), loop
            assert {name for div in divs for name in div.split(" // ")} <= set(built), loop

    def test_ladder_kernel_is_pinned(self, monkeypatch):
        # The kernel _weight_ladder runs at n = 2, which divides by b**2
        # only: // q below 2**15, // b // b above.
        shapes = []
        compiled = oracle._kernel
        monkeypatch.setattr(oracle, "_kernel", lambda *shape: shapes.append(shape) or compiled(*shape))
        _weight_ladder(2, 3, 10**30)
        assert len(shapes) == 1
        assert oracle._kernel_source(*shapes[0]) == """\
def kernel(x, lo, hi):
    x0, x1, x2, x3, x4, x5, x6, x7, x8, = x
    for b in range(lo, min(hi, 32769), 2):
        q = b * b
        x8 += x4 // q
        g = x0 // q
        x4 += g
        x5 += g // q
    for b in range(max(lo, 32769), hi, 2):
        x8 += x4 // b // b
        g = x0 // b // b
        x4 += g
        x5 += g // b // b
    return [x0, x1, x2, x3, x4, x5, x6, x7, x8]
"""

    @pytest.mark.parametrize("s, Ns", [([16], (16384, 16385, 16386)), ([40], (31, 32, 33)),
                                       ([12], (16384, 16385, 16386)), ([3], (16384, 16385, 16386))],
                             ids=["16", "40", "12", "3"])
    def test_depth_one_pass_stops_where_quotients_vanish(self, monkeypatch, s, Ns):
        # At depth 1 each index adds scale // b**e, which is 0 for every odd
        # b > 2**ceil(bitlen(scale)/e): 2**15 for t(16) and 2**6 for t(40)
        # at scale 10**70 (233 bits), each between the N here.  t(12) (2**20)
        # and t(3) (2**78) run every index.
        scale = 10**70
        cut = 1 << -(-scale.bit_length() // s[0])
        compiled, ends = oracle._kernel, []

        def recorded(slots, chains):
            kernel = compiled(slots, chains)

            def run(x, lo, hi):
                ends.append(hi)
                return kernel(x, lo, hi)
            return run

        monkeypatch.setattr(oracle, "_kernel", recorded)
        for N in Ns:
            ends.clear()
            assert oracle._t_sums(s, N, scale) == _reference_t_sums(s, N, scale), (s, N)
            assert ends == [min(2 * N - 1, cut), min(2 * N + 1, cut)], (s, N)

    def test_kernels_are_compiled_once_per_pattern(self, monkeypatch):
        # Kernels are keyed by the capped exponents, so vectors that differ
        # only past the cap share one; a repeated vector, and a ladder of a
        # seen weight at another cutoff or precision, compile nothing.
        rng = random.Random(7)
        vectors = set()
        while len(vectors) < 50:
            vectors.add((rng.randint(2, 9), rng.randint(1, 9), rng.randint(1, 9)))
        oracle._kernel.cache_clear()
        for s in vectors:
            t_numeric(s, TruncationParams(terms=20))
        assert oracle._kernel.cache_info().misses == len(vectors)
        t_numeric(min(vectors), TruncationParams(terms=20))
        assert oracle._kernel.cache_info().misses == len(vectors)
        for s in ([2, 1000], [2, 2000], [2, 10**9]):  # all past the cap of 86 at dps 10
            t_numeric(s, TruncationParams(terms=20), dps=10)
        assert oracle._kernel.cache_info().misses == len(vectors) + 1
        monkeypatch.setattr(oracle, "_rows", {})
        T_numeric(4, 2, TruncationParams(terms=20))
        compiled = oracle._kernel.cache_info().misses
        T_numeric(4, 2, TruncationParams(terms=30))
        T_numeric(4, 2, TruncationParams(terms=20), dps=30)
        assert oracle._kernel.cache_info().misses == compiled


class TestBlocks:
    """A kernel called over consecutive blocks of indices, its state carried
    from call to call, gives the integers of one call over them all."""

    @pytest.mark.parametrize("block", [5, 512])
    @pytest.mark.parametrize("N", [16384, 16385, 16386])
    def test_one_digit_square_limit(self, monkeypatch, block, N):
        # b = 2m-1 reaches 2**15 at m = 16385, where b**2 takes a second
        # digit and the kernels switch from // q to // b // b; blocks of 5
        # straddle it, blocks of 512 end at b = 32767.  The vectors divide
        # by b**e for e = 1..5 and a capped 1000 on both sides of it.
        compiled = oracle._kernel

        def blocked(slots, chains):
            kernel = compiled(slots, chains)

            def run(x, lo, hi):
                for start in range(lo, hi, 2 * block):
                    x = kernel(x, start, min(start + 2 * block, hi))
                return x
            return run

        monkeypatch.setattr(oracle, "_kernel", blocked)
        _check_kernels(([5, 4, 3, 2, 1], [3, 1000]), (1, 2, 5), N)


class TestTNumeric:
    @pytest.mark.parametrize("tail_order", [0, 1])
    def test_capped_exponents_are_exact(self, tail_order):
        # At dps 10 and N <= 3 the cap is at most 100 + 3d bits, so every
        # exponent here from 150 up is capped.  The pass gives the sums of
        # the real powers b**s_i.  The finish's capped powers of 2N-1 only
        # raise err, and move it and the value by far less than one ulp of
        # the pass; at N = 1 they change nothing.
        for N in (1, 2, 3):
            params = TruncationParams(terms=N, tail_order=tail_order)
            for s in ([2], [150], [2, 200], [300, 1, 2], [3, 2, 1000], [1000, 150, 2]):
                scale = oracle._t_scale(s, N, 10)
                sums = _uncapped_t_sums(s, N, scale)
                assert oracle._t_sums(s, N, scale) == sums, (s, N)
                got = t_numeric(s, params, dps=10)
                want = _uncapped_finish(s, *sums, N, scale, params, 10)
                half_ulp = mp.mpf(1) / (2 * scale)
                assert 0 <= mp.fsub(got.err, want.err, exact=True) <= half_ulp, (s, N)
                assert abs(mp.fsub(got.value, want.value, exact=True)) <= half_ulp, (s, N)
                assert got == want or N > 1, (s, N)

    def test_scale_follows_the_bound(self, monkeypatch):
        # The full scale 10**(dps+20) when N < d, where no inner sum sizes
        # it, and where the rule asks for more digits: t(16) at the
        # benchmark's 40 000 terms, and t(12) at 10**5 terms, which
        # test_bound_covers_final_rounding checks at that scale.  Far
        # fewer digits for t(2) at the default 10**6 terms.  The pass
        # itself is never run.
        class Scale(Exception):
            pass

        def record(s, N, scale):
            raise Scale(scale)

        monkeypatch.setattr(oracle, "_t_sums", record)

        def scale_of(s, N, dps=oracle.DEFAULT_DPS):
            with pytest.raises(Scale) as got:
                t_numeric(s, TruncationParams(terms=N), dps)
            return got.value.args[0]

        for s, N in (([2, 3], 1), ([3, 1, 2], 2), ([2, 2, 2, 2, 2], 4), ([16], 40_000), ([12], 10**5)):
            assert scale_of(s, N) == 10**70, (s, N)
        assert scale_of([5, 3], 1, dps=10) == 10**30
        assert scale_of([2], 10**6) <= 10**40

    @pytest.mark.parametrize("N", [1, 2, 1000, 40_000])
    def test_scale_keeps_value_and_bound(self, N):
        # Below the full scale the quantization allowance stays under 1e-16
        # of the bound, so err moves by less than 1e-15 of itself and the
        # value by far less than err.  Every vector with d <= N runs below the
        # full scale, so no comparison here is between equal passes.
        dps = oracle.DEFAULT_DPS
        for s in VECTORS + ([3, 1, 2], [5, 3, 3], [2, 1, 1, 5, 3]):
            assert (oracle._t_scale(s, N, dps) < 10 ** (dps + 20)) == (N >= len(s)), (s, N)
            sums = oracle._t_sums(s, N, 10 ** (dps + 20))
            for tail_order in (0, 1):
                params = TruncationParams(terms=N, tail_order=tail_order)
                got = t_numeric(s, params, dps)
                full = oracle._t_finish(s, *sums, N, 10 ** (dps + 20), params, dps)
                assert abs(mp.fsub(got.value, full.value, exact=True)) <= got.err, (s, N, tail_order)
                assert abs(got.err - full.err) <= mp.mpf("1e-15") * full.err, (s, N, tail_order)

    def test_depth_one(self):
        got = t_numeric([2], FAST)
        want = pi_power_eval(t_even(1))
        assert abs(got.value - want.value) <= got.err
        assert abs(got.value - mp.mpf("1.2337005501361698")) < mp.mpf("1e-10")

    def test_depth_two(self):
        got = t_numeric([2, 2], FAST)
        want = pi_power_eval(t_all_twos(2))
        assert abs(got.value - want.value) <= got.err

    def test_weight_six_depth_two_pair(self):
        got = exact_sum([t_numeric([4, 2], FAST), t_numeric([2, 4], FAST)])
        want = pi_power_eval(T_from_euler(3, 2))
        assert abs(got.value - want.value) <= got.err

    def test_closed_form_agreement_full_terms(self):
        # n <= 6 at the default cutoff of one million terms.  The reference
        # carries its own rounding bound, which dominates once the series
        # residual drops below the working precision.
        params = TruncationParams(terms=1_000_000, tail_order=1)
        for n in range(1, 7):
            gap = t_numeric([2 * n], params) - pi_power_eval(t_even(n))
            assert abs(gap.value) <= gap.err, n

    def test_divergent_leading_exponent(self):
        with pytest.raises(DivergentSeriesError):
            t_numeric([1, 2], FAST)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            t_numeric([], FAST)
        with pytest.raises(ValueError):
            t_numeric([2, 0], FAST)

    def test_rejects_non_integer_exponent(self):
        # Truncating 2.5 to 2 would silently return t(2); True is not 1.
        for exponents in ([2.5], [2, True]):
            with pytest.raises(TypeError):
                t_numeric(exponents, FAST)

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            t_numeric([2], FAST, dps=-25)

    def test_rejects_non_integer_precision(self):
        # A float dps would make the fixed-point scale a float.
        with pytest.raises(TypeError):
            t_numeric([4], TruncationParams(terms=50), dps=30.0)

    def test_monotone_error_refinement(self):
        errs = [
            t_numeric([2, 2], TruncationParams(terms=N)).err
            for N in (1_000, 10_000, 100_000)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_bound_covers_final_rounding(self):
        # Once the truncation bound is far below 10**-dps, the rounding of
        # the conversion to mpmath floats must still lie within err.
        cases = (
            (12, t_numeric([12], TruncationParams(terms=10**5))),
            (10, t_numeric([10], TruncationParams(terms=10**6))),
            (12, T_numeric(6, 1, TruncationParams(terms=10**5))),
        )
        with mp.workdps(120):
            for s, got in cases:
                want = (1 - mp.mpf(2) ** -s) * mp.zeta(s)
                assert abs(mp.fsub(got.value, want, exact=True)) <= got.err, (s, got.err)

    @pytest.mark.parametrize("s, N, dps", [([600, 2], 2, 10), ([600, 2], 2, 50),
                                           ([300, 4, 2], 3, 50)])
    def test_bound_holds_below_the_resolution(self, s, N, dps):
        # t(600,2) is about 3**-600, far below the pass's absolute scale of
        # at most 10**(dps+20), so the value carries no significant digit;
        # err must still cover it.  The exact sum over the outer indices up
        # to 60 stands for t(s): its tail is below 119**-300.
        d = len(s)
        sums = [Fraction(1)] + [Fraction(0)] * d  # sums[k]: t(s_{d-k+1},...,s_d)
        for n in range(1, 61):
            for k in range(d, 0, -1):
                sums[k] += sums[k - 1] / (2 * n - 1) ** s[d - k]
        got = t_numeric(s, TruncationParams(terms=N), dps=dps)
        man, exp = got.value.man_exp
        gap = abs(man * Fraction(2) ** exp - sums[d])
        man, exp = got.err.man_exp
        assert gap <= man * Fraction(2) ** exp, (s, N, dps)

    def test_memory_does_not_grow_with_terms(self, monkeypatch):
        # The kernels keep the d+1 sums (the ladder's (n+1)**2 cells) in
        # local variables, so the peak stays under a megabyte and grows with
        # N at most as the powers b**e lengthen (log N), never with the
        # number of indices.  A first run compiles each kernel, so that the
        # peaks measure the passes, not the compiler.
        def peak(run, N):
            tracemalloc.start()
            try:
                run(TruncationParams(terms=N))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def ladder(params):
            monkeypatch.setattr(oracle, "_rows", {})
            T_numeric(5, 1, params)

        for run, Ns in (
            (lambda params: t_numeric([2, 2, 2], params), (2_000, 200_000)),
            (lambda params: t_numeric([200, 150, 100], params), (5_000, 20_000)),
            (ladder, (600, 2_400)),
        ):
            run(TruncationParams(terms=2))
            small, large = (peak(run, N) for N in Ns)
            assert max(small, large) < 1024 * 1024, (Ns, small, large)
            assert large < 1.25 * small, (Ns, small, large)

    def test_tail_correction_tightens(self):
        raw = t_numeric([2], TruncationParams(terms=10_000, tail_order=0))
        corrected = t_numeric([2], TruncationParams(terms=10_000, tail_order=1))
        want = pi_power_eval(t_even(1))
        assert abs(raw.value - want.value) <= raw.err
        assert abs(corrected.value - want.value) <= corrected.err
        assert corrected.err < raw.err
        assert abs(corrected.value - want.value) < abs(raw.value - want.value)


class TestTNumericSums:
    def test_cells(self):
        for n, d in ((1, 1), (2, 2), (3, 2)):
            got = T_numeric(n, d, FAST)
            want = pi_power_eval(T_from_euler(n, d))
            assert abs(got.value - want.value) <= got.err, (n, d)
        # At the smallest cutoffs the tail term dominates err: every cell
        # with n <= 7, and t(2n) through t_numeric, lies within its bound of
        # the closed form, by two exact comparisons.
        for N in (1, 2, 3, 4, 5):
            for tail_order in (0, 1):
                params = TruncationParams(terms=N, tail_order=tail_order)
                T_numeric(7, 1, params)  # one ladder pass serves every cell
                for n in range(1, 8):
                    got = t_numeric([2 * n], params)
                    assert _within(got, pi_power_eval(t_even(n))), (N, tail_order, n)
                    for d in range(1, n + 1):
                        got = T_numeric(n, d, params)
                        want = pi_power_eval(T_from_euler(n, d))
                        assert _within(got, want), (N, tail_order, n, d)

    def test_beyond_depth_is_exact_zero(self):
        r = T_numeric(2, 3, FAST)
        assert r.value == 0 and r.err == 0

    def test_error_adds_member_bounds(self):
        # The grouped bound is the sum of the member bounds, up to the
        # members' own passes and scales, and the members' sum lies within
        # it.  At d = 1 and
        # d = n the cell has one member, and the two passes agree exactly
        # at the ladder's scale.
        for tail_order in (0, 1):
            params = TruncationParams(terms=2_000, tail_order=tail_order)
            for n in range(1, 7):
                for d in range(1, n + 1):
                    members = [
                        t_numeric([2 * j for j in c], params)
                        for c in compositions(n, d)
                    ]
                    want = exact_sum(members)
                    got = T_numeric(n, d, params)
                    assert abs(mp.fsub(got.value, want.value, exact=True)) <= got.err, (
                        tail_order, n, d)
                    assert abs(got.err - want.err) <= mp.mpf("1e-12") * want.err, (
                        tail_order, n, d)
                    if d in (1, n):
                        (c,) = compositions(n, d)
                        member = _full_scale_t_numeric([2 * j for j in c], params)
                        assert (got.value, got.err) == (member.value, member.err), (
                            tail_order, n, d)

    def test_reassociation_within_bounds(self):
        parts = [
            t_numeric([2 * j for j in c], FAST) for c in compositions(4, 2)
        ]
        forward = sum((p.value for p in parts), mp.mpf(0))
        backward = sum((p.value for p in reversed(parts)), mp.mpf(0))
        err = sum((p.err for p in parts), mp.mpf(0))
        assert abs(forward - backward) <= err

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            T_numeric(0, 1, FAST)

    def test_rejects_low_precision(self, monkeypatch):
        monkeypatch.setattr(oracle, "_rows", {})
        params = TruncationParams(terms=50)
        with pytest.raises(ValueError):
            T_numeric(2, 1, params, dps=-25)
        assert oracle._rows == {}

    def test_rejects_non_integer_precision(self, monkeypatch):
        # On a cold memo a float dps would run the ladder in floats, report
        # a bound far below the real error and store that row under a key
        # equal to that of dps 50, where integer calls would find it.
        monkeypatch.setattr(oracle, "_rows", {})
        params = TruncationParams(terms=53)
        with pytest.raises(TypeError):
            T_numeric(5, 1, params, 50.0)
        assert oracle._rows == {}

    @pytest.mark.parametrize("dps", [50.0, Fraction(50)], ids=["float", "Fraction"])
    def test_rejects_non_integer_precision_on_warm_memo(self, monkeypatch, dps):
        # Once dps 50 is in the memo, 50.0 and Fraction(50), which hash like
        # 50, would find its row; they are refused as on a cold memo.
        monkeypatch.setattr(oracle, "_rows", {})
        params = TruncationParams(terms=50)
        with pytest.raises(TypeError):
            T_numeric(2, 1, params, dps)
        assert oracle._rows == {}
        T_numeric(2, 1, params, 50)
        with pytest.raises(TypeError):
            T_numeric(2, 1, params, dps)
        with pytest.raises(TypeError):
            T_numeric(2, 1, TruncationParams(terms=50), dps)

    def test_rejects_low_precision_beyond_depth(self):
        # The exact zero for d > n is no way round the precision check.
        with pytest.raises(ValueError):
            T_numeric(2, 3, FAST, dps=-25)

    def test_rejects_non_integer_depth(self, monkeypatch):
        # Rejected before the ladder pass, not at the row index after it.
        monkeypatch.setattr(oracle, "_rows", {})
        params = TruncationParams(terms=51)
        with pytest.raises(TypeError):
            T_numeric(3, 1.5, params)
        assert oracle._rows == {}
        # A memoized row does not take it either.
        T_numeric(3, 1, params)
        with pytest.raises(TypeError):
            T_numeric(3, 1.5, params)

    @pytest.mark.parametrize("n, d", [(True, 1), (1, True), (True, True)])
    def test_rejects_bool_on_cold_and_warm_memo(self, monkeypatch, n, d):
        # True is not taken for 1, whether or not the row of 1 is memoized.
        monkeypatch.setattr(oracle, "_rows", {})
        params = TruncationParams(terms=50)
        with pytest.raises(TypeError):
            T_numeric(n, d, params)
        assert oracle._rows == {}
        T_numeric(2, 1, params)
        with pytest.raises(TypeError):
            T_numeric(n, d, params)

    def test_hit_does_not_hash_the_params(self, monkeypatch):
        # The memo is keyed by the plain fields: the dataclass's generated
        # __hash__ is a Python call that would double the cost of a hit.
        params = TruncationParams(terms=50)
        warm = T_numeric(3, 2, params)

        def refuse(self):
            raise AssertionError("TruncationParams hashed on a memo hit")

        monkeypatch.setattr(TruncationParams, "__hash__", refuse)
        assert T_numeric(3, 2, params) is warm
        assert T_numeric(2, 2, TruncationParams(terms=50), 50) is T_numeric(2, 2, params)

    def test_index_type_reads_the_memo(self, monkeypatch):
        # A type with only __index__ is checked, then served from the memo
        # like the plain ints: one ladder pass for all three calls.
        calls = []

        def counted(*args):
            calls.append(args[0])
            return _weight_rows(*args)

        monkeypatch.setattr(oracle, "_rows", {})
        monkeypatch.setattr(oracle, "_weight_rows", counted)
        params = TruncationParams(terms=Index(50))
        cold = T_numeric(Index(3), Index(2), params, Index(30))
        warm = T_numeric(Index(3), Index(2), params, Index(30))
        assert calls == [3]
        assert cold is warm is T_numeric(3, 2, TruncationParams(terms=50), 30)
        assert calls == [3]


class TestCompositions:
    def test_counts(self):
        for n in range(1, 9):
            for d in range(1, n + 1):
                assert len(compositions(n, d)) == math.comb(n - 1, d - 1)

    def test_empty_when_impossible(self):
        assert compositions(2, 3) == []


def _exact_partial_sums(n, M):
    """S_k[w](M) of the module docstring as Fractions, summed over the index
    tuples M >= m_1 > ... > m_k >= 1 and the compositions of w."""
    S = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    S[0][0] = Fraction(1)
    for k in range(1, n + 1):
        for desc in itertools.combinations(range(M, 0, -1), k):
            for w in range(k, n + 1):
                for parts in compositions(w, k):
                    den = math.prod((2 * m - 1) ** (2 * j) for m, j in zip(desc, parts))
                    S[k][w] += Fraction(1, den)
    return S


class TestWeightLadder:
    @pytest.mark.parametrize("n,N", [(5, 1), (5, 2), (5, 12), (3, 40)])
    def test_matches_exact_partial_sums(self, n, N):
        scale = 10**30  # dps = 10
        inner, final = _weight_ladder(n, N, scale)
        for table, M in ((inner, N - 1), (final, N)):
            exact = _exact_partial_sums(n, M)
            for k in range(n + 1):
                for w in range(k, n + 1):
                    short = scale * exact[k][w] - table[k][w]
                    # The quantization bound of the module docstring, with
                    # (k, w) in place of (d, n).
                    bound = 0 if k == 0 else max(M - 1, 0) * (
                        9 / 8 + 0.28 * (k - 1) * (w - k + 1))
                    assert 0 <= short <= bound, (M, k, w, float(short))

    def test_row_is_memoized(self):
        params = TruncationParams(terms=50)
        assert T_numeric(4, 2, params) is T_numeric(4, 2, params)

    def test_one_digit_division_matches_square(self):
        # (x // b) // b == x // b**2; N = 17000 runs past m = 16384, where
        # (2m-1)**2 needs a second 30-bit digit.
        n, N, scale = 2, 17_000, 10**30
        S = [[scale] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
        for m in range(1, N + 1):
            if m == N:
                inner = [row[:] for row in S]
            for k in range(n, 0, -1):
                g = 0
                for w in range(k, n + 1):
                    g = (S[k - 1][w - 1] + g) // (2 * m - 1) ** 2
                    S[k][w] += g
        assert _weight_ladder(n, N, scale) == (inner, S)

    @pytest.mark.parametrize("tail_order", [0, 1])
    @pytest.mark.parametrize("N", [1, 2, 3, 1000])
    def test_top_weight_pass_serves_lower_weights(self, monkeypatch, N, tail_order):
        params = TruncationParams(terms=N, tail_order=tail_order)
        cells = [(n, d) for n in range(1, 6) for d in range(1, n + 1)]
        monkeypatch.setattr(oracle, "_rows", {})
        ascending = [T_numeric(n, d, params) for n, d in cells]  # one pass per weight
        monkeypatch.setattr(oracle, "_rows", {})
        T_numeric(5, 1, params)
        shared = [T_numeric(n, d, params) for n, d in cells]
        for (n, d), a, b in zip(cells, ascending, shared):
            assert (a.value, a.err) == (b.value, b.err), (n, d)

    def test_lower_weights_run_no_pass(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return _weight_ladder(*args)

        monkeypatch.setattr(oracle, "_rows", {})
        monkeypatch.setattr(oracle, "_weight_ladder", counted)
        params = TruncationParams(terms=50)
        T_numeric(5, 1, params)
        T_numeric(3, 2, params)
        T_numeric(1, 1, params)
        assert calls == [5]
        T_numeric(6, 2, params)
        assert calls == [5, 6]


class TestPrecReal:
    def test_err_propagation(self):
        a = PrecReal(mp.mpf(2), mp.mpf("0.5"))
        b = PrecReal(mp.mpf(3), mp.mpf("0.25"))
        assert (a - b).err == mp.mpf("0.75")

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            PrecReal(mp.mpf(1), mp.mpf(-1))


class TestPiPowerEval:
    def test_values(self):
        with mp.workdps(60):
            v = pi_power_eval(t_even(1))
            assert abs(v.value - mp.pi**2 / 8) < mp.mpf("1e-40")
            v = pi_power_eval(t_all_twos(2))
            assert abs(v.value - mp.pi**4 / 384) < mp.mpf("1e-40")

    def test_zero(self):
        from tsums.exact import PiPower

        v = pi_power_eval(PiPower.zero())
        assert v.value == 0 and v.err == 0

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            pi_power_eval(t_even(1), dps=5)

    def test_rejects_non_integer_precision(self):
        for dps in (30.0, True):
            with pytest.raises(TypeError):
                pi_power_eval(t_even(1), dps=dps)

    @pytest.mark.parametrize("dps", [10, 30, 50])
    def test_err_covers_the_rounding(self, dps):
        # The stated bound |value| 10**(2-dps) holds against an evaluation
        # at three times the digits, with that one's own err counted, for
        # every T(2n,d) with n <= 60.
        for n in range(1, 61):
            for d in range(1, n + 1):
                x = T_from_euler(n, d)
                assert _within(pi_power_eval(x, dps), pi_power_eval(x, 3 * dps)), (n, d, dps)


class TestTruncationParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationParams(terms=0)
        with pytest.raises(ValueError):
            TruncationParams(tail_order=2)

    def test_rejects_non_integer_terms(self):
        for terms in (2.5, True):
            with pytest.raises(TypeError):
                TruncationParams(terms=terms)

    @pytest.mark.parametrize("tail_order", [1.0, True])
    def test_rejects_non_integer_tail_order(self, tail_order):
        with pytest.raises(TypeError):
            TruncationParams(tail_order=tail_order)
