"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Bounds, tolerances, and time limits are pinned here; the heavy
numeric sweep (criterion 7) runs a one-million-term oracle pass per weight
and dominates the wall time.
"""

import math
import time
from fractions import Fraction

import mpmath as mp

from tsums.exact import euler_number, t_even
from tsums.formulas import (
    T_from_bernoulli,
    T_from_euler,
    T_from_t_values,
    T_table_from_genfunc,
    bernoulli_euler_check,
    coeff_row,
    depth_sum_identity,
    t_all_twos,
)
from tsums.oracle import TruncationParams, T_numeric, pi_power_eval
from tsums.series import (
    cos_sqrt_series,
    series_quotient,
    tan_link_series,
)
from tsums.symfunc import check_bivariate_factorization, check_monomial_expansion


def _criterion(num, desc, ok, elapsed, limit=None):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {desc} ({elapsed:.2f}s)")
    assert ok, f"criterion {num} failed: {desc}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"


def test_criterion_1_published_coefficient_rows():
    t0 = time.perf_counter()
    expected = {
        5: [Fraction(7, 128), Fraction(-3, 64), Fraction(1, 320)],
        6: [Fraction(21, 512), Fraction(-7, 192), Fraction(1, 256)],
        7: [
            Fraction(33, 1024),
            Fraction(-15, 512),
            Fraction(1, 256),
            Fraction(-1, 21504),
        ],
        8: [
            Fraction(429, 16384),
            Fraction(-99, 4096),
            Fraction(15, 4096),
            Fraction(-1, 12288),
        ],
    }
    ok = all(
        [c for _, c in coeff_row(d).pairs] == want for d, want in expected.items()
    )
    _criterion(1, "coefficient rows for depths 5-8", ok, time.perf_counter() - t0, 1)


def test_criterion_2_triple_path_equality():
    t0 = time.perf_counter()
    N = 30
    table = T_table_from_genfunc(N)
    cells = 0
    ok = True
    for n in range(1, N + 1):
        for d in range(1, n + 1):
            ref = T_from_euler(n, d)
            if not (
                T_from_t_values(n, d) == ref
                and T_from_bernoulli(n, d) == ref
                and table.value(n, d) == ref
            ):
                ok = False
            cells += 1
    # 1 <= d <= n <= 30 spans 30*31/2 = 465 cells.
    ok = ok and cells == 465
    _criterion(2, "four-route agreement on 465 cells, n <= 30", ok,
               time.perf_counter() - t0, 30)


def test_criterion_3_boundary_rows():
    from tsums.exact import PiPower

    t0 = time.perf_counter()
    ok = True
    for n in range(1, 31):
        all_twos = PiPower(Fraction(1, 4**n * math.factorial(2 * n)), 2 * n)
        ok = ok and T_from_euler(n, n) == t_all_twos(n) == all_twos
        ok = ok and T_from_euler(n, 1) == t_even(n)
    _criterion(3, "boundary rows T(2n,n) and T(2n,1), n <= 30", ok,
               time.perf_counter() - t0)


def test_criterion_4_depth_sum_identity():
    t0 = time.perf_counter()
    ok = all(depth_sum_identity(n).equal for n in range(1, 31))
    _criterion(4, "depth sums match the Euler-number value, n <= 30", ok,
               time.perf_counter() - t0)


def test_criterion_5_bernoulli_euler_identity():
    t0 = time.perf_counter()
    ok = True
    branches = set()
    for n in range(1, 16):
        for d in range(1, 41):
            r = bernoulli_euler_check(n, d)
            ok = ok and r.passed
            branches.add(r.case)
    ok = ok and branches == {"d<=n", "n<d<2n", "d>=2n"}
    _criterion(5, "Bernoulli-Euler identity on the 15x40 grid", ok,
               time.perf_counter() - t0, 10)


def test_criterion_6_symmetric_function_identities():
    t0 = time.perf_counter()
    m = 8
    ok = check_bivariate_factorization(8, m)
    ok = ok and all(
        check_monomial_expansion(n, d, m)
        for n in range(1, 9)
        for d in range(1, n + 1)
    )
    _criterion(6, "symmetric-function identities, 8 variables, degree 8", ok,
               time.perf_counter() - t0, 60)


def test_criterion_7_oracle_agreement():
    t0 = time.perf_counter()
    params = TruncationParams(terms=1_000_000, tail_order=1)
    ok = True
    for n in range(5, 0, -1):
        for d in range(1, n + 1):
            num = T_numeric(n, d, params, dps=50)
            ref = pi_power_eval(T_from_euler(n, d), dps=50)
            gap = num - ref
            if abs(gap.value) > gap.err:
                ok = False
            if num.err / abs(ref.value) > mp.mpf("1e-6"):
                ok = False
    _criterion(7, "million-term oracle within reported bounds, n <= 5", ok,
               time.perf_counter() - t0, 300)


def test_criterion_8_secant_euler_coefficients():
    t0 = time.perf_counter()
    r = series_quotient((1,), cos_sqrt_series(30))
    ok = all(
        r[j] == Fraction((-1) ** j * euler_number(2 * j), math.factorial(2 * j))
        for j in range(31)
    )
    _criterion(8, "secant series carries the Euler numbers, j <= 30", ok,
               time.perf_counter() - t0)


def test_criterion_9_tangent_series_slots():
    t0 = time.perf_counter()
    s = tan_link_series(20)
    ok = all(s[m] == t_even(m).coeff * 4**m for m in range(1, 21))
    _criterion(9, "tangent series matches 4**m t(2m) slots, m <= 20", ok,
               time.perf_counter() - t0)
