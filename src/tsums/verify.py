"""Verification suites: every identity the library implements, as checkable
case batteries with a JSON-serializable report.

Each suite yields its cases as ``(id, params, expected, actual, passed)``
tuples; :func:`run_suite` is the one place that checks the overrides, runs
the suites and builds their report, the very dict the CLI serializes to
stdout, deriving its exit status solely from the failure count.  Only the
``symmetric`` and ``oracle`` suites compute with mpmath, and they import it
when they run; the exact suites never load it.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from fractions import Fraction

from . import exact, formulas, oracle, series, symfunc

__all__ = ["SUITES", "run_suite"]


def suite_closed_forms(max_n: int) -> Iterator[tuple]:
    """All four exact routes agree on every cell 1 <= d <= n <= max_n."""
    table = formulas.T_table_from_genfunc(max_n)
    for n in range(1, max_n + 1):
        for d in range(1, n + 1):
            ref = formulas.T_from_euler(n, d)
            others = (
                formulas.T_from_t_values(n, d),
                formulas.T_from_bernoulli(n, d),
                table.value(n, d),
            )
            ok = all(x == ref for x in others)
            yield (f"T({2*n},{d})", {"n": n, "d": d}, ref,
                   ref if ok else " / ".join(str(x) for x in (ref,) + others), ok)


def suite_genfunc(max_n: int) -> Iterator[tuple]:
    """Generating-function facts: extracted table vs the Euler-number form,
    the boundary rows T(2n,1) = t(2n) and T(2n,n) = t({2}**n), the secant
    coefficients (-1)**j E_{2j}/(2j)!, and the tangent-series slots."""
    table = formulas.T_table_from_genfunc(max_n)
    for n in range(1, max_n + 1):
        for d in range(1, n + 1):
            got = table.value(n, d)
            want = formulas.T_from_euler(n, d)
            yield (f"coeff T({2*n},{d})", {"n": n, "d": d}, want, got, got == want)
    for n in range(1, max_n + 1):
        got = table.value(n, 1)
        want = exact.t_even(n)
        yield (f"depth-1 row n={n}", {"n": n}, want, got, got == want)
        got = table.value(n, n)
        want = formulas.t_all_twos(n)
        yield (f"all-twos cell n={n}", {"n": n}, want, got, got == want)
    sec = series.series_quotient((1,), series.cos_sqrt_series(max_n))
    for j in range(max_n + 1):
        want = Fraction((-1) ** j * exact.euler_number(2 * j), math.factorial(2 * j))
        got = sec[j]
        yield (f"secant coeff j={j}", {"j": j}, want, got, got == want)
    tan = series.tan_link_series(min(max_n, 20))
    for m in range(1, min(max_n, 20) + 1):
        want = exact.t_even(m).coeff * 4**m
        got = tan[m]
        yield (f"tangent slot m={m}", {"m": m}, want, got, got == want)


def suite_depth_sum(max_n: int) -> Iterator[tuple]:
    """sum_d T(2n,d) = (-1)**n E_{2n} pi**(2n)/(4**n (2n)!) for n <= max_n."""
    for n in range(1, max_n + 1):
        r = formulas.depth_sum_identity(n)
        yield (f"n={n}", {"n": n}, r.rhs, r.lhs, r.equal)


def suite_bernoulli_euler(max_n: int, max_d: int) -> Iterator[tuple]:
    """The Bernoulli-vs-Euler sum identity over the (n,d) grid, all three
    case branches."""
    for n in range(1, max_n + 1):
        for d in range(1, max_d + 1):
            r = formulas.bernoulli_euler_check(n, d)
            yield (f"n={n},d={d} [{r.case}]", {"n": n, "d": d, "case": r.case},
                   r.rhs, r.lhs, r.passed)


def _within(got, want) -> bool:
    """|got - want| <= got.err + want.err, by two exact comparisons of
    their exact difference: abs() of an mpf rounds to the caller's
    precision."""
    import mpmath as mp

    gap = got - want
    return mp.fneg(gap.err, exact=True) <= gap.value <= gap.err


def suite_symmetric(max_n: int) -> Iterator[tuple]:
    """Symmetric-function identities in m = max_n variables, faithful at
    every degree n <= max_n it checks (m >= n variables see every partition
    of n), plus numeric spot checks of the x_j -> 1/(2j-1)**2 specialization."""
    import mpmath as mp

    m = max_n
    ok = symfunc.check_bivariate_factorization(max_n, m)
    yield (f"factorization deg<={max_n}", {"n_max": max_n, "m": m}, "equal",
           "equal" if ok else "mismatch", ok)
    for n in range(1, max_n + 1):
        for d in range(1, n + 1):
            ok = symfunc.check_monomial_expansion(n, d, m)
            yield (f"expansion n={n},d={d}", {"n": n, "d": d, "m": m}, "equal",
                   "equal" if ok else "mismatch", ok)
    spot_vars, spot_dps = 20_000, 30
    spots = []  # (id, params, generator expression, exact value)
    for n in range(1, min(max_n, 4) + 1):
        spots.append((f"specialize e_{n}", {"n": n}, symfunc.GenExpr.elem(n),
                      formulas.t_all_twos(n)))
        spots.append((f"specialize h_{n}", {"n": n}, symfunc.GenExpr.homog(n),
                      formulas.depth_sum_identity(n).rhs))
    for n, d in ((2, 1), (2, 2), (3, 2), (3, 3)):
        if n <= max_n:
            spots.append((f"specialize N({n},{d})", {"n": n, "d": d},
                          symfunc.monomial_depth_expr(n, d), formulas.T_from_euler(n, d)))
    for id, params, expr, value in spots:
        got = symfunc.specialize_odd_squares(expr, spot_vars, spot_dps)
        want = oracle.pi_power_eval(value, spot_dps)
        yield (id, {**params, "num_vars": spot_vars},
               mp.nstr(want.value, 15), mp.nstr(got.value, 15), _within(got, want))


def suite_oracle(max_n: int, terms: int, dps: int) -> Iterator[tuple]:
    """Series-oracle agreement: |T_numeric - eval(closed form)| within the
    reported bound and relative bound <= 1e-6, for 1 <= d <= n <= max_n."""
    import mpmath as mp

    params = oracle.TruncationParams(terms=terms, tail_order=1)
    oracle.T_numeric(max_n, 1, params, dps)  # one ladder pass serves every cell
    for n in range(1, max_n + 1):
        for d in range(1, n + 1):
            num = oracle.T_numeric(n, d, params, dps)
            ref = oracle.pi_power_eval(formulas.T_from_euler(n, d), dps)
            # err <= 1e-6 |ref|, exactly: max() of ref and -ref is |ref|.
            small = mp.fmul(num.err, 10**6, exact=True) <= max(
                ref.value, mp.fneg(ref.value, exact=True))
            yield (
                f"T({2*n},{d}) numeric",
                {"n": n, "d": d, "terms": terms},
                mp.nstr(ref.value, 20),
                f"{mp.nstr(num.value, 20)} err<={mp.nstr(num.err, 3)}",
                _within(num, ref) and small,
            )


# Each suite by name, with its default keyword arguments.
SUITES = {
    "closed-forms": (suite_closed_forms, {"max_n": 30}),
    "genfunc": (suite_genfunc, {"max_n": 30}),
    "depth-sum": (suite_depth_sum, {"max_n": 30}),
    "bernoulli-euler": (suite_bernoulli_euler, {"max_n": 15, "max_d": 40}),
    "symmetric": (suite_symmetric, {"max_n": 8}),
    "oracle": (suite_oracle, {"max_n": 5, "terms": oracle.DEFAULT_TERMS,
                              "dps": oracle.DEFAULT_DPS}),
}


def run_suite(name: str, **overrides) -> dict:
    """Run one named suite (or 'all', every suite in ``SUITES`` order with
    its cases' ids prefixed ``suite/``), applying keyword overrides on top
    of each suite's defaults, and return its report: ``{"suite", "cases",
    "summary", "wall_time_s"}``, ready for ``json.dumps``.  Each case is
    ``{"id", "params", "expected", "actual", "pass", "elapsed_s"}``, its
    sides as ``str`` and its ``elapsed_s`` the time since the previous case
    or the start of the run, so under 'all' a suite's first case carries
    that suite's setup; times are in seconds to 3 places, and the summary
    holds the ``total``, ``passed`` and ``failed`` counts.  Override
    keys a suite has no default for are ignored by that suite, but every
    override is checked before any case runs, as the CLI does: a key other
    than ``max_n``, ``max_d``, ``terms`` and ``dps`` raises TypeError,
    ``max_n``, ``max_d`` and ``terms`` go through ``exact._at_least`` with
    a bound of 1 (no run passes by checking zero cases), ``dps`` through
    ``oracle._check_dps``; an unknown suite name raises KeyError."""
    unknown = sorted(set(overrides) - {"max_n", "max_d", "terms", "dps"})
    if unknown:
        raise TypeError(f"unknown override {', '.join(map(repr, unknown))}")
    for key in ("max_n", "max_d", "terms"):
        if overrides.get(key) is not None:
            overrides[key] = exact._at_least(overrides[key], 1, key)
    if overrides.get("dps") is not None:
        overrides["dps"] = oracle._check_dps(overrides["dps"])
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    t0 = last = time.perf_counter()
    cases = []
    for sub in SUITES if name == "all" else (name,):
        suite, defaults = SUITES[sub]
        kwargs = {key: value if overrides.get(key) is None else overrides[key]
                  for key, value in defaults.items()}
        prefix = f"{sub}/" if name == "all" else ""
        for id, params, expected, actual, passed in suite(**kwargs):
            now = time.perf_counter()
            cases.append({"id": prefix + id, "params": params, "expected": str(expected),
                          "actual": str(actual), "pass": passed,
                          "elapsed_s": round(now - last, 3)})
            last = now
    wall_time_s = round(time.perf_counter() - t0, 3)
    passed = sum(1 for c in cases if c["pass"])
    return {"suite": name, "cases": cases,
            "summary": {"total": len(cases), "passed": passed, "failed": len(cases) - passed},
            "wall_time_s": wall_time_s}
