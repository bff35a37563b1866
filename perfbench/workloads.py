"""Request plans, independent references and checks for the four workloads.

A plan is the fixed list of requests one round issues.  It is a pure
function of (workload, seed, size): the seed only chooses and orders inputs
and never reaches the package.  Every request is one call into a public
function of ``tsums`` (or one in-process ``cli.main`` call with stdout
captured), and every result is checked against a reference that does not
come from the code path under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

DATA_DIR = Path(__file__).resolve().parent / "data"

# A numeric error bound may grow to this multiple of the bound the same
# request reported at the seed commit before the result counts as failed,
# so speed cannot be bought with a looser bound.
BOUND_SLACK = 1.25

EXACT_SIZES = (6, 60)  # table/coeffs golden hashes are stored for these K
MAX_SYMMETRIC_DEGREE = 8  # degree 9+ in m >= 9 variables is out of memory reach
SPOT_VARS, SPOT_DPS = 10_000, 30
SPOT_N = ((2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3))
ORACLE_TERMS, ORACLE_MAX_N = 50_000, 5
EVAL_DPS, EVAL_MAX_DEPTH = 50, 5

WORKLOADS = {
    # name: (default size, smallest size, largest size, nominal seconds per
    # round at the default size, interpreter start included)
    "exact-sweep": (60, 6, 60, 3.1),
    "symmetric": (8, 3, MAX_SYMMETRIC_DEGREE, 5.6),
    "oracle-sweep": (5, 1, ORACLE_MAX_N, 1.45),
    "eval-requests": (8, 1, 8, 2.0),
}


def size_error(workload: str, size: int) -> str | None:
    """Why ``size`` is not a valid size for ``workload``, or None."""
    _, low, high, _ = WORKLOADS[workload]
    if workload == "exact-sweep" and size not in EXACT_SIZES:
        return f"exact-sweep size must be one of {EXACT_SIZES} (golden outputs exist only there)"
    if workload == "symmetric" and size > MAX_SYMMETRIC_DEGREE:
        return (f"symmetric degree {size} is above {MAX_SYMMETRIC_DEGREE}: symfunc has no "
                "size guard and would need exponential memory")
    if not low <= size <= high:
        return f"{workload} size must be in [{low}, {high}], got {size}"
    return None


@dataclass(frozen=True)
class Request:
    """One call into the package and the check of its result.

    ``check`` returns (passed, relative error bound or None).
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, float | None]]


def load_data() -> dict:
    return {name: json.loads((DATA_DIR / f"{name}.json").read_text())
            for name in ("golden", "seed_bounds", "eval_refs")}


# ---------------------------------------------------------------- references

def zigzag(count: int) -> list[int]:
    """Zigzag numbers A_0..A_{count-1} by the Seidel boustrophedon; A_{2j} = |E_{2j}|."""
    out, row = [1], [1]
    for n in range(1, count):
        new = [0]
        for k in range(1, n + 1):
            new.append(new[-1] + row[n - k])
        row = new
        out.append(row[-1])
    return out


@lru_cache(maxsize=None)
def reference_coeffs(max_n: int) -> dict[tuple[int, int], Fraction]:
    """T(2n,d) / pi**(2n) for 1 <= d <= n <= max_n, from the y**n v**d
    coefficient of c((1-v)y) * sec(sqrt(y)) with Euler numbers taken from
    the zigzag triangle: a route none of the package's four routes uses."""
    a = zigzag(2 * max_n + 1)
    out = {}
    for n in range(1, max_n + 1):
        den = 4**n * math.factorial(2 * n)
        for d in range(1, n + 1):
            acc = sum((-1) ** (k + d) * math.comb(k, d) * math.comb(2 * n, 2 * k) * a[2 * n - 2 * k]
                      for k in range(d, n + 1))
            out[(n, d)] = Fraction(acc, den)
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(tsums, argv: list[str]) -> tuple[object, str]:
    """One in-process ``tsums`` command; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tsums.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# ------------------------------------------------------------------ checks

def _is_pi_power(value, coeff: Fraction, pi_exp: int) -> bool:
    return value.coeff == coeff and value.pi_exp == pi_exp


def _exact_check(coeff: Fraction, n: int, value) -> tuple[bool, None]:
    return _is_pi_power(value, coeff, 2 * n), None


def _is_true(value) -> tuple[bool, None]:
    return value is True, None


def _golden_check(digest: str | None, result) -> tuple[bool, None]:
    code, stdout = result
    return code == 0 and digest is not None and sha256(stdout) == digest, None


def _verify_check(total: int, result) -> tuple[bool, None]:
    code, stdout = result
    summary = json.loads(stdout)["summary"]
    return code == 0 and summary["failed"] == 0 and summary["total"] == total, None


def _numeric_check(mp, ref_value, ref_err, seed_err: str, got) -> tuple[bool, float]:
    """Pass when |got - ref| <= got.err + ref_err and got.err is no looser
    than BOUND_SLACK times the bound the seed commit reported."""
    gap = abs(mp.fsub(got.value, ref_value, exact=True))
    ok = gap <= got.err + ref_err and got.err <= BOUND_SLACK * mp.mpf(seed_err)
    return bool(ok), float(got.err / abs(ref_value))


# ------------------------------------------------------------------- plans

def plan_exact_sweep(tsums, seed: int, size: int, data: dict) -> list[Request]:
    """Every cell by the three closed forms plus one genfunc table, the
    depth-sum and Bernoulli-Euler identities, and CLI table/coeffs/verify."""
    rng = random.Random(seed)
    K = size
    ref = reference_coeffs(K)
    reqs = []
    for (n, d), c in ref.items():
        for route in (tsums.T_from_euler, tsums.T_from_t_values, tsums.T_from_bernoulli):
            reqs.append(Request(f"{route.__name__}({n},{d})", partial(route, n, d),
                                partial(_exact_check, c, n)))

    def table_ok(table):
        return all(_is_pi_power(table.value(n, d), c, 2 * n) for (n, d), c in ref.items()), None

    reqs.append(Request(f"T_table_from_genfunc({K})", partial(tsums.T_table_from_genfunc, K), table_ok))

    def depth_sum_ok(n, r):
        want = sum(ref[(n, d)] for d in range(1, n + 1))
        return bool(r.equal) and _is_pi_power(r.lhs, want, 2 * n), None

    for n in range(1, K + 1):
        reqs.append(Request(f"depth_sum_identity({n})", partial(tsums.depth_sum_identity, n),
                            partial(depth_sum_ok, n)))

    def bernoulli_euler_ok(n, d, r):
        if d <= n:
            case, rhs = "d<=n", (-1) ** (n + 1) * math.factorial(2 * n) * ref[(n, d)]
        elif d < 2 * n:
            case, rhs = "n<d<2n", Fraction(0)
        else:
            case, rhs = "d>=2n", Fraction(n * math.comb(2 * d - 2 * n - 1, d - 1), 2 ** (2 * d - 1) * d)
        return bool(r.passed) and r.case == case and r.rhs == rhs, None

    be_n, be_d = min(15, K), min(40, 2 * K)
    for n in range(1, be_n + 1):
        for d in range(1, be_d + 1):
            reqs.append(Request(f"bernoulli_euler_check({n},{d})",
                                partial(tsums.bernoulli_euler_check, n, d),
                                partial(bernoulli_euler_ok, n, d)))

    golden = data["golden"][str(K)]
    argvs = [["table", "--max-n", str(K), "--format", f] for f in ("json", "csv", "latex")]
    for d in sorted(rng.sample(range(1, K + 1), min(6, K))):
        argvs += [["table", "--max-n", str(K), "--depth", str(d), "--format", f]
                  for f in ("json", "csv", "latex")]
    for d in sorted(rng.sample(range(1, K + 1), min(10, K))):
        argvs += [["coeffs", "--depth", str(d), "--format", f] for f in ("json", "csv", "latex")]
    for argv in argvs:
        key = " ".join(argv)
        reqs.append(Request(key, partial(run_cli, tsums, argv), partial(_golden_check, golden.get(key))))
    for argv, total in ((["verify", "--suite", "depth-sum", "--max-n", str(K // 2)], K // 2),
                        (["verify", "--suite", "bernoulli-euler", "--max-n", str(be_n),
                          "--max-d", str(be_d)], be_n * be_d)):
        reqs.append(Request(" ".join(argv), partial(run_cli, tsums, argv), partial(_verify_check, total)))
    rng.shuffle(reqs)
    return reqs


def plan_symmetric(tsums, seed: int, size: int, data: dict) -> list[Request]:
    """The bivariate factorization at degree D-1 and every monomial
    expansion at degrees D-1 and D, in D variables, plus numeric spot checks
    of the odd-squares specialization against pi_power_eval.

    An exhaustive battery in the verify suite's order, whatever the seed:
    the requests share lru caches, so a seeded order would only move the
    cost of filling them from one request to another."""
    import mpmath as mp

    if size > MAX_SYMMETRIC_DEGREE:  # also enforced before any worker starts
        raise ValueError(size_error("symmetric", size))
    D = size
    ref = reference_coeffs(max(D, 4))
    bounds = data["seed_bounds"]["symmetric"]
    reqs = [Request(f"check_bivariate_factorization({D - 1},{D})",
                    partial(tsums.check_bivariate_factorization, D - 1, D), _is_true)]
    for n in (D - 1, D):
        for d in range(1, n + 1):
            reqs.append(Request(f"check_monomial_expansion({n},{d},{D})",
                                partial(tsums.check_monomial_expansion, n, d, D), _is_true))

    def spot(label, make_expr, n, coeff):
        def call():
            return tsums.specialize_odd_squares(make_expr(), SPOT_VARS, SPOT_DPS)

        def check(got):
            want = tsums.pi_power_eval(tsums.PiPower(coeff, 2 * n), SPOT_DPS)
            return _numeric_check(mp, want.value, want.err, bounds[label], got)

        return Request(f"specialize {label}", call, check)

    for n in range(1, min(4, D) + 1):
        all_twos = Fraction(1, 4**n * math.factorial(2 * n))
        depth_sum = sum(ref[(n, d)] for d in range(1, n + 1))
        reqs.append(spot(f"e_{n}", partial(tsums.GenExpr.elem, n), n, all_twos))
        reqs.append(spot(f"h_{n}", partial(tsums.GenExpr.homog, n), n, depth_sum))
    for n, d in SPOT_N:
        if n <= D:
            reqs.append(spot(f"N({n},{d})", partial(tsums.monomial_depth_expr, n, d), n, ref[(n, d)]))
    return reqs


def plan_oracle_sweep(tsums, seed: int, size: int, data: dict) -> list[Request]:
    """T_numeric for every cell with n <= size, each checked for the
    in-bound test and the rel <= 1e-6 test of the oracle suite."""
    import mpmath as mp

    rng = random.Random(seed)
    ref = reference_coeffs(size)
    bounds = data["seed_bounds"]["oracle-sweep"]
    params = tsums.TruncationParams(terms=ORACLE_TERMS, tail_order=1)

    def check(n, d, got):
        want = tsums.pi_power_eval(tsums.PiPower(ref[(n, d)], 2 * n), EVAL_DPS)
        ok, rel = _numeric_check(mp, want.value, want.err, bounds[f"{n},{d}"], got)
        return ok and rel <= 1e-6, rel

    reqs = [Request(f"T_numeric({n},{d})", partial(tsums.T_numeric, n, d, params, EVAL_DPS),
                    partial(check, n, d)) for (n, d) in ref]
    rng.shuffle(reqs)
    return reqs


def plan_eval_requests(tsums, seed: int, size: int, data: dict) -> list[Request]:
    """One vector from each of the first ``size`` pool slots of each depth
    1..5, each a fresh t_numeric call at 50 digits; no vector repeats.
    Depth 1 is checked against (1 - 2**-s) zeta(s), deeper vectors against
    stored values computed at the seed with 10x the terms."""
    import mpmath as mp

    rng = random.Random(seed)
    refs = data["eval_refs"]
    params = tsums.TruncationParams(terms=refs["terms"], tail_order=1)
    by_depth: dict[int, list[list[str]]] = {}
    for slot in refs["slots"]:
        by_depth.setdefault(slot[0].count(",") + 1, []).append(slot)

    def check(key, got):
        entry = refs["vectors"][key]
        with mp.workdps(EVAL_DPS + 10):
            if "," in key:
                ref, ref_err = mp.mpf(entry["ref"]), mp.mpf(entry["ref_err"])
            else:
                s = int(key)
                ref = (1 - mp.mpf(2) ** -s) * mp.zeta(s)
                ref_err = abs(ref) * mp.mpf(10) ** (-EVAL_DPS - 5)
            return _numeric_check(mp, ref, ref_err, entry["seed_err"], got)

    reqs = []
    for depth in range(1, EVAL_MAX_DEPTH + 1):
        for slot in by_depth[depth][:size]:
            key = rng.choice(slot)
            vec = [int(x) for x in key.split(",")]
            reqs.append(Request(f"t_numeric([{key}])", partial(tsums.t_numeric, vec, params, EVAL_DPS),
                                partial(check, key)))
    rng.shuffle(reqs)
    return reqs


PLANS = {
    "exact-sweep": plan_exact_sweep,
    "symmetric": plan_symmetric,
    "oracle-sweep": plan_oracle_sweep,
    "eval-requests": plan_eval_requests,
}
