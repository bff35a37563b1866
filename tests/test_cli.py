"""Command surface: formats, round-trips, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsums.cli
import tsums.formulas
import tsums.oracle
from tsums.cli import main
from tsums.exact import PiPower
from tsums.formulas import T_from_euler
from tsums.verify import SUITES, run_suite


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_usage_error(rc, out, err):
    """Exit code 2, nothing on stdout and one ``error:`` line on stderr."""
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestTable:
    def test_csv_small(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--max-n", "2", "--format", "csv")
        assert rc == 0
        assert out.splitlines() == [
            "weight,depth,num,den,pi_exp",
            "2,1,1,8,2",
            "4,1,1,96,4",
            "4,2,1,384,4",
        ]

    def test_depth_filter(self, capsys):
        rc, out, _ = run_cli(
            capsys, "table", "--max-n", "3", "--depth", "2", "--format", "csv"
        )
        assert rc == 0
        rows = out.splitlines()[1:]
        assert "6,2,1,3840,6" in rows
        assert all(r.split(",")[1] == "2" for r in rows)

    def test_json_round_trip(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--max-n", "4", "--format", "json")
        assert rc == 0
        seen = 0
        for entry in json.loads(out):
            n, d = entry["weight"] // 2, entry["depth"]
            value = PiPower(
                Fraction(
                    int(entry["coefficient"]["num"]), int(entry["coefficient"]["den"])
                ),
                entry["pi_exp"],
            )
            assert value == T_from_euler(n, d), (n, d)
            seen += 1
        assert seen == 10

    def test_single_entry_json(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--max-n", "1", "--format", "json")
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["coefficient"] == {"num": "1", "den": "8"}
        assert payload[0]["pi_exp"] == 2

    def test_latex(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--max-n", "2", "--format", "latex")
        assert "T(4,2) = \\frac{1}{384}\\pi^{4}" in out.splitlines()

    def test_unknown_format_exits_2(self, capsys):
        assert_usage_error(*run_cli(capsys, "table", "--max-n", "2", "--format", "xml"))

    def test_bad_max_n(self, capsys):
        rc, _, err = run_cli(capsys, "table", "--max-n", "0")
        assert rc == 2 and "max-n" in err


class TestCoeffs:
    def test_depth5_csv(self, capsys):
        rc, out, _ = run_cli(capsys, "coeffs", "--depth", "5", "--format", "csv")
        assert out.splitlines() == [
            "depth,j,num,den",
            "5,0,7,128",
            "5,1,-3,64",
            "5,2,1,320",
        ]

    def test_depth6_json(self, capsys):
        rc, out, _ = run_cli(capsys, "coeffs", "--depth", "6", "--format", "json")
        payload = json.loads(out)
        assert payload["depth"] == 6
        assert [(c["num"], c["den"]) for c in payload["coefficients"]] == [
            ("21", "512"),
            ("-7", "192"),
            ("1", "256"),
        ]

    def test_depth1(self, capsys):
        rc, out, _ = run_cli(capsys, "coeffs", "--depth", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["coefficients"] == [{"j": 0, "num": "1", "den": "1"}]

    def test_depth5_latex_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "coeffs", "--depth", "5", "--format", "latex")
        assert out.strip() == (
            "T(2n,5) = \\frac{7}{128}t(2n) - \\frac{3}{64}t(2)t(2n-2)"
            " + \\frac{1}{320}t(4)t(2n-4)"
        )


# sha256 of each command's stdout, recorded before T_from_euler was
# memoized per cell and before table assembled its JSON text itself, so
# neither may change a byte of any output.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("table", "--max-n", "60", "--format", "json"),
         "6d24a987935866fc28b49463cd316b204bcc429af54a71be15c903f0cd826adf"),
        (("table", "--max-n", "60", "--format", "csv"),
         "175c07740143094d75de8ae288d5742806800668cf5a1c6ba97f308747737a08"),
        (("table", "--max-n", "60", "--format", "latex"),
         "50d90643a8a5d692f1e0884441044369f65496e5fc045de5fa4007ba33f9dacc"),
        (("coeffs", "--depth", "1", "--format", "json"),
         "3b143c8420c6ea1d8aa4ef2ab3181f441896a314676f580ef7b208ca4c243b78"),
        (("coeffs", "--depth", "1", "--format", "csv"),
         "c633f289cb30c2125709a8993599bc98865bc80747a7366a64e5d004c3d41a22"),
        (("coeffs", "--depth", "1", "--format", "latex"),
         "bf75ac93bd220c7aa2f3282c2d10bb3671408e0fbf6c04689768fd17d49da341"),
        (("coeffs", "--depth", "5", "--format", "json"),
         "f3c78d1e7050ec9bfac77f6f3c5d2216febd999d22e9ec52484b5523acb8d449"),
        (("coeffs", "--depth", "5", "--format", "csv"),
         "a69b59891a88bb4978a44d0a09c174b1bc6c878656f25a1d265539e26911792a"),
        (("coeffs", "--depth", "5", "--format", "latex"),
         "cf5d1cb4e788ec30980259a92bef81da179cea9c85a0d07e8c304b7c7da501d8"),
        (("coeffs", "--depth", "6", "--format", "json"),
         "9c4a66c08558b115af3f76b74e8eae70693e3cf97f690e4a2d61ff52b25091c5"),
        (("coeffs", "--depth", "6", "--format", "csv"),
         "5c931aeee8b75095c25736a271cdf0649e8b4a9ea94a637a53a742b96eb67442"),
        (("coeffs", "--depth", "6", "--format", "latex"),
         "20a8d8ac5155494f20b103c37863ad0108698d5288f2daddbcdd0ada000fc3fd"),
        (("coeffs", "--depth", "13", "--format", "json"),
         "7f08ebb75e67392c924edf9beb6041b2c7589b6f921cd06847b27085a6e0f913"),
        (("coeffs", "--depth", "13", "--format", "csv"),
         "80e15c4f52f1c0b5f0b569962c1aeff12ab08fddf3a707b963befddafd112cd6"),
        (("coeffs", "--depth", "13", "--format", "latex"),
         "0a9ba9de411ae620f3b00a2e79a3b83aed65fb0d90db37e8fb615019fecbbfd9"),
        (("coeffs", "--depth", "30", "--format", "json"),
         "979ce2fd80eba24e0b04d007b46b5f55a113835ddbb458aefea463e15b847a93"),
        (("coeffs", "--depth", "30", "--format", "csv"),
         "f46a80885a29f09afbab91b61d60d91295d764cbb9aa1793be7cecc2455a96e2"),
        (("coeffs", "--depth", "30", "--format", "latex"),
         "dbaf5ad4fd457548ea5aa23b5d57500e84f949578378d8f3554a5f2fcee30afa"),
        # Recorded before the Bernoulli table was grown by the tangent triangle.
        (("coeffs", "--depth", "1000", "--format", "json"),
         "1b3b5363a5f0dbec46d96a6536e93dad421e4c60cf4ff89bc9a8207458543dc2"),
    ],
)
def test_output_digest(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "cells", [[(n, 2) for n in range(2, 13)], [(1, 1)], [(3, 2)],
              [(n, d) for n in range(1, 13) for d in range(1, n + 1)]]
)
def test_table_json_matches_indenting_encoder(cells):
    # table prints its rows without json.dumps, one at a time; the text
    # they join to must not differ.
    # The cells are those of --depth 2, of --max-n 1, of one cell and of
    # --max-n 12; no table has zero rows.
    rows = [(n, d, T_from_euler(n, d)) for n, d in cells]
    payload = [
        {"weight": 2 * n, "depth": d,
         "coefficient": {"num": str(v.coeff.numerator), "den": str(v.coeff.denominator)},
         "pi_exp": v.pi_exp}
        for n, d, v in rows
    ]
    assert "".join(tsums.cli._table_json(rows)) == json.dumps(payload, indent=2)


# `verify --suite depth-sum --max-n 3` on stdout, every time set to 0.
DEPTH_SUM_3_REPORT = """\
{
  "suite": "depth-sum",
  "cases": [
    {
      "id": "n=1",
      "params": {
        "n": 1
      },
      "expected": "1/8*pi^2",
      "actual": "1/8*pi^2",
      "pass": true,
      "elapsed_s": 0
    },
    {
      "id": "n=2",
      "params": {
        "n": 2
      },
      "expected": "5/384*pi^4",
      "actual": "5/384*pi^4",
      "pass": true,
      "elapsed_s": 0
    },
    {
      "id": "n=3",
      "params": {
        "n": 3
      },
      "expected": "61/46080*pi^6",
      "actual": "61/46080*pi^6",
      "pass": true,
      "elapsed_s": 0
    }
  ],
  "summary": {
    "total": 3,
    "passed": 3,
    "failed": 0
  },
  "wall_time_s": 0
}
"""


class TestVerify:
    def test_depth_sum_small(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "depth-sum", "--max-n", "3")
        assert rc == 0
        report = json.loads(out)
        assert report["summary"] == {"total": 3, "passed": 3, "failed": 0}

    def test_closed_forms_cell_count(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "--suite", "closed-forms", "--max-n", "5"
        )
        assert rc == 0
        report = json.loads(out)
        assert report["summary"]["total"] == 15
        assert report["summary"]["failed"] == 0

    def test_bernoulli_euler_includes_vanishing_case(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "bernoulli-euler",
            "--max-n",
            "2",
            "--max-d",
            "4",
        )
        assert rc == 0
        report = json.loads(out)
        assert report["summary"]["total"] == 8
        (case,) = [c for c in report["cases"] if c["params"] == {
            "n": 2, "d": 3, "case": "n<d<2n"}]
        assert case["expected"] == "0" and case["pass"]

    def test_oracle_suite_quick(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "oracle",
            "--max-n",
            "2",
            "--terms",
            "50000",
        )
        assert rc == 0
        report = json.loads(out)
        assert report["summary"] == {"total": 3, "passed": 3, "failed": 0}

    def test_oracle_first_case_carries_the_pass(self, capsys, monkeypatch):
        # A pass made slow on purpose: the one ladder pass of the suite runs
        # before its first case, and every later case reads its rows.  The
        # exit code is not the point here (at 2000 terms the bound of T(6,3)
        # is 3.4e-6 relative, above the suite's 1e-6).
        calls = []

        def slow_ladder(*args):
            calls.append(args[0])
            time.sleep(0.3)
            return ladder(*args)

        ladder = tsums.oracle._weight_ladder
        monkeypatch.setattr(tsums.oracle, "_rows", {})
        monkeypatch.setattr(tsums.oracle, "_weight_ladder", slow_ladder)
        _, out, _ = run_cli(
            capsys, "verify", "--suite", "oracle", "--max-n", "3", "--terms", "2000"
        )
        assert calls == [3]
        elapsed = [c["elapsed_s"] for c in json.loads(out)["cases"]]
        assert len(elapsed) == 6 and elapsed[0] >= 0.3
        assert all(0 <= e < 0.3 for e in elapsed[1:]), elapsed

    def test_oracle_suite_reaches_weight_16(self, capsys):
        # 40 000 terms: at 20 000 the bounds of T(14,7), T(16,7) and T(16,8)
        # exceed the suite's relative limit of 1e-6.
        rc, out, _ = run_cli(
            capsys, "verify", "--suite", "oracle", "--max-n", "8", "--terms", "40000"
        )
        assert rc == 0
        report = json.loads(out)
        assert report["summary"] == {"total": 36, "passed": 36, "failed": 0}

    def test_corrupted_expected_flips_exit_code(self, capsys, monkeypatch):
        real = tsums.formulas.euler_number

        def corrupt(m):
            return real(m) + 2 if m == 6 else real(m)

        monkeypatch.setattr(tsums.formulas, "euler_number", corrupt)
        rc, out, _ = run_cli(capsys, "verify", "--suite", "depth-sum", "--max-n", "3")
        assert rc == 1
        report = json.loads(out)
        assert report["summary"]["failed"] == 1

    def test_symmetric_suite_runs_in_max_n_variables(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite", "symmetric", "--max-n", "3")
        assert rc == 0
        report = json.loads(out)
        assert report["cases"][0]["params"] == {"n_max": 3, "m": 3}
        assert report["summary"]["failed"] == 0
        # No other variable count can change a verdict, so none is offered.
        assert_usage_error(*run_cli(capsys, "verify", "--suite", "symmetric", "--num-vars", "10"))

    def test_symmetric_spot_values_are_pinned(self):
        # The printed values of the 12 specialization spots at the suite's
        # defaults (20 000 variables, 30 digits), so a drift in the
        # fixed-point evaluation shows, not only a flipped verdict.
        spots = {c["id"]: (c["actual"], c["pass"]) for c in run_suite("symmetric")["cases"]
                 if c["id"].startswith("specialize ")}
        assert spots == {
            "specialize e_1": ("1.23368805013617", True),
            "specialize h_1": ("1.23368805013617", True),
            "specialize e_2": ("0.253654086722301", True),
            "specialize h_2": ("1.26833211832649", True),
            "specialize e_3": ("0.020860309990889", True),
            "specialize h_3": ("1.27265647231667", True),
            "specialize e_4": ("0.000918999501147798", True),
            "specialize h_4": ("1.27315957234761", True),
            "specialize N(2,1)": ("1.01467803160419", True),
            "specialize N(2,2)": ("0.253654086722301", True),
            "specialize N(3,2)": ("0.25034908568484", True),
            "specialize N(3,3)": ("0.020860309990889", True),
        }

    def test_symmetric_verdicts_ignore_the_ambient_precision(self):
        # Each spot, and each oracle cell, compares |got - want| with its err
        # exactly: abs() of an mpf rounds to the ambient precision, and at
        # 3..14 bits that fails up to five of the twelve spots.  Every
        # verdict and printed value is the same at every ambient precision.
        for suite, size in (("symmetric", {}), ("oracle", {"max_n": 3, "terms": 20_000})):
            want = [(c["id"], c["expected"], c["actual"], True)
                    for c in run_suite(suite, **size)["cases"]]
            for prec in range(2, 60):
                with mp.workprec(prec):
                    report = run_suite(suite, **size)
                got = [(c["id"], c["expected"], c["actual"], c["pass"]) for c in report["cases"]]
                assert got == want, (suite, prec)

    def test_unknown_suite_exits_2(self, capsys):
        assert_usage_error(*run_cli(capsys, "verify", "--suite", "nonsense"))

    def test_all_suites_small_bounds(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "all",
            "--max-n",
            "2",
            "--max-d",
            "3",
            "--terms",
            "20000",
        )
        assert rc == 0
        report = json.loads(out)
        assert report["suite"] == "all"
        assert report["summary"]["failed"] == 0
        assert all(c["elapsed_s"] >= 0 for c in report["cases"])
        # Each suite once, in SUITES order, its cases unchanged but for the
        # 'suite/' prefix of each id.
        assert [(c["id"], c["params"], c["expected"], c["actual"], c["pass"])
                for c in report["cases"]] == [
            (f"{sub}/{c['id']}", c["params"], c["expected"], c["actual"], c["pass"])
            for sub in SUITES
            for c in run_suite(sub, max_n=2, max_d=3, terms=20_000)["cases"]]

    @pytest.mark.parametrize("suite, size", [
        ("all", {"max_n": 2, "max_d": 3, "terms": 20_000}),
        # T(14,7) misses the 1e-6 relative bound at 20 000 terms: one failure.
        ("oracle", {"max_n": 7, "terms": 20_000}),
    ])
    def test_report_is_the_dict_the_cli_prints(self, suite, size):
        report = run_suite(suite, **size)
        assert json.loads(json.dumps(report)) == report
        assert list(report) == ["suite", "cases", "summary", "wall_time_s"]
        cases = report["cases"]
        assert all(list(c) == ["id", "params", "expected", "actual", "pass", "elapsed_s"]
                   for c in cases)
        passed = sum(1 for c in cases if c["pass"] is True)
        failed = sum(1 for c in cases if c["pass"] is False)
        assert report["summary"] == {"total": len(cases), "passed": passed, "failed": failed}
        assert failed == (suite == "oracle")

    def test_report_layout_is_pinned(self, capsys):
        # The whole stdout of a small report, its times set to 0.
        rc, out, _ = run_cli(capsys, "verify", "--suite", "depth-sum", "--max-n", "3")
        assert rc == 0
        assert re.sub(r'"(elapsed_s|wall_time_s)": [0-9.e-]+', r'"\1": 0', out) == (
            DEPTH_SUM_3_REPORT)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "depth-sum", "--max-n", "0"),
        ("verify", "--suite", "closed-forms", "--max-n", "-3"),
        ("verify", "--suite", "bernoulli-euler", "--max-d", "0"),
        ("verify", "--suite", "oracle", "--terms", "0"),
        ("verify", "--suite", "oracle", "--precision", "0"),
        ("verify", "--suite", "symmetric", "--max-n", "0"),
        ("coeffs", "--depth", "0"),
        ("eval", "--t", "2,0", "--terms", "100"),
        ("eval", "--t", "2", "--terms", "0"),
        ("table", "--max-n", "3", "--depth", "0"),
        ("table", "--max-n", "3", "--depth", "4"),
        ("verify", "--suite", "oracle", "--max-n", "1", "--terms", "2", "--precision", "1"),
        ("verify", "--suite", "oracle", "--max-n", "1", "--terms", "2", "--precision", "9"),
        ("eval", "--t", "2", "--terms", "100", "--precision", "0"),
        ("eval", "--t", "2", "--terms", "100", "--precision", "9"),
        ("TSUMS_PRECISION=abc", "eval", "--t", "2", "--terms", "100"),
        ("TSUMS_PRECISION=3", "eval", "--t", "2", "--terms", "100"),
        ("TSUMS_PRECISION=abc", "verify", "--suite", "oracle", "--max-n", "1", "--terms", "2"),
        ("TSUMS_PRECISION=9", "verify", "--suite", "oracle", "--max-n", "1", "--terms", "2"),
        ("eval", "--t", "2,,2", "--terms", "100"),
        ("eval", "--t", "2,2,", "--terms", "100"),
        # Rejected by argparse itself, through the same one-line error.
        ("table", "--max-n", "abc"),
        ("table", "--max-n", "2", "--format", "xml"),
        ("verify", "--suite", "nonsense"),
        ("verify", "--suite", "symmetric", "--num-vars", "10"),
        ("eval", "--t", "2", "--tail-order", "2"),
        ("eval", "--t", "2,x"),
        ("table",),
        (),
    ],
)
def test_bad_input_is_usage_error(capsys, monkeypatch, argv):
    # Leading NAME=value items set environment variables, as in a shell.
    while argv and "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    assert_usage_error(*run_cli(capsys, *argv))


def forbid_cases(monkeypatch):
    """Hook every suite in ``SUITES`` with one that raises when iterated,
    keeping its defaults, so that running any case fails the test."""

    def suite(**kwargs):
        raise AssertionError("a case ran")
        yield

    for name, (_, defaults) in SUITES.items():
        monkeypatch.setitem(SUITES, name, (suite, defaults))


@pytest.mark.parametrize("suite", [*SUITES, "all"])
@pytest.mark.parametrize("size", [{"max_n": 0}, {"max_d": 0}, {"max_n": -3}, {"terms": 0}])
def test_run_suite_refuses_a_size_below_one(monkeypatch, suite, size):
    # The library refuses what the CLI refuses, before any case runs, so no
    # report passes by checking zero cases.
    forbid_cases(monkeypatch)
    with pytest.raises(ValueError, match=f"^{next(iter(size))} must be >= 1"):
        run_suite(suite, **size)


@pytest.mark.parametrize("suite", [*SUITES, "all"])
@pytest.mark.parametrize(
    "overrides, error",
    [
        ({"max_n": True}, TypeError),
        ({"max_n": 2, "max_d": True}, TypeError),
        ({"terms": 2.5}, TypeError),
        ({"max_n": 3, "dps": 5}, ValueError),
        ({"max_n": 2, "max_d": 3, "terms": 2000, "dps": 5}, ValueError),
        ({"dps": 50.0}, TypeError),
        ({"maxn": 3}, TypeError),
        ({"max_n": 2, "precision": 30, "max_d": 3}, TypeError),
    ],
    ids=["max_n-True", "max_d-True", "terms-2.5", "dps-5", "sizes-and-dps-5", "dps-50.0",
         "misspelt-maxn", "cli-name-precision"],
)
def test_run_suite_checks_every_override_first(monkeypatch, suite, overrides, error):
    # Each override is checked as the CLI checks it, for every suite, even
    # one that does not read it, and before any case of any suite runs.  A
    # key other than the four the CLI passes is refused by name: a misspelt
    # one would otherwise run the suite at its defaults and pass.
    forbid_cases(monkeypatch)
    unknown = [key for key in overrides if key not in ("max_n", "max_d", "terms", "dps")]
    match = ("^precision must be >= 10 digits" if error is ValueError
             else f"^unknown override '{unknown[0]}'$" if unknown else None)
    with pytest.raises(error, match=match):
        run_suite(suite, **overrides)


SIZES = st.integers(-1, 4).map(str)
TERMS = st.integers(-1, 300).map(str)
FORMATS = st.sampled_from(["json", "csv", "latex", "xml"])
PRECISIONS = st.sampled_from(["0", "9", "10", "25", "x"])


@st.composite
def cli_calls(draw):
    """An argv over every subcommand, with small, zero, negative or
    malformed values, and a TSUMS_PRECISION value (None: unset)."""

    def maybe(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["table", "coeffs", "verify", "eval"]))
    argv = [command]
    if command == "table":
        argv += ["--max-n", draw(st.integers(-2, 6).map(str))]
        argv += maybe("--depth", SIZES) + maybe("--format", FORMATS)
    elif command == "coeffs":
        argv += ["--depth", draw(st.integers(-2, 12).map(str))]
        argv += maybe("--format", FORMATS)
    elif command == "verify":
        # Sizes are always given: the defaults run the full suites.
        argv += ["--suite", draw(st.sampled_from([*SUITES, "all", "nonsense"]))]
        argv += ["--max-n", draw(SIZES), "--terms", draw(TERMS)]
        argv += maybe("--max-d", SIZES)
        argv += maybe("--precision", PRECISIONS)
    else:
        exponents = st.lists(st.integers(1, 4).map(str), max_size=4).map(",".join)
        argv += ["--t", draw(exponents | st.sampled_from(["0", "2,0", "-1", "2,-1", "x"]))]
        argv += ["--terms", draw(TERMS)] + maybe("--precision", PRECISIONS)
        argv += maybe("--tail-order", st.sampled_from(["0", "1", "2"]))
    env = draw(st.sampled_from([None, None, None, "", "abc", "-3", "9", "25"]))
    return argv, env


@settings(max_examples=80, deadline=None)
@given(cli_calls())
def test_any_input_gives_an_exit_code(call):
    # Every input ends in success (0), a verification failure or divergent
    # series (1) or a usage error (2), never in an exception: not even the
    # SystemExit of an argv that argparse rejects.
    argv, env_precision = call
    env = {k: v for k, v in os.environ.items() if k != "TSUMS_PRECISION"}
    if env_precision is not None:
        env["TSUMS_PRECISION"] = env_precision
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            raise AssertionError(f"SystemExit({exc.code!r}) left main for {argv}") from exc
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert_usage_error(rc, out.getvalue(), err.getvalue())


def _captured(argv):
    """(exit code, stdout, stderr) of one in-process call; the timings of a
    verify report are dropped from its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    stdout = out.getvalue()
    if argv[0] == "verify":
        report = json.loads(stdout)
        del report["wall_time_s"]
        for case in report["cases"]:
            del case["elapsed_s"]
        stdout = json.dumps(report)
    return rc, stdout, err.getvalue()


def test_one_parser_serves_every_call():
    # One process: usage errors first, then table, coeffs and verify on the
    # shared parser print what a freshly built parser prints.
    calls = [
        ["table", "--max-n", "2", "--format", "xml"],
        ["table", "--max-n", "0"],
        ["table", "--max-n", "5", "--format", "json"],
        ["table", "--max-n", "6", "--depth", "3", "--format", "latex"],
        ["coeffs", "--depth", "7", "--format", "csv"],
        ["verify", "--suite", "depth-sum", "--max-n", "6"],
        ["verify", "--suite", "bernoulli-euler", "--max-n", "3", "--max-d", "5"],
    ]
    shared = [_captured(argv) for argv in calls]
    assert tsums.cli.build_parser() is tsums.cli.build_parser()
    fresh = []
    for argv in calls:
        tsums.cli.build_parser.cache_clear()
        fresh.append(_captured(argv))
    assert [rc for rc, _, _ in shared] == [2, 2, 0, 0, 0, 0, 0]
    assert [(rc, out) for rc, out, _ in shared] == [(rc, out) for rc, out, _ in fresh]
    assert [err for _, _, err in shared[:2]] == [err for _, _, err in fresh[:2]]


class TestEval:
    def test_basic_line(self, capsys):
        rc, out, err = run_cli(capsys, "eval", "--t", "2", "--terms", "100000")
        assert rc == 0
        assert out.startswith("t(2) = 1.2337005501")
        assert "err <=" in out and "terms = 100000" in out
        assert "elapsed" in err
        value = float(out.split("=")[1].split()[0])
        assert abs(value - 1.2337005501361697) < 1e-9

    def test_depth_two(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--t", "2,2", "--terms", "100000")
        assert rc == 0
        assert out.startswith("t(2,2) = 0.2536695079")
        value = float(out.split("=")[1].split()[0])
        assert abs(value - 0.25366950790310023) < 1e-9

    def test_divergent_exits_1(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "--t", "1")
        assert rc == 1
        assert "diverges" in err

    def test_unparsable_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "--t", "two")
        assert rc == 2

    def test_precision_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TSUMS_PRECISION", "25")
        rc, out, _ = run_cli(capsys, "eval", "--t", "2", "--terms", "1000")
        assert rc == 0

    def test_precision_below_ten_exits_2(self, capsys):
        for digits in ("0", "9"):
            rc, out, err = run_cli(
                capsys, "eval", "--t", "2", "--terms", "100", "--precision", digits
            )
            assert rc == 2 and out == "" and "--precision" in err

    def test_bad_precision_env_exits_2(self, capsys, monkeypatch):
        for raw in ("abc", "3"):
            monkeypatch.setenv("TSUMS_PRECISION", raw)
            rc, out, err = run_cli(capsys, "eval", "--t", "2", "--terms", "100")
            assert rc == 2 and out == "" and "TSUMS_PRECISION" in err

    def test_precision_flag_beats_bad_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TSUMS_PRECISION", "abc")
        rc, out, _ = run_cli(
            capsys, "eval", "--t", "2", "--terms", "100", "--precision", "20"
        )
        assert rc == 0 and out.startswith("t(2) = ")

    def test_inner_one_bound_is_an_estimate(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--t", "2,1", "--terms", "1000")
        assert rc == 0 and "err ~ " in out and "err <=" not in out
        rc, out, _ = run_cli(capsys, "eval", "--t", "2,2", "--terms", "1000")
        assert rc == 0 and "err <= " in out and "err ~" not in out

    def test_huge_exponent_is_cheap(self, capsys):
        # 3**(10**7) alone would take seconds to build; the pass caps it.
        t0 = time.perf_counter()
        rc, out, _ = run_cli(capsys, "eval", "--t", "10000000", "--terms", "3")
        assert time.perf_counter() - t0 < 2
        assert rc == 0 and out.startswith("t(10000000) = 1.0  err <= ")

    def test_printed_value_lies_within_err(self, capsys):
        # err (about 3e-38) lies far below the 20th digit, so the line
        # prints as many digits as err resolves and the value read back at
        # 60 digits is within err of pi**6/960 = t(6).
        rc, out, _ = run_cli(capsys, "eval", "--t", "6")
        assert rc == 0
        _, _, value, _, relation, err, *_ = out.split()
        assert relation == "<="
        with mp.workdps(60):
            assert abs(mp.mpf(value) - mp.pi**6 / 960) <= mp.mpf(err)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "eval", "--t", "2,4", "--terms", "20000")
        _, out2, _ = run_cli(capsys, "eval", "--t", "2,4", "--terms", "20000")
        assert out1 == out2


class TestDeterminismSubprocess:
    # The child imports the same tsums as this process, installed or not.
    SRC = str(Path(tsums.formulas.__file__).resolve().parents[1])
    ENV = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    }

    def test_table_byte_identical(self):
        cmd = [sys.executable, "-m", "tsums.cli", "table", "--max-n", "6",
               "--format", "json"]
        a = subprocess.run(cmd, capture_output=True, check=True, env=self.ENV)
        b = subprocess.run(cmd, capture_output=True, check=True, env=self.ENV)
        assert a.stdout == b.stdout and a.stdout

    def test_coeffs_byte_identical(self):
        cmd = [sys.executable, "-m", "tsums.cli", "coeffs", "--depth", "8",
               "--format", "latex"]
        a = subprocess.run(cmd, capture_output=True, check=True, env=self.ENV)
        b = subprocess.run(cmd, capture_output=True, check=True, env=self.ENV)
        assert a.stdout == b.stdout and a.stdout
