"""mpmath loads on the first numeric call: ``import tsums``, its
submodules and the exact CLI commands never import it, nor ``dataclasses``
or ``inspect``, and the package offers every public name of every layer."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tsums
import tsums.formulas
from tsums.cli import main

SRC = str(Path(tsums.formulas.__file__).resolve().parents[1])
NUMERIC = ["mpmath"]
# Slow to import and needed by no exact command: the package's records are
# slotted classes (exact._Frozen), not dataclasses.
STARTUP = ["dataclasses", "inspect"]

# The package's public names, in this order.
PUBLIC = [
    "PiPower", "bernoulli", "euler_number", "zeta_even", "t_even",
    "series_quotient", "cos_sqrt_series", "sin_sqrt_series", "genfunc_biseries",
    "tan_link_series",
    "TTable", "CoeffRow", "DepthSumResult", "BernoulliEulerResult", "t_all_twos",
    "T_from_t_values", "T_from_bernoulli", "T_from_euler", "T_table_from_genfunc",
    "coeff_row", "depth_sum_identity", "bernoulli_euler_lhs", "bernoulli_euler_check",
    "SymPoly", "monomial_depth_sum", "check_bivariate_factorization",
    "check_monomial_expansion", "GenExpr", "monomial_depth_expr", "odd_square_image",
    "specialize_odd_squares",
    "DivergentSeriesError", "PrecReal", "TruncationParams", "t_numeric", "T_numeric",
    "pi_power_eval",
    "__version__",
]


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports this tsums and return
    the JSON value of its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k != "TSUMS_PRECISION"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_commands_load_no_numeric_layer():
    loaded = fresh(f"""
        import contextlib, io, json, sys
        import tsums
        loaded = {{"import tsums": [m for m in {NUMERIC!r} if m in sys.modules]}}
        import tsums.cli
        for argv in (["table", "--max-n", "8", "--format", "json"],
                     ["coeffs", "--depth", "5"],
                     ["verify", "--suite", "depth-sum"],
                     ["verify", "--suite", "symmetric"]):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                assert tsums.cli.main(argv) == 0, argv
            loaded[" ".join(argv)] = [m for m in {NUMERIC!r} if m in sys.modules]
        print(json.dumps(loaded))
    """)
    assert loaded == {stage: [] for stage in loaded} and len(loaded) == 5


def test_start_up_loads_no_dataclasses_inspect_or_mpmath():
    loaded = fresh(f"""
        import contextlib, io, json, sys
        watched = {STARTUP + NUMERIC!r}
        import tsums
        loaded = {{"import tsums": [m for m in watched if m in sys.modules]}}
        from tsums import cli
        loaded["from tsums import cli"] = [m for m in watched if m in sys.modules]
        for argv in (["table", "--max-n", "8"], ["coeffs", "--depth", "5"],
                     ["verify", "--suite", "depth-sum"]):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0, argv
            loaded[" ".join(argv)] = [m for m in watched if m in sys.modules]
        print(json.dumps(loaded))
    """)
    assert loaded == {stage: [] for stage in loaded} and len(loaded) == 5


def test_star_import_gives_every_name():
    names = fresh("""
        import json
        namespace = {}
        exec("from tsums import *", namespace)
        print(json.dumps(sorted(set(namespace) - {"__builtins__"})))
    """)
    assert names == sorted(PUBLIC)


def test_all_keeps_its_names_and_order():
    assert fresh("import json, tsums; print(json.dumps(tsums.__all__))") == PUBLIC
    assert tsums.__all__ == PUBLIC


def test_dunder_probe_loads_nothing():
    seen = fresh(f"""
        import json, sys
        import tsums
        probes = [hasattr(tsums, "__test__"), hasattr(tsums, "__wrapped__")]
        loaded = [m for m in {NUMERIC!r} if m in sys.modules]
        missing = hasattr(tsums, "no_such_name")
        print(json.dumps([probes, loaded, missing, "__getattr__" in vars(tsums)]))
    """)
    assert seen == [[False, False], [], False, False]


@pytest.mark.parametrize("statement", [
    "from tsums import cli",
    "from tsums import verify",
    "import tsums; hasattr(tsums, 'no_such_name')",
])
def test_submodule_or_missing_name_loads_no_mpmath(statement):
    loaded = fresh(f"""
        import json, sys
        {statement}
        print(json.dumps([m for m in {NUMERIC!r} if m in sys.modules]))
    """)
    assert loaded == []


@pytest.mark.parametrize("env, argv", [
    ({}, ["verify", "--suite", "depth-sum", "--precision", "5"]),
    ({"TSUMS_PRECISION": "abc"}, ["verify", "--suite", "depth-sum"]),
    ({"TSUMS_PRECISION": "5"}, ["verify", "--suite", "closed-forms", "--max-n", "2"]),
])
def test_bad_precision_is_refused_for_an_exact_suite(capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_eval_prints_the_default_terms(capsys):
    assert main(["eval", "--t", "4"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("terms = 1000000")
