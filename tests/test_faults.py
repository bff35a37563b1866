"""The fault matrix: which suites catch a wrong number in each shared source.

Each fault corrupts one number in a fresh interpreter, then every suite runs
small there: ``closed-forms``, ``genfunc`` and ``depth-sum`` to n = 12,
``bernoulli-euler`` on the 8 x 20 grid, ``symmetric`` at degree 4 and
``oracle`` to n = 4 with 20 000 terms.  The failed cases per suite are
pinned, so a change that makes a route read another route's numbers, or
drops the check that reads a source, changes a row here.

* ``B_4``: the Bernoulli table's B_4 is doubled.  B_2k cancels between
  ``coeff_row`` and t(2k) in the Bernoulli route, so closed-forms fails
  only the cells that read t(4) as their t(2n-2j) factor.
* ``E_4``: the Euler table's E_4 is doubled.  It reaches the Euler route,
  which every suite takes as its reference.
* ``sec_2``: coefficient 2 of every reciprocal that ``series_quotient``
  returns (the secant series of genfunc and of the secant check) is
  doubled.
* ``t_4``: t(4) is doubled as ``formulas`` reads it, so only the t-value
  and Bernoulli routes see it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsums.formulas

SRC = str(Path(tsums.formulas.__file__).resolve().parents[1])

FAULTS = {
    "none": "",
    "B_4": """
        exact.bernoulli(80)
        exact._bernoulli_even[2] *= 2
    """,
    "E_4": """
        exact.euler_number(80)
        exact._euler_even[2] *= 2
    """,
    "sec_2": """
        quotient = series.series_quotient
        def series_quotient(num, den):
            out = quotient(num, den)
            if tuple(num) == (1,) and len(out) > 2:
                out = out[:2] + (2 * out[2],) + out[3:]
            return out
        series.series_quotient = series_quotient
    """,
    "t_4": """
        t_even = formulas.t_even
        formulas.t_even = lambda k: 2 * t_even(k) if k == 2 else t_even(k)
    """,
}

SIZES = {
    "closed-forms": {"max_n": 12},
    "genfunc": {"max_n": 12},
    "depth-sum": {"max_n": 12},
    "bernoulli-euler": {"max_n": 8, "max_d": 20},
    "symmetric": {"max_n": 4},
    "oracle": {"max_n": 4, "terms": 20_000},
}

RUN = """
import json, textwrap
from tsums import exact, formulas, series
from tsums.verify import run_suite
exec(textwrap.dedent({fault!r}))
print(json.dumps({{name: (rep["summary"]["failed"], rep["summary"]["total"]) for name, rep in
                  ((name, run_suite(name, **size)) for name, size in {sizes!r}.items())}}))
"""

# Failed cases per suite for each fault; "none" also pins the case totals.
TOTALS = {"closed-forms": 78, "genfunc": 127, "depth-sum": 12, "bernoulli-euler": 160,
          "symmetric": 23, "oracle": 10}
FAILED = {
    "none": {"closed-forms": 0, "genfunc": 0, "depth-sum": 0, "bernoulli-euler": 0,
             "symmetric": 0, "oracle": 0},
    "B_4": {"closed-forms": 3, "genfunc": 2, "depth-sum": 0, "bernoulli-euler": 98,
            "symmetric": 0, "oracle": 0},
    "E_4": {"closed-forms": 55, "genfunc": 56, "depth-sum": 11, "bernoulli-euler": 21,
            "symmetric": 1, "oracle": 3},
    "sec_2": {"closed-forms": 55, "genfunc": 66, "depth-sum": 0, "bernoulli-euler": 0,
              "symmetric": 0, "oracle": 0},
    "t_4": {"closed-forms": 39, "genfunc": 0, "depth-sum": 0, "bernoulli-euler": 0,
            "symmetric": 0, "oracle": 0},
}


def _run_with(fault: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TSUMS_PRECISION"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = RUN.format(fault=FAULTS[fault], sizes=SIZES)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_exactly_the_pinned_suites(fault):
    got = _run_with(fault)
    assert {name: failed for name, (failed, _) in got.items()} == FAILED[fault]
    assert {name: total for name, (_, total) in got.items()} == TOTALS
