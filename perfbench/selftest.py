"""Tests of the benchmark itself, at tiny sizes (about a minute in all).

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's default test run; they
start interpreters and belong to the benchmark, not to the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracing import Tracer  # noqa: E402
from workloads import reference_coeffs, zigzag  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"exact-sweep": 6, "symmetric": 4, "oracle-sweep": 2, "eval-requests": 1}


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / HERE.name / "run.py"), *args],
                          capture_output=True, text=True, cwd=root, timeout=170)


def tiny(workload: str, trace: int = 0, root: Path = ROOT) -> subprocess.CompletedProcess:
    return bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
                 "--size", str(TINY[workload]), root=root)


def copy_benchmark(root: Path) -> Path:
    """A copy of this directory under ``root``; returns the copy's data directory."""
    shutil.copytree(HERE, root / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    return root / HERE.name / "data"


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_reference_matches_known_values():
    assert zigzag(9) == [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    ref = reference_coeffs(5)
    assert ref[(3, 2)] == Fraction(1, 3840)  # T(6,2) = pi^6/3840
    assert ref[(1, 1)] == Fraction(1, 8)  # t(2) = pi^2/8


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_workload_runs(workload):
    res = result(tiny(workload))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def _corrupt_golden(data: Path) -> str:
    golden = json.loads((data / "golden.json").read_text())
    golden[str(TINY["exact-sweep"])] = {k: "0" * 64 for k in golden[str(TINY["exact-sweep"])]}
    (data / "golden.json").write_text(json.dumps(golden))
    return "exact-sweep"


def _corrupt_eval_refs(data: Path) -> str:
    refs = json.loads((data / "eval_refs.json").read_text())
    for entry in refs["vectors"].values():
        if "ref" in entry:
            entry["ref"] = str(float(entry["ref"]) * 1.5)
    (data / "eval_refs.json").write_text(json.dumps(refs))
    return "eval-requests"


def _tighten_seed_bounds(data: Path) -> str:
    bounds = json.loads((data / "seed_bounds.json").read_text())
    bounds["oracle-sweep"] = {k: str(float(v) / 1000) for k, v in bounds["oracle-sweep"].items()}
    (data / "seed_bounds.json").write_text(json.dumps(bounds))
    return "oracle-sweep"


@pytest.mark.parametrize("corrupt", [_corrupt_golden, _corrupt_eval_refs, _tighten_seed_bounds])
def test_corrupted_reference_fails_requests(tmp_path, corrupt):
    workload = corrupt(copy_benchmark(tmp_path))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    res = result(tiny(workload, root=tmp_path))
    assert not res["correct"]
    assert 0 < res["failed"] <= res["attempted"]


def test_traced_run_emits_every_per_layer_metric():
    res = result(tiny("symmetric", trace=1))
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["symfunc.calls"]["value"] > 0 and metrics["symfunc.poly_terms_max"]["value"] > 0
    layers = ("exact", "series", "formulas", "oracle", "symfunc", "verify", "cli", "bench")
    accounted = sum(metrics[f"{layer}.self_s"]["value"] for layer in layers)
    accounted += metrics["trace.subtracted_s"]["value"]
    assert accounted == pytest.approx(metrics["trace.wall_s"]["value"], rel=0.02)


def test_symmetric_above_degree_8_is_rejected_before_any_worker():
    proc = bench("--workload", "symmetric", "--seed", "1", "--seconds", "1", "--trace", "0",
                 "--size", "9")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "above 8" in proc.stderr


def test_fails_without_the_package_sources(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "oracle-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


def test_deleted_name_is_reported_absent(monkeypatch):
    import tsums.series

    monkeypatch.delattr(tsums.series, "genfunc_biseries")
    tracer = Tracer()
    tracer.install()
    try:
        assert "series.genfunc_biseries" in tracer.absent
        assert tracer.metrics()["series.genfunc_biseries.self_s"] == 0.0
    finally:
        tracer.uninstall()
