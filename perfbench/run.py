"""Benchmark for tsums: closed-loop request workloads, end to end and per layer.

One workload:

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

Every workload, printing all seven end-to-end metrics with their units:

    python3 perfbench/run.py --all --seed 1 --seconds 20 [--trace 1]

A run spawns a fresh single-threaded interpreter per round, so every round
starts with empty caches, as every ``tsums`` command does.  A round issues
the workload's fixed request list one request at a time and checks every
result.  ``--trace 0`` reports the end-to-end metrics, with every time
scaled to a reference host speed by the speed probes each round runs;
``--trace 1`` runs untraced and traced rounds alternately and reports the
per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Nothing is built: the rounds import ``tsums`` from ``src`` next to
this directory, and the run exits 2 without a result when it is missing.
See README.md in this directory for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

from workloads import WORKLOADS, size_error  # noqa: E402

SETUP_STARTS = 5  # set-up-only interpreters per run, on top of one per round
WORKER_TIMEOUT_S = 150
MIN_ROUNDS = 4  # fewer put symmetric's tail on the boundary between two request groups
RUN_BUDGET = 1.25  # after MIN_ROUNDS, no round starts once the run would end past this many --seconds
RUN_BUDGET_S = 150  # ... or past this many seconds

END_TO_END = {  # name: unit
    "setup_s": "s", "wall_s": "s", "request_p50_s": "s", "request_tail_s": "s",
    "peak_rss_mb": "MB",
}
RESULT_METRICS = {"fail_ratio": "ratio", "rel_err_bound_max": "ratio"}

# Times are reported at a reference host speed: the one at which the speed
# probe in roundrun.py takes PROBE_REF_S.  A 2-vCPU VM shared with other
# tenants changes speed by up to 2x in spells of a second to minutes, so every
# time a worker measures is scaled by (PROBE_REF_S / p) ** exponent.  For
# set-up, p is the median of the probes run right after it; for a request,
# p is the mean of the probe run just before it and the one run just after
# it.  The exponents are below 1 because the probe's time swings more than
# the workloads' do; each is the one that left the smallest spread over
# replayed runs (see README.md).
PROBE_REF_S = 0.0016  # about what the probe takes on such a VM when it is calm
SETUP_EXPONENT = 0.75
REQUEST_EXPONENT = 0.9


def speed_factor(probes: list[float], exponent: float) -> float:
    return (PROBE_REF_S / statistics.median(probes)) ** exponent


class WorkerError(RuntimeError):
    pass


def spawn(worker_args: list[str]) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds at the reference speed, its result).

    Set-up is the time from starting the interpreter to its ``ready`` line,
    printed once ``import tsums`` has finished, scaled by the speed probes
    the worker runs right after it.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("TSUMS_PRECISION", "PYTHONSTARTUP")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "roundrun.py"), *worker_args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S}s: {worker_args}")
    if ready != "ready\n" or proc.returncode != 0:
        raise WorkerError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    lines = out.splitlines()
    if not lines:
        raise WorkerError(f"worker printed no result: {worker_args}")
    res = json.loads(lines[-1])
    return setup * speed_factor(res["setup_probes"], SETUP_EXPONENT), res


def at_reference_speed(res: dict) -> tuple[float, list[float]]:
    """(wall_s, latencies) of an untraced round at the reference speed.

    Each latency is scaled by the speed factor of the two probes around its
    request; the round's wall_s, checks included, by the factor by which
    that scales the sum of its latencies."""
    probes = res["probes"]  # [index of the request just before it, seconds]
    after = [i for i, _ in probes]
    measured = res["latencies"]
    scaled = []
    for i, x in enumerate(measured):
        j = bisect.bisect_left(after, i)  # the first probe run after request i
        scaled.append(x * speed_factor([probes[j - 1][1], probes[j][1]], REQUEST_EXPONENT))
    return res["wall_s"] * sum(scaled) / sum(measured), scaled


def latency_profile(rounds: list[list[float]]) -> list[float]:
    """Each request's median latency over the rounds (every round issues
    the same requests in the same order)."""
    return [statistics.median(xs) for xs in zip(*rounds)]


def tail(profile: list[float], n_rounds: int) -> tuple[float, float, int]:
    """(latency, percentile, distinct requests beyond it) at the highest
    percentile of the profile with at least 10 requests beyond it, counting
    each profile entry once for each of the n_rounds rounds planned.

    The planned count, not the count of rounds done, so that a run a slow
    host cuts short takes its tail at the same rank as every other run."""
    xs = sorted(profile)
    samples = len(xs) * n_rounds
    if samples <= 10:
        return xs[-1], 100.0, 0
    k = -(-11 // n_rounds)  # the 11th largest sample
    return xs[-k], 100.0 * (samples - 10) / samples, k - 1


def rounds_for(workload: str, seconds: int) -> int:
    """Round count from the run length and the workload's nominal round
    time: a fixed count, so the tail percentile is the same on every run
    that finishes within its time budget."""
    return max(MIN_ROUNDS, round(seconds / WORKLOADS[workload][3]))


def run_workload(workload: str, seed: int, seconds: int, trace: bool, size: int) -> dict:
    n_rounds = rounds_for(workload, seconds)
    kinds = [0, 1] * max(2, math.ceil(n_rounds / 2)) if trace else [0] * n_rounds
    base = ["--workload", workload, "--seed", str(seed), "--size", str(size)]
    budget = min(RUN_BUDGET * seconds, RUN_BUDGET_S)
    started = perf_counter()
    spawn(["--setup-only"])  # untimed: writes bytecode, warms the file cache
    setups = [spawn(["--setup-only"])[0] for _ in range(SETUP_STARTS)]
    results: dict[int, list[dict]] = {0: [], 1: []}
    spans = OUT_DIR / f"spans-{workload}.csv"
    spans_written = False
    longest = 0.0
    for i, kind in enumerate(kinds):
        if i >= MIN_ROUNDS and perf_counter() - started + longest > budget:
            break
        t0 = perf_counter()
        extra = ["--trace", str(kind)]
        if kind and i == 1:  # keep the spans of the first traced round
            OUT_DIR.mkdir(exist_ok=True)
            extra += ["--spans", str(spans)]
            spans_written = True
        setup, res = spawn(base + extra)
        longest = max(longest, perf_counter() - t0)
        setups.append(setup)
        results[kind].append(res)

    everything = results[0] + results[1]
    plain = results[0]
    walls, latencies = zip(*(at_reference_speed(r) for r in plain))
    profile = latency_profile(latencies)
    tail_s, tail_pct, tail_requests = tail(profile, kinds.count(0))
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    errors: dict[str, int] = {}
    for r in everything:
        for k, v in r["errors"].items():
            errors[k] = errors.get(k, 0) + v
    summary = {
        "workload": workload, "seed": seed, "size": size,
        "rounds": len(plain), "traced_rounds": len(results[1]),
        "requests_per_round": plain[0]["attempted"],
        "tail_percentile": tail_pct, "tail_requests": tail_requests,
        "tail_samples": len(profile) * kinds.count(0),
        "measured_wall_s": statistics.median(r["wall_s"] for r in plain),
        "probe_s": statistics.median(p for r in plain for _, p in r["probes"]),
        "attempted": attempted, "failed": failed, "errors": errors,
        "failed_labels": [x for r in everything for x in r["failed_labels"]][:5],
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "request_p50_s": statistics.median(profile),
            "request_tail_s": tail_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "fail_ratio": failed / attempted,
            "rel_err_bound_max": max(r["rel_err_bound_max"] for r in everything),
        },
    }
    if trace:
        traced = results[1]
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        layers["result.fail_ratio"] = summary["end_to_end"]["fail_ratio"]
        layers["result.rel_err_bound_max"] = summary["end_to_end"]["rel_err_bound_max"]
        summary["per_layer"] = layers
        summary["absent"] = traced[0]["absent"]
        summary["spans_file"] = str(spans.relative_to(ROOT)) if spans_written else None
    return summary


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_term"):
        return "ns"
    if name.endswith(("ratio", "rel_err_bound_max")):
        return "ratio"
    return "count"


def print_summary(s: dict) -> None:
    w = s["workload"]
    print(f"# {w}: seed {s['seed']}, size {s['size']}, {s['rounds']} rounds of "
          f"{s['requests_per_round']} requests, {s['traced_rounds']} traced rounds; "
          f"probe {1e3 * s['probe_s']:.3f} ms (reference {1e3 * PROBE_REF_S:g} ms), "
          f"measured wall_s {s['measured_wall_s']:.6g} s")
    units = {**END_TO_END, **RESULT_METRICS}
    for name, value in s["end_to_end"].items():
        note = ""
        if name == "request_tail_s":
            note = (f"  (p{s['tail_percentile']:.2f} of {s['tail_samples']} requests in the planned rounds; "
                    f"{s['tail_requests']} distinct requests of the round lie beyond it)")
        elif name == "request_p50_s":
            note = f"  (of {s['requests_per_round']} requests, each a median over {s['rounds']} rounds)"
        print(f"{w}  {name:<20} {value:.6g} {units[name]}{note}")
    if s["errors"]:
        print(f"{w}  failures by type: {s['errors']}; first: {s['failed_labels']}")
    if "per_layer" in s:
        layers = s["per_layer"]
        for name, value in layers.items():
            print(f"{w}  {name:<44} {value:.6g} {per_layer_unit(name)}")
        net = layers["trace.wall_s"] - layers["trace.subtracted_s"]
        for layer in ("exact", "formulas", "series", "symfunc", "oracle", "verify", "cli", "bench"):
            share = layers[f"{layer}.self_s"] / net if net else 0.0
            print(f"{w}  share {layer:<10} {100 * share:6.2f} % of traced wall_s net of tracer cost")
        if s["absent"]:
            print(f"{w}  absent (deleted) names: {', '.join(s['absent'])}")
        if s["spans_file"]:
            print(f"{w}  spans written to {s['spans_file']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=None,
                    help="workload size (default: the workload's own; see README.md)")
    args = ap.parse_args(argv)

    if not 1 <= args.seconds <= 600:
        print("error: --seconds must be in [1, 600]", file=sys.stderr)
        return 2
    if not (SRC / "tsums" / "__init__.py").is_file():
        print(f"error: no tsums sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workloads = sorted(WORKLOADS) if args.all else [args.workload]
    if args.all and args.size is not None:
        print("error: --size applies to a single --workload", file=sys.stderr)
        return 2
    sizes = {w: WORKLOADS[w][0] if args.size is None else args.size for w in workloads}
    for w in workloads:
        problem = size_error(w, sizes[w])
        if problem:
            print(f"error: {problem}", file=sys.stderr)
            return 2

    summaries = []
    try:
        for w in workloads:
            summaries.append(run_workload(w, args.seed, args.seconds, bool(args.trace), sizes[w]))
            print_summary(summaries[-1])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.all:
        result = {s["workload"]: s["end_to_end"] for s in summaries}
        print(json.dumps(result))
        return 0
    s = summaries[0]
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in s["per_layer"].items()}
    else:
        metrics = {k: {"value": s["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": s["failed"] == 0, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
