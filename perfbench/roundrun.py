"""One benchmark round in a fresh interpreter (started by run.py).

It prints ``ready`` as soon as ``import tsums`` has finished, which is where
the parent stops its set-up clock, and then times a few runs of a fixed
speed probe (``probe``).  With ``--setup-only`` it stops there and prints
the probe times; otherwise it issues the plan's requests one at a time (a
closed loop with one client), times each call, checks each result, runs the
probe before the first request, between requests every PROBE_EVERY_S
seconds and after the last request, and prints one
JSON line: latencies, probe times, failures by exception type, peak RSS
and, when traced, per-layer metrics.  run.py uses the probe times to take
the host's changing speed out of the times.
"""

import sys

import tsums  # set-up ends here

sys.stdout.write("ready\n")
sys.stdout.flush()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tsums.cli  # noqa: E402,F401  (the CLI requests call tsums.cli.main)
from tracing import Tracer  # noqa: E402
from workloads import PLANS, load_data  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP_PROBES = 3  # probe runs right after set-up
PROBE_EVERY_S = 0.04  # in an untraced round, probe between requests this often


def probe_kernel() -> None:
    """A fixed piece of pure-Python work in the mix the workloads do:
    rational arithmetic on growing denominators, dict updates keyed by
    tuples, and big-integer multiplies and shifts (mpmath's backend)."""
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k, k * k + 1)
    d: dict = {}
    for i in range(1000):
        key = (i % 7, i % 11, i % 13)
        d[key] = d.get(key, 0) + i
    x, y = 3**200, 7**190
    for _ in range(500):
        x = ((x * y) >> 520) | 1


def probe() -> float:
    """Seconds one probe_kernel takes now, with the collector held off."""
    gc.disable()
    t0 = perf_counter()
    probe_kernel()
    t = perf_counter() - t0
    gc.enable()
    return t


def main(argv: list[str], setup_probes: list[float]) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    where = Path(tsums.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"tsums was imported from {where}, not from {SRC}")

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.calibrate()
    plan = PLANS[args.workload](tsums, args.seed, args.size, load_data())

    latencies: list[float] = []
    errors: dict[str, int] = {}
    failed_labels: list[str] = []
    rel_max = 0.0
    probes: list[list] = []  # [index of the request just before it, seconds]
    if not tracer:
        probes.append([-1, probe()])
    gc.collect()
    root = tracer.open("bench.round") if tracer else None
    probe_total = 0.0
    start = last_probe = perf_counter()
    for i, req in enumerate(plan):
        if tracer:
            span = tracer.open("bench.request", i)
        error = None
        t0 = perf_counter()
        try:
            result = req.call()
        except Exception as exc:  # a request that raises counts as failed
            error = type(exc).__name__
        t1 = perf_counter()
        if error is None:
            try:
                ok, rel = req.check(result)
            except Exception as exc:
                ok, rel, error = False, None, f"check:{type(exc).__name__}"
            if rel is not None:
                rel_max = max(rel_max, rel)
            if not ok and error is None:
                error = "mismatch"
        if tracer:
            tracer.close(span)
        latencies.append(t1 - t0)
        if error is not None:
            errors[error] = errors.get(error, 0) + 1
            if len(failed_labels) < 5:
                failed_labels.append(f"{req.label}: {error}")
        if not tracer and perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append([i, probe()])
            probe_total += probes[-1][1]
            last_probe = perf_counter()
    wall = perf_counter() - start - probe_total
    if not tracer:
        probes.append([len(plan) - 1, probe()])
    if tracer:
        tracer.close(root)

    out = {
        "wall_s": wall,
        "latencies": latencies,
        "setup_probes": setup_probes,
        "probes": probes,
        "attempted": len(plan),
        "failed": sum(errors.values()),
        "errors": errors,
        "failed_labels": failed_labels,
        "rel_err_bound_max": rel_max,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent
        if args.spans is not None:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    setup_probes = [probe() for _ in range(SETUP_PROBES)]
    if sys.argv[1:] == ["--setup-only"]:
        sys.stdout.write(json.dumps({"setup_probes": setup_probes}) + "\n")
    else:
        main(sys.argv[1:], setup_probes)
