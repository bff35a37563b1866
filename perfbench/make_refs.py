"""Regenerate the benchmark's stored references from the current ``src``.

Run once at the commit whose outputs the benchmark pins (its seed commit):

    PYTHONPATH=src python3 perfbench/make_refs.py

It writes three files under ``perfbench/data``:

* ``golden.json`` -- sha256 of the stdout of every ``table``/``coeffs``
  request an exact-sweep plan can issue, for each K in EXACT_SIZES;
* ``seed_bounds.json`` -- the error bound each oracle-sweep cell and each
  symmetric spot check reports, the base of the no-looser-bound check;
* ``eval_refs.json`` -- the eval-requests vector pool, in slots: for each
  vector the bound reported at the workload's terms and, for depth >= 2, a
  reference value and bound computed with 10x the terms.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from multiprocessing import get_context

import mpmath as mp

import tsums
import tsums.cli  # noqa: F401
from workloads import (DATA_DIR, EVAL_DPS, EVAL_MAX_DEPTH, EXACT_SIZES, ORACLE_MAX_N,
                       ORACLE_TERMS, SPOT_DPS, SPOT_N, SPOT_VARS, run_cli, sha256)

EVAL_TERMS = 40_000
REF_FACTOR = 10
SLOTS_PER_DEPTH = 8
DEPTH1_EXPONENTS = (2, 3, 4, 5, 7, 9, 12, 16)


def golden() -> dict:
    out = {}
    for K in EXACT_SIZES:
        argvs = [["table", "--max-n", str(K), "--format", f] for f in ("json", "csv", "latex")]
        for d in range(1, K + 1):
            argvs += [["table", "--max-n", str(K), "--depth", str(d), "--format", f]
                      for f in ("json", "csv", "latex")]
            argvs += [["coeffs", "--depth", str(d), "--format", f] for f in ("json", "csv", "latex")]
        table = {}
        for argv in argvs:
            code, stdout = run_cli(tsums, argv)
            if code != 0:
                raise SystemExit(f"{argv} exited {code}")
            table[" ".join(argv)] = sha256(stdout)
        out[str(K)] = table
    return out


def seed_bounds() -> dict:
    params = tsums.TruncationParams(terms=ORACLE_TERMS, tail_order=1)
    oracle = {f"{n},{d}": mp.nstr(tsums.T_numeric(n, d, params, EVAL_DPS).err, 20)
              for n in range(1, ORACLE_MAX_N + 1) for d in range(1, n + 1)}
    exprs = {}
    for n in range(1, 5):
        exprs[f"e_{n}"] = tsums.GenExpr.elem(n)
        exprs[f"h_{n}"] = tsums.GenExpr.homog(n)
    for n, d in SPOT_N:
        exprs[f"N({n},{d})"] = tsums.monomial_depth_expr(n, d)
    symmetric = {label: mp.nstr(tsums.specialize_odd_squares(e, SPOT_VARS, SPOT_DPS).err, 20)
                 for label, e in exprs.items()}
    return {"oracle-sweep": oracle, "symmetric": symmetric}


def slots() -> list[list[list[int]]]:
    """The eval-requests pool as SLOTS_PER_DEPTH slots per depth; a plan
    takes one vector from each slot.  Depth-1 slots hold one exponent each.
    A deeper slot holds up to three orderings (s_1 >= 2) of one random
    multiset of exponents in 1..5, so that t_numeric, whose cost is a sum
    over levels, costs about the same whichever the seed picks."""
    rng = random.Random(2012)
    out = [[[s]] for s in DEPTH1_EXPONENTS]
    for depth in range(2, EVAL_MAX_DEPTH + 1):
        seen: set[tuple[int, ...]] = set()
        while len(seen) < SLOTS_PER_DEPTH:
            multiset = tuple(sorted(rng.randint(1, 5) for _ in range(depth)))
            if multiset[-1] < 2 or multiset in seen:
                continue
            seen.add(multiset)
            orders = sorted({p for p in itertools.permutations(multiset) if p[0] >= 2})
            out.append([list(p) for p in rng.sample(orders, min(3, len(orders)))])
    return out


def eval_entry(vec: list[int]) -> tuple[str, dict]:
    entry = {"seed_err": mp.nstr(tsums.t_numeric(vec, tsums.TruncationParams(EVAL_TERMS), EVAL_DPS).err, 20)}
    if len(vec) > 1:
        ref = tsums.t_numeric(vec, tsums.TruncationParams(REF_FACTOR * EVAL_TERMS), EVAL_DPS)
        entry["ref"] = mp.nstr(ref.value, EVAL_DPS + 5)
        entry["ref_err"] = mp.nstr(ref.err, 20)
    return ",".join(map(str, vec)), entry


def main() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    (DATA_DIR / "golden.json").write_text(json.dumps(golden(), indent=1, sort_keys=True) + "\n")
    (DATA_DIR / "seed_bounds.json").write_text(json.dumps(seed_bounds(), indent=1) + "\n")
    pool = slots()
    with get_context("spawn").Pool(2) as workers:
        entries = dict(workers.map(eval_entry, [v for slot in pool for v in slot], chunksize=1))
    refs = {"terms": EVAL_TERMS, "ref_terms": REF_FACTOR * EVAL_TERMS, "dps": EVAL_DPS,
            "slots": [[",".join(map(str, v)) for v in slot] for slot in pool], "vectors": entries}
    (DATA_DIR / "eval_refs.json").write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {DATA_DIR}", file=sys.stderr)


if __name__ == "__main__":
    main()
