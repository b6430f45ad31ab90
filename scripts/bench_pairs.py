"""Compare two source checkouts with the benchmark and write a BENCH file.

For every workload, runs ``benchmarks/run.py`` in each checkout in 10 pairs
on seed 1, the first side of each pair alternating; then 3 confirming pairs
on the held-out seed 7919; then 5 pairs of traced runs on seed 1. Each
checkout runs its own copy of the benchmark, so give both the same
``benchmarks/`` tree. Reports both git SHAs, the machine notes, and, per
workload and metric, each side's runs, median and quartiles and how many
pairs the change won. Then 3 alternating pairs of processes time per-pair
sampling, one-pair counting, block counting per cell at N 4 and 8, and the
polyline oracle at N 1..3, and per call ``exact --sweep 1..200`` at r 0, 1
and 2 and ``verify --N 1..3 --fiber-attempts 200000``, in each checkout's
package (``MICRO``); each timing keeps every process's value, the pairs the
change won and each side's fastest value. Last, each checkout's Tier-1 test
suite runs once, parent first, and its wall time is recorded.

    python scripts/bench_pairs.py --parent ../parent --change . --out BENCH_2.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("mc_lowdeg", "mc_highdeg", "crosscheck")
SEED = 1
CONFIRM_SEED = 7919
PAIRS = 10
CONFIRM_PAIRS = 3
TRACED_PAIRS = 5
TRACED = ("intersect.count_self_s", "intersect.count_busy_s", "curves.eval_busy_s",
          "sampling.busy_s", "montecarlo.self_s", "trace.overhead")
MICRO_PAIRS = 3

# Microseconds per pair, printed as one JSON line: each sampler the package
# has, on 64 indices of seed 1 at r=0 (timeit, fastest of 5);
# count_intersections on 300 pre-sampled r=0 pairs (fastest of 7 passes);
# count_intersections_many on 4 blocks of 64 pre-sampled pairs of seed 1 per
# cell at N 4 and 8, r 0 and 1 (fastest of 5 passes), the per-cell figure the
# traced report lacks for the block counter; brute_force_count on 8
# pre-sampled r=0 pairs at N 1..3 (fastest of 3 passes). Microseconds per
# call: the CLI's `exact --sweep 1..200` at r 0, 1 and 2 and `verify --N 1..3
# --fiber-attempts 200000 --seed 0 --json`, output captured (fastest of 3).
MICRO = r"""
import contextlib, io, json, time, timeit
import curvecross.cli as C
import curvecross.sampling as S
import curvecross.intersect as I
from curvecross.intersect import count_intersections
out = {}
def fastest(fn, passes):
    best = float("inf")
    for _ in range(passes):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best
def per_pair(fn, number):
    return min(timeit.repeat(fn, number=number, repeat=5)) / number / 64 * 1e6
for N in (1, 2, 8):
    out[f"sample_pair_N{N}"] = per_pair(
        lambda: [S.sample_pair(N, 0, S.SeedSpec(1, i)) for i in range(64)], 3)
    out[f"sample_max_norm_weighted_pair_k4_N{N}"] = per_pair(
        lambda: [S.sample_max_norm_weighted_pair(N, 0, 4.0, S.SeedSpec(1, i)) for i in range(64)], 3)
    if hasattr(S, "sample_pairs"):
        out[f"sample_pairs_block64_N{N}"] = per_pair(lambda: S.sample_pairs(N, 0, 1, range(64)), 10)
        out[f"sample_max_norm_weighted_pairs_k4_block64_N{N}"] = per_pair(
            lambda: S.sample_max_norm_weighted_pairs(N, 0, 4.0, 1, range(64)), 10)
for N in (1, 2):
    pairs = [S.sample_pair(N, 0, S.SeedSpec(1, i)) for i in range(300)]
    best = fastest(lambda: [count_intersections(p.f, p.g) for p in pairs], 7)
    out[f"count_intersections_one_pair_N{N}"] = best / 300 * 1e6
if hasattr(I, "count_intersections_many") and hasattr(S, "sample_pairs"):
    for N in (4, 8):
        for r in (0, 1):
            blocks = [S.sample_pairs(N, r, 1, range(k, k + 64)) for k in range(0, 256, 64)]
            best = fastest(lambda: [I.count_intersections_many(f, g) for f, g in blocks], 5)
            out[f"count_intersections_many_block64_N{N}r{r}"] = best / 256 * 1e6
for N in (1, 2, 3):
    pairs = [S.sample_pair(N, 0, S.SeedSpec(1, i)) for i in range(8)]
    best = fastest(lambda: [I.brute_force_count(p.f, p.g) for p in pairs], 3)
    out[f"brute_force_count_N{N}"] = best / 8 * 1e6
def cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        C.main(argv)
calls = {}
for r in (0, 1, 2):
    argv = ["exact", "--sweep", "1..200", "--r", str(r)]
    calls[f"exact_sweep_1..200_r{r}"] = fastest(lambda: cli(argv), 3) * 1e6
argv = ["verify", "--N", "1..3", "--fiber-attempts", "200000", "--seed", "0", "--json"]
calls["verify_N1..3_fiber200000"] = fastest(lambda: cli(argv), 3) * 1e6
print(json.dumps({"per_pair": out, "per_call": calls}))
"""


def run(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One benchmark run: its correctness, metric values and parts of its report."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    report = json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return {
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "machine": report["machine"],
        "absent_spans": report.get("absent_spans"),
        "cells": report.get("cells"),
    }


def micro(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    out = subprocess.run([sys.executable, "-c", MICRO], cwd=checkout, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def micro_pairs(parent: Path, change: Path) -> dict:
    """Timings of MICRO_PAIRS alternating pairs of processes, as {"per_pair":
    ..., "per_call": ...}: per timing, each side's per-process values, their
    stats and the pairs the change won, as summarize gives them, and each
    side's fastest value."""
    rows = []
    for k in range(MICRO_PAIRS):
        if k % 2 == 0:
            p, c = micro(parent), micro(change)
        else:
            c, p = micro(change), micro(parent)
        rows.append((p, c))
    out = {}
    for part in ("per_pair", "per_call"):
        names = rows[0][0][part]
        timings = [({"metrics": p[part]}, {"metrics": c[part]}) for p, c in rows]
        out[part] = summarize(timings, dict.fromkeys(names, "lower"), names)
        for entry in out[part].values():
            entry["parent_fastest"] = min(entry["parent"])
            entry["change_fastest"] = min(entry["change"])
    return out


def tier1(checkout: Path) -> dict:
    """One run of the checkout's Tier-1 test suite: its wall time and the
    last line of pytest's summary."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    began = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                          "-p", "no:cacheprovider"],
                         cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - began, "summary": lines[-1] if lines else "",
            "returncode": out.returncode}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def alternate(parent: Path, change: Path, workload: str, seed: int, pairs: int,
              trace: int = 0) -> list:
    """Pairs of (parent run, change run), the first side alternating."""
    rows = []
    for k in range(pairs):
        if k % 2 == 0:
            p = run(parent, workload, seed, trace)
            c = run(change, workload, seed, trace)
        else:
            c = run(change, workload, seed, trace)
            p = run(parent, workload, seed, trace)
        rows.append((p, c))
        print(f"{workload} seed {seed} trace {trace} pair {k}: "
              f"parent {p['metrics']} change {c['metrics']}", file=sys.stderr, flush=True)
    return rows


def summarize(rows: list, better: dict, names=None) -> dict:
    out = {}
    for name in names or rows[0][0]["metrics"]:
        p = [r[0]["metrics"][name] for r in rows]
        c = [r[1]["metrics"][name] for r in rows]
        sign = 1.0 if better[name] == "higher" else -1.0
        qp = quartiles(p)
        out[name] = {
            "parent": p, "change": c,
            "parent_stats": qp, "change_stats": quartiles(c),
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "pairs": len(rows),
            "median_gap_over_parent_iqr": (
                abs(quartiles(c)["median"] - qp["median"]) / (qp["q3"] - qp["q1"])
                if qp["q3"] > qp["q1"] else None),
        }
    return out


def notes(machine: dict) -> list:
    m = machine["change"]
    return [
        f"Parent {machine['parent']['git_sha'][:7]} against change {m['git_sha'][:7]}, each a "
        "git checkout with the same benchmarks/ tree.",
        "Made with one run of scripts/bench_pairs.py. Each run is 'python3 benchmarks/run.py "
        "--workload <w> --seed <s> [--trace 1]' with its default duration; the first side of "
        "each pair alternates.",
        f"end_to_end: {PAIRS} alternating pairs on seed {SEED}. confirm: {CONFIRM_PAIRS} "
        f"alternating pairs on held-out seed {CONFIRM_SEED}. traced: {TRACED_PAIRS} alternating "
        f"pairs of traced runs on seed {SEED}; per_layer values are each run's fastest traced "
        "pass.",
        f"Machine: {m['nproc']} CPUs, {m['cpu_model']}; Python {m['python']}, numpy "
        f"{m['numpy']}, scipy {m['scipy']}, {m['blas']} on {m['blas_threads']} thread(s).",
        "Stats are the median and the inclusive quartiles; change_wins counts pairs where the "
        "change was better in the metric's declared direction, ties counting for neither.",
        f"micro_us_per_pair: {MICRO_PAIRS} alternating pairs of processes, each timing per-pair "
        "sampling at N 1, 2 and 8 (r=0, 64 indices of seed 1, timeit fastest of 5), "
        "count_intersections on one pair at N 1 and 2 (300 pre-sampled r=0 pairs, fastest of 7 "
        "passes), count_intersections_many per cell at N 4 and 8, r 0 and 1 (4 blocks of 64 "
        "pre-sampled pairs of seed 1, fastest of 5 passes) and brute_force_count at N 1..3 "
        "(8 pre-sampled r=0 pairs, fastest of 3 passes). Per timing: each process's value "
        "per side, their stats, change_wins over the process pairs, and each side's fastest "
        "value.",
        "micro_us_per_call: the same processes time the CLI's 'exact --sweep 1..200' at r 0, 1 "
        "and 2 and 'verify --N 1..3 --fiber-attempts 200000 --seed 0 --json', output captured, "
        "fastest of 3 calls; reported as micro_us_per_pair is.",
        "tier1: one run of each checkout's Tier-1 suite ('python -m pytest -q "
        "--continue-on-collection-errors' with the checkout's src on PYTHONPATH), parent first; "
        "one run per side, with nothing else alternating against it.",
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    workloads = {}
    for workload in WORKLOADS:
        rows = alternate(args.parent, args.change, workload, SEED, PAIRS)
        confirm = alternate(args.parent, args.change, workload, CONFIRM_SEED, CONFIRM_PAIRS)
        traced = alternate(args.parent, args.change, workload, SEED, TRACED_PAIRS, trace=1)
        last = traced[-1]
        machine = {side: last[i]["machine"] for i, side in enumerate(("parent", "change"))}
        workloads[workload] = {
            "all_correct": all(r["correct"] for pair in rows + confirm + traced for r in pair),
            "end_to_end": summarize(rows, better),
            "confirm": summarize(confirm, better),
            "traced": summarize(traced, better, TRACED),
            "absent_spans": {side: last[i]["absent_spans"]
                             for i, side in enumerate(("parent", "change"))},
            "traced_cells": {side: last[i]["cells"]
                             for i, side in enumerate(("parent", "change"))},
        }
        doc = {
            "notes": notes(machine),
            "parent_sha": machine["parent"]["git_sha"],
            "change_sha": machine["change"]["git_sha"],
            "seed": SEED,
            "confirm_seed": CONFIRM_SEED,
            "machine": machine,
            "workloads": workloads,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")  # kept if a later workload fails
    micro_runs = micro_pairs(args.parent, args.change)
    doc["micro_us_per_pair"] = micro_runs["per_pair"]
    doc["micro_us_per_call"] = micro_runs["per_call"]
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    doc["tier1"] = {side: tier1(path) for side, path in (("parent", args.parent),
                                                          ("change", args.change))}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
