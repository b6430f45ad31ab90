"""Compare two source checkouts with the benchmark and write a BENCH file.

For every workload, runs ``benchmarks/run.py`` in each checkout in 10 pairs
on seed 1, the first side of each pair alternating; then 3 confirming pairs
on the held-out seed 7919; then 5 pairs of traced runs on seed 1. Each
checkout runs its own copy of the benchmark, so give both the same
``benchmarks/`` tree. Reports both git SHAs, the machine notes, and, per
workload and metric, each side's runs, median and quartiles and how many
pairs the change won.

    python scripts/bench_pairs.py --parent ../parent --change . --out BENCH_2.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mc_lowdeg", "mc_highdeg", "crosscheck")
SEED = 1
CONFIRM_SEED = 7919
PAIRS = 10
CONFIRM_PAIRS = 3
TRACED_PAIRS = 5
TRACED = ("intersect.count_self_s", "intersect.count_busy_s", "curves.eval_busy_s",
          "sampling.busy_s", "montecarlo.self_s", "trace.overhead")


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
