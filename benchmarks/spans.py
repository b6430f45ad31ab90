"""Span recording for the traced benchmark run, from outside the package.

Nothing under ``src/`` is edited. The benchmark replaces, for the duration
of a traced pass, the bindings through which one curvecross module calls
another (for example ``curvecross.montecarlo.count_intersections``) with
recorders. Spans stay in memory as ``[name, start, end, parent, cell, info]``
rows and are written out when the run ends; self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from types import SimpleNamespace

import numpy as np

# (calling module, attribute, span name). Replacing the binding in the calling
# module records exactly the calls that cross the module boundary. A binding
# that a later refactor removes is reported as absent and not recorded.
BOUNDARIES = (
    ("curvecross.cli", "run_experiment", "montecarlo.run_experiment"),
    ("curvecross.cli", "run_chain", "chain.run_chain"),
    ("curvecross.cli", "mean_intersections_exact", "exact.mean"),
    ("curvecross.cli", "asymptote_ratio", "exact.asymptote_ratio"),
    ("curvecross.montecarlo", "mean_intersections_exact", "exact.mean"),
    ("curvecross.montecarlo", "sample_pair", "sampling.pair"),
    ("curvecross.montecarlo", "sample_max_norm_weighted_pair", "sampling.pair"),
    ("curvecross.montecarlo", "count_intersections", "intersect.count"),
    ("curvecross.intersect", "evaluate_many", "curves.evaluate_many"),
    ("curvecross.chain", "mean_intersections_exact", "exact.mean"),
    ("curvecross.chain", "_fiber_candidates", "sampling.fiber_candidates"),
    # called inside chain by run_chain; wrapped so the slice Monte Carlo
    # shows as its own span under chain.run_chain
    ("curvecross.chain", "fiber_mc_check", "chain.fiber_mc_check"),
)


def _count_info(args, result):
    return (getattr(result, "count", None), getattr(result, "degenerate", None))


def _fiber_info(args, result):
    return (getattr(result, "attempts", None), getattr(result, "accepted", None))


# what each span keeps from its call besides its times
INFO = {
    "curves.evaluate_many": lambda args, result: int(np.size(args[1])),
    "intersect.count": _count_info,
    "chain.fiber_mc_check": _fiber_info,
}

NAME, START, END, PARENT, CELL, DATA = range(6)


class Tracer:
    """In-memory span recorder; ``cell`` labels the spans of the current input cell."""

    def __init__(self):
        self.spans: list[list] = []
        self.cell: str | None = None
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        info = INFO.get(name)
        clock = time.perf_counter

        def recorder(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cell, None]
            stack.append(len(spans))
            spans.append(row)
            row[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()
            if info is not None:
                row[DATA] = info(args, result)
            return result

        return recorder

    def wrap_api(self, api: SimpleNamespace) -> SimpleNamespace:
        """The benchmark's own calls into the package, recorded as spans."""

        def cli_main(argv):
            return self.wrap("cli." + argv[0], api.cli_main)(argv)

        return SimpleNamespace(
            cli_main=cli_main,
            SeedSpec=api.SeedSpec,
            sample_pair=self.wrap("sampling.pair", api.sample_pair),
            count_intersections=self.wrap("intersect.count", api.count_intersections),
            brute_force_count=self.wrap("intersect.oracle", api.brute_force_count),
        )

    @contextlib.contextmanager
    def patched(self):
        """Record the cross-module calls listed in BOUNDARIES while active."""
        saved = []
        try:
            for modname, attr, name in BOUNDARIES:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    self.absent.add(f"{modname}.{attr}")
                    continue
                if not hasattr(module, attr):
                    self.absent.add(f"{modname}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sequence, else 0."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def _self_times(spans) -> tuple[list[float], list[float]]:
    dur = [row[END] - row[START] for row in spans]
    child = [0.0] * len(spans)
    for i, row in enumerate(spans):
        if row[PARENT] >= 0:
            child[row[PARENT]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(spans, wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the same split by input cell."""
    dur, own = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, row in enumerate(spans):
        by_name.setdefault(row[NAME], []).append(i)

    def ids(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def busy(idx):
        return sum(dur[i] for i in idx)

    def own_time(idx):
        return sum(own[i] for i in idx)

    sampling = [i for n, idx in by_name.items() if n.startswith("sampling.") for i in idx]
    pairs = ids("sampling.pair")
    evals = ids("curves.evaluate_many")
    counts = ids("intersect.count")
    oracles = ids("intersect.oracle")
    exacts = ids("exact.mean", "exact.asymptote_ratio")
    fibers = ids("chain.fiber_mc_check")
    runs = ids("montecarlo.run_experiment")
    clis = [i for n, idx in by_name.items() if n.startswith("cli.") for i in idx]

    count_set = set(counts)
    vertices = sum(spans[i][DATA] for i in evals)
    count_vertices = sum(spans[i][DATA] for i in evals if spans[i][PARENT] in count_set)
    eval_busy = busy(evals)
    count_self = own_time(counts)
    results = [spans[i][DATA] for i in counts]
    fiber_attempts = sum(spans[i][DATA][0] or 0 for i in fibers)
    fiber_accepted = sum(spans[i][DATA][1] or 0 for i in fibers)
    fiber_s = busy(fibers)
    exact_busy = busy(exacts)

    metrics = {
        "sampling.calls": len(sampling),
        "sampling.busy_s": busy(sampling),
        "sampling.share": busy(sampling) / wall_s,
        "sampling.pair_us_p50": 1e6 * percentile([dur[i] for i in pairs], 0.5),
        "sampling.pair_us_p99": 1e6 * percentile([dur[i] for i in pairs], 0.99),
        "curves.eval_calls": len(evals),
        "curves.vertices": vertices,
        "curves.eval_busy_s": eval_busy,
        "curves.eval_ns_per_vertex": 1e9 * eval_busy / vertices if vertices else 0.0,
        "intersect.count_calls": len(counts),
        "intersect.count_busy_s": busy(counts),
        "intersect.count_self_s": count_self,
        "intersect.share": count_self / wall_s,
        "intersect.self_us_per_vertex": 1e6 * count_self / count_vertices if count_vertices else 0.0,
        "intersect.count_ms_p50": 1e3 * percentile([dur[i] for i in counts], 0.5),
        "intersect.count_ms_p99": 1e3 * percentile([dur[i] for i in counts], 0.99),
        "intersect.solutions": sum(c for c, _ in results if c is not None),
        "intersect.degenerate": sum(1 for _, d in results if d),
        "intersect.oracle_calls": len(oracles),
        "intersect.oracle_busy_s": busy(oracles),
        "intersect.oracle_ms_p50": 1e3 * percentile([dur[i] for i in oracles], 0.5),
        "exact.calls": len(exacts),
        "exact.busy_s": exact_busy,
        "exact.us_per_call": 1e6 * exact_busy / len(exacts) if exacts else 0.0,
        "chain.run_chain_s": busy(ids("chain.run_chain")),
        "chain.fiber_s": fiber_s,
        "chain.fiber_attempts_per_s": fiber_attempts / fiber_s if fiber_s else 0.0,
        "chain.fiber_acceptance": fiber_accepted / fiber_attempts if fiber_attempts else 0.0,
        "montecarlo.run_s": busy(runs),
        "montecarlo.self_s": own_time(runs),
        "cli.self_s": own_time(clis),
        "cli.simulate_s": busy(ids("cli.simulate")),
        "cli.verify_s": busy(ids("cli.verify")),
        "cli.exact_sweep_s": busy(ids("cli.exact")),
    }
    counters = {
        "curves.vertices": vertices,
        "intersect.solutions": metrics["intersect.solutions"],
        "intersect.degenerate": metrics["intersect.degenerate"],
        "chain.fiber_attempts": fiber_attempts,
        "chain.fiber_accepted": fiber_accepted,
    }
    return metrics, {"counters": counters, "cells": _cell_metrics(spans, dur, count_set)}


def _cell_metrics(spans, dur, count_set) -> dict:
    cells: dict[str, dict] = {}
    for i, row in enumerate(spans):
        if row[CELL] is None:
            continue
        cell = cells.setdefault(row[CELL], {"count": [], "pair": [], "vertices": 0, "run": 0.0})
        if row[NAME] == "intersect.count":
            cell["count"].append(dur[i])
        elif row[NAME] == "sampling.pair":
            cell["pair"].append(dur[i])
        elif row[NAME] == "montecarlo.run_experiment":
            cell["run"] += dur[i]
        elif row[NAME] == "curves.evaluate_many" and row[PARENT] in count_set:
            cell["vertices"] += row[DATA]
    out = {}
    for name, cell in cells.items():
        n = len(cell["count"])
        if not n:
            continue
        out[name] = {
            "pairs": n,
            "count_ms_p50": 1e3 * percentile(cell["count"], 0.5),
            "sample_us_p50": 1e6 * percentile(cell["pair"], 0.5),
            "vertices_per_pair": cell["vertices"] / n,
            "vertices_per_curve": cell["vertices"] / (2 * n),
            "pairs_per_s": n / cell["run"] if cell["run"] else 0.0,
        }
    return out


def span_rows(spans):
    """Spans as JSON-ready dicts, for writing out at the end of the run."""
    return (
        {"id": i, "name": r[NAME], "start": r[START], "end": r[END],
         "parent": r[PARENT], "cell": r[CELL], "info": r[DATA]}
        for i, r in enumerate(spans)
    )
