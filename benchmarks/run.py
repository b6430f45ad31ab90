"""curvecross benchmark: one workload per process, outputs checked on every run.

    python3 benchmarks/run.py --workload mc_lowdeg --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. The run repeats one pass over the workload's inputs (made from
``--seed``) until ``--seconds`` have passed, at least MIN_PASSES times, and
checks that every pass is correct and gives the same counts.

With ``--trace 0`` the last stdout line reports the end-to-end metrics named
in BENCHMARK.json: set-up time (fastest of SETUP_SAMPLES fresh processes),
the wall time of one pass (see fastest_wall), pairs counted per second, the
share of pairs not discarded as degenerate, and peak resident memory. With
``--trace 1`` untraced and traced passes alternate and the last line reports
the per-layer metrics, from spans recorded around the calls between
curvecross modules.

Details (machine notes, per-cell numbers, spans) go to ``.bench_out/``, which
also keeps each run's counts so that a later run with the same code and seed
must reproduce them exactly.

Seeds: 1 is the default; 7919 is held out, for confirming a claim made on
other seeds.
"""

from __future__ import annotations

import os

# pin the BLAS and OpenMP pools before numpy loads; set-up children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import compileall
import hashlib
import json
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
MIN_PASSES = 3
SETUP_SAMPLES = 7
WORKLOADS = ("mc_lowdeg", "mc_highdeg", "crosscheck")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="curvecross benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed; {HELD_OUT_SEED} is held out for confirming claims")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_workloads():
    """Import the benchmark's workloads against this checkout's package."""
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs src on the path)

    import curvecross
    if Path(curvecross.__file__).resolve().parent != SRC / "curvecross":
        raise ImportError(f"curvecross imported from {curvecross.__file__}, not {SRC}")
    return workloads


def setup_probe(workload: str) -> int:
    """Child process: import the package, fill its lazy caches, say ready."""
    wl = import_workloads()
    wl.warm_up(workload, wl.program_api())
    print("ready", flush=True)
    return 0


def measure_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter until it is ready to run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def code_digest() -> str:
    """Hash of the package and benchmark sources: the version being measured."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_notes(load_at_start) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "load_average_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
        "code_sha256": code_digest(),
    }


def timed_pass(workload, api, tracer=None) -> tuple[dict, dict]:
    """Run each chunk of the workload once; returns per-chunk seconds and outputs."""
    times, outputs = {}, {}
    for name, fn in workload.chunks():
        if tracer is not None:
            tracer.cell = name
        start = time.perf_counter()
        outputs[name] = fn(api)
        times[name] = time.perf_counter() - start
    return times, outputs


def fastest_wall(passes: list[dict]) -> float:
    """One pass without interference: the sum of each chunk's fastest repeat.

    Every repeat of a chunk does the same work, so its times differ only by
    what the machine adds. On a shared machine that comes in bursts of
    seconds which slow everything by up to 2x, often for half of a run, which
    puts the median between the two modes. Set-up time is taken the same way.
    """
    return sum(min(p[name] for p in passes) for name in passes[0])


def check_repeat(record_path: Path, counts: dict) -> list[str]:
    """Compare counts with an earlier run of the same code and seed, then store them."""
    errors = []
    stored = {}
    counts = json.loads(json.dumps(counts))  # compare in the form it is stored
    if record_path.exists():
        stored = json.loads(record_path.read_text())
        for key, value in counts.items():
            if key in stored and stored[key] != value:
                errors.append(f"counts differ from an earlier run with this code and seed: {key}")
    record_path.write_text(json.dumps({**stored, **counts}, sort_keys=True))
    return errors


@dataclass
class Runs:
    """Everything the timed loop measured."""

    errors: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    tracers: list = field(default_factory=list)
    first: object = None


def run_passes(args, workload, api) -> Runs:
    """Repeat passes for --seconds; with --trace, a traced pass follows each one."""
    runs = Runs()
    began = time.perf_counter()
    while True:
        times, outputs = timed_pass(workload, api)
        runs.walls.append(times)
        checked = [workload.check(outputs)]
        if args.trace:
            tracer = spans.Tracer()
            with tracer.patched():
                times, outputs = timed_pass(workload, tracer.wrap_api(api), tracer)
            runs.tracers.append(tracer)
            runs.traced_walls.append(times)
            checked.append(workload.check(outputs))
        for c in checked:
            if runs.first is None:
                runs.first = c
                runs.errors += c.errors
            elif c.counts != runs.first.counts:
                runs.errors.append("a repeated pass gave different counts")
        # set-up probes are spread over the run, so they meet the machine in
        # different states rather than all in one burst
        elapsed = time.perf_counter() - began
        if len(runs.setup) < SETUP_SAMPLES and elapsed >= len(runs.setup) * args.seconds / SETUP_SAMPLES:
            runs.setup.append(measure_setup(args.workload))
        if runs.errors or (len(runs.walls) >= MIN_PASSES
                           and time.perf_counter() - began >= args.seconds):
            break
    while len(runs.setup) < SETUP_SAMPLES:
        runs.setup.append(measure_setup(args.workload))
    return runs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "curvecross" / "__init__.py").is_file():
        print(f"error: no curvecross package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload)

    load_at_start = list(os.getloadavg())
    compileall.compile_dir(str(SRC), quiet=1)
    wl_mod = import_workloads()
    workload = wl_mod.make(args.workload, args.seed)
    api = wl_mod.program_api()
    wl_mod.warm_up(args.workload, api)

    runs = run_passes(args, workload, api)
    first = runs.first
    errors = runs.errors
    wall_s = fastest_wall(runs.walls)
    notes = machine_notes(load_at_start)
    record = {"outputs": first.counts}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": notes, "errors": errors,
        "setup_samples_s": runs.setup, "pass_walls_s": runs.walls,
        "traced_pass_walls_s": runs.traced_walls,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"

    if args.trace:
        layer_runs = [spans.layer_metrics(t.spans, sum(w.values()))
                      for t, w in zip(runs.tracers, runs.traced_walls)]
        if any(extra["counters"] != layer_runs[0][1]["counters"] for _, extra in layer_runs):
            errors.append("a repeated traced pass gave different span counts")
        record["traced"] = layer_runs[0][1]["counters"]
        # the fastest traced pass, so that its times and shares are consistent
        fastest = min(range(len(layer_runs)), key=lambda i: sum(runs.traced_walls[i].values()))
        values, extra = layer_runs[fastest]
        values.update(first.stats)
        values["trace.overhead"] = fastest_wall(runs.traced_walls) / wall_s - 1.0
        report["cells"] = extra["cells"]
        report["absent_spans"] = sorted(set().union(*(t.absent for t in runs.tracers)))
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for n, tracer in enumerate(runs.tracers):
                for row in spans.span_rows(tracer.spans):
                    fh.write(json.dumps({"pass": n, **row}) + "\n")
        for cell, m in extra["cells"].items():
            print(f"{cell:>14}: count p50 {m['count_ms_p50']:.3f} ms, sample p50 "
                  f"{m['sample_us_p50']:.0f} us, {m['vertices_per_curve']:.0f} vertices/curve"
                  + (f", simulate {m['pairs_per_s']:.0f} pairs/s" if m["pairs_per_s"] else ""))
        if report["absent_spans"]:
            print("absent spans: " + ", ".join(report["absent_spans"]))
        section = "per_layer"
    else:
        values = {
            "setup_s": min(runs.setup),
            "wall_s": wall_s,
            "pairs_per_s": first.pairs / wall_s,
            "kept_share": (first.pairs - first.degenerate) / first.pairs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        section = "end_to_end"
    errors += check_repeat(OUT / f"{stem}-{notes['code_sha256'][:16]}.counts.json", record)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    report.update(metrics=values, counts=record)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=2))
    for err in errors:
        print(f"FAIL: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": first.pairs,
        "failed": first.degenerate,
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
