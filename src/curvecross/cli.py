"""Command-line interface.

Subcommands: exact (closed-form values / sweeps), simulate (Monte Carlo),
verify (integral-chain checks), count (two curve files), sample (curve file
generation). Every machine-readable output embeds a manifest sufficient to
reproduce the run bit-exactly.

Exit codes: 0 success, 1 usage error, 2 tolerance failure, 3 I/O or schema
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict

from . import __version__
from .chain import run_chain
from .curves import SchemaError, load_curve, save_curve
from .exact import check_degree, check_order, mean_intersections_exact, mean_intersections_range
from .intersect import CountingConfig, count_intersections
from .montecarlo import AllSamplesDiscarded, ExperimentConfig, run_experiment
from .sampling import SeedSpec, sample_unit_ball_curve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_range(text: str) -> list[int]:
    """'3' -> [3]; '1..4' -> [1, 2, 3, 4]."""
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"bad range {text!r}, expected 'A..B' or a single integer")
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _counting_config(args) -> CountingConfig:
    kwargs = {}
    if getattr(args, "seg_target", None) is not None:
        kwargs["seg_target"] = args.seg_target
    if getattr(args, "newton_tol", None) is not None:
        kwargs["newton_tol"] = args.newton_tol
    return CountingConfig(**kwargs)


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _manifest(command: str, payload: dict, started: float) -> dict:
    return {
        "command": command,
        **payload,
        "config_hash": _config_hash(payload),
        "version": __version__,
        "wall_time_s": round(time.time() - started, 3),
    }


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _fraction_digits(mv) -> tuple[str, str]:
    """Numerator and denominator of an exact mean in decimal, however long.
    CPython's 4300-digit guard on int/str conversion is lifted for these two
    conversions only and restored after, so parsing user input keeps it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(mv.exact.numerator), str(mv.exact.denominator)
    finally:
        sys.set_int_max_str_digits(limit)


def _mean_json(mv) -> dict:
    numerator, denominator = _fraction_digits(mv)
    return {"numerator": numerator, "denominator": denominator, "approx": mv.approx}


def cmd_exact(args) -> int:
    r = check_order(args.r)
    if args.sweep is not None and args.N is not None:
        raise UsageError("give --N or --sweep, not both")
    if args.sweep is not None:
        ns = _parse_range(args.sweep)
        buf = ["N,numerator,denominator,approx,asymptote_ratio"]
        for n, mv in mean_intersections_range(ns[0], ns[-1], r):
            # asymptote_ratio(n), from the row's own value
            ratio = f"{mv.approx / ((math.pi / 3.0) * n * n):.12g}" if (n >= 1 and r == 0) else ""
            numerator, denominator = _fraction_digits(mv)
            buf.append(f"{n},{numerator},{denominator},{mv.approx:.17g},{ratio}")
        _emit("\n".join(buf), args.out)
        return EXIT_OK
    if args.N is None:
        raise UsageError("provide --N or --sweep")
    mv = mean_intersections_exact(check_degree(args.N), r)
    doc = {"command": "exact", "N": args.N, "r": r, **_mean_json(mv)}
    _emit(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    started = time.time()
    cfg = ExperimentConfig(
        N=args.N,
        r=args.r,
        num_samples=args.samples,
        master_seed=args.seed,
        worker_count=args.workers,
        counting=_counting_config(args),
        distribution=args.distribution,
    )
    try:
        result = run_experiment(cfg)
    except AllSamplesDiscarded as e:
        print(f"error: {e} (N={cfg.N}, {cfg.num_samples} samples)", file=sys.stderr)
        return EXIT_TOLERANCE
    payload = {
        "N": cfg.N,
        "r": cfg.r,
        "num_samples": cfg.num_samples,
        "master_seed": cfg.master_seed,
        "worker_count": cfg.worker_count,
        "distribution": cfg.distribution,
        "counting": asdict(cfg.counting),
    }
    summary = {
        "mean": result.mean,
        "variance": result.variance,
        "stderr": result.stderr,
        "ci95": list(result.ci95),
        "exact": _mean_json(result.exact),
        "z_score": result.z_score_vs_exact,
        "histogram": {str(k): v for k, v in result.histogram.items()},
        "degenerate_discards": result.degenerate_discards,
        "samples_used": result.samples_used,
        "warning": result.warning,
        "manifest": _manifest("simulate", payload, started),
    }
    text = json.dumps(summary, indent=2)
    _emit(text, args.out)
    if args.out:
        print(text)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_index", "count", "degenerate"])
            for i, (c, d) in enumerate(zip(result.counts, result.degenerate_mask)):
                writer.writerow([i, int(c), bool(d)])
    return EXIT_OK


def cmd_verify(args) -> int:
    ns = _parse_range(args.N)
    for n in ns:
        if n < 1:
            raise UsageError("verify needs degrees >= 1")
    report = run_chain(
        tuple(ns),
        fiber_attempts=args.fiber_attempts,
        seed=SeedSpec(args.seed),
    )
    if args.json:
        print(json.dumps({"passed": report.passed, "steps": report.as_rows()}, indent=2))
    else:
        print(report.format_table())
        print(f"overall: {'pass' if report.passed else 'FAIL'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"passed": report.passed, "steps": report.as_rows()}, fh, indent=2)
            fh.write("\n")
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_count(args) -> int:
    f, _ = load_curve(args.curve_f)
    g, _ = load_curve(args.curve_g)
    result = count_intersections(f, g, _counting_config(args))
    doc = {
        "count": result.count,
        "degenerate": result.degenerate,
        "solutions": [[phi, psi] for phi, psi in result.solutions],
    }
    if math.isfinite(result.min_abs_det):
        doc["min_abs_det"] = result.min_abs_det
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_sample(args) -> int:
    started = time.time()
    n = check_degree(args.N)
    r = check_order(args.r)
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    os.makedirs(args.out, exist_ok=True)
    files = []
    for i in range(args.count):
        curve = sample_unit_ball_curve(n, r, SeedSpec(args.seed, i))
        path = os.path.join(args.out, f"curve_{i:04d}.json")
        save_curve(path, curve, r)
        files.append({"path": os.path.basename(path), "stream_index": i})
    payload = {"master_seed": args.seed, "stream_index": 0, "N": n, "r": r,
               "count": args.count, "files": files}
    manifest_path = os.path.join(args.out, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(_manifest("sample", payload, started), fh, indent=2)
        fh.write("\n")
    print(json.dumps({"written": args.count, "out": args.out}, indent=2))
    return EXIT_OK


def _default_workers() -> int:
    env = os.environ.get("CURVECROSS_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def build_parser() -> _Parser:
    parser = _Parser(prog="curvecross", description=__doc__)
    parser.add_argument("--version", action="version", version=f"curvecross {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="closed-form mean crossing counts")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--sweep", type=str, default=None, metavar="A..B",
                   help="emit CSV rows for a degree range")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the mean")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--distribution", type=str, default="uniform",
                   help="'uniform' or 'maxnorm:<k>'")
    p.add_argument("--seg-target", dest="seg_target", type=float, default=None)
    p.add_argument("--newton-tol", dest="newton_tol", type=float, default=None)
    p.add_argument("--out", type=str, default=None, help="write the summary JSON here")
    p.add_argument("--csv", type=str, default=None, help="write per-sample CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the integral-chain checks")
    p.add_argument("--N", type=str, default="1..3", metavar="A..B")
    p.add_argument("--fiber-attempts", dest="fiber_attempts", type=int, default=0,
                   help="add the slice Monte Carlo step with this many attempts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="print JSON instead of a table")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="count crossings of two curve files")
    p.add_argument("curve_f")
    p.add_argument("curve_g")
    p.add_argument("--seg-target", dest="seg_target", type=float, default=None)
    p.add_argument("--newton-tol", dest="newton_tol", type=float, default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("sample", help="draw unit-ball curves into JSON files")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=".")
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
