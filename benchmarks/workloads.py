"""The three benchmark workloads: inputs made from a seed, one pass each, and
the checks that the program's outputs are correct.

A pass runs in the benchmark's own process with one worker. The program sees
only the generated inputs: command-line flags for ``curvecross.cli.main`` and
``SeedSpec`` names of curve pairs. Discarded (degenerate) pairs are counted,
not failed; wrong output fails the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import curvecross.cli
import curvecross.intersect
import curvecross.sampling

# |z| bound for the statistical checks: a correct program fails one of them
# with probability about 6e-5, where the 3-sigma bound would fail about one
# run in a hundred.
Z_LIMIT = 4.0
ORACLE_MIN_AGREEMENT = 0.99
# the agreement check must cover most pairs: a counter that flags everything
# degenerate would otherwise pass it vacuously
ORACLE_MIN_COVERAGE = 0.9


@dataclass(frozen=True)
class Cell:
    name: str
    N: int
    r: int
    distribution: str = "uniform"


# the acceptance cells of criteria 4 and 8, at reduced size: the cheapest pairs
LOWDEG_CELLS = (
    Cell("N1r0", 1, 0),
    Cell("N1r1", 1, 1),
    Cell("N2r0", 2, 0),
    Cell("N2r1", 2, 1),
    Cell("N1r0_maxnorm4", 1, 0, "maxnorm:4"),
)
# 700-3300 polyline vertices per pair; the r=1 cells are sized by the r=0 resolution
HIGHDEG_CELLS = (
    Cell("N4r0", 4, 0),
    Cell("N4r1", 4, 1),
    Cell("N8r0", 8, 0),
    Cell("N8r1", 8, 1),
)
LOWDEG_SAMPLES = 300
HIGHDEG_SAMPLES = 100

SWEEP = "1..300"
SWEEP_ORDERS = (0, 1, 2)
VERIFY_DEGREES = "1..3"
FIBER_ATTEMPTS = 200_000
ORACLE_DEGREES = (1, 2, 3)
ORACLE_PAIRS_PER_DEGREE = 40
ORACLE_RESOLUTION = 256


def program_api() -> SimpleNamespace:
    """The entry points the benchmark itself calls."""
    return SimpleNamespace(
        cli_main=curvecross.cli.main,
        SeedSpec=curvecross.sampling.SeedSpec,
        sample_pair=curvecross.sampling.sample_pair,
        count_intersections=curvecross.intersect.count_intersections,
        brute_force_count=curvecross.intersect.brute_force_count,
    )


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit seed for one named input, fixed by the run seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_cli(api, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = api.cli_main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# Reference values, computed here independently of curvecross.exact.

def reference_mean(N: int, r: int) -> Fraction:
    """Exact mean crossing count of two uniform unit-ball curves, order-r metric."""
    taus = [sum(j ** (2 * q) for q in range(r + 1)) for j in range(1, N + 1)]
    lam = sum((Fraction(j * j, t) for j, t in zip(range(1, N + 1), taus)), Fraction(0))
    mu = 1 + 2 * sum((Fraction(1, t) for t in taus), Fraction(0))
    return (Fraction(2) ** (8 * N + 3) * lam * factorial(2 * N) ** 4 * (2 * N + 1)
            / (mu * factorial(4 * N + 1) ** 2))


def plain_l2_mean(N: int) -> Fraction:
    """The r=0 closed form 2^(8N+3) ((2N)!)^4 (1+4+...+N^2) / ((4N+1)!)^2."""
    return Fraction(2 ** (8 * N + 3) * factorial(2 * N) ** 4 * (N * (N + 1) * (2 * N + 1) // 6),
                    factorial(4 * N + 1) ** 2)


def _degree_range(text: str) -> list[int]:
    lo, hi = text.split("..")
    return list(range(int(lo), int(hi) + 1))


# ---------------------------------------------------------------------------

@dataclass
class Checked:
    """What the checks found in one pass: errors, the counts that must repeat
    exactly, pairs counted and discarded, and the oracle's per-layer rates."""

    errors: list
    counts: dict
    pairs: int
    degenerate: int
    stats: dict = field(default_factory=lambda: {
        "intersect.oracle_stable_rate": 0.0, "intersect.oracle_agree_rate": 0.0})


class Simulate:
    """``simulate`` over a list of cells, one worker, one seed per cell."""

    def __init__(self, cells, samples: int, seed: int):
        self.cells = cells
        self.samples = samples
        self.argv = {
            c.name: ["simulate", "--N", str(c.N), "--r", str(c.r),
                     "--samples", str(samples), "--seed", str(derive_seed(seed, c.name)),
                     "--workers", "1", "--distribution", c.distribution]
            for c in cells
        }
        self.exact = {c.name: reference_mean(c.N, c.r) for c in cells}

    def chunks(self):
        """(name, fn(api) -> output) for the separately timed parts of a pass."""
        return [(c.name, lambda api, argv=self.argv[c.name]: run_cli(api, argv))
                for c in self.cells]

    def check(self, outputs: dict) -> Checked:
        errors = []
        counts = {}
        pairs = degenerate = 0
        for c in self.cells:
            rc, text = outputs[c.name]
            if rc != 0:
                errors.append(f"{c.name}: simulate exited {rc}")
                continue
            doc = json.loads(text)
            hist = {int(k): v for k, v in doc["histogram"].items()}
            used = sum(hist.values())
            discards = doc["degenerate_discards"]
            pairs += self.samples
            degenerate += discards
            counts[c.name] = {"histogram": sorted(hist.items()), "discards": discards}
            if used + discards != self.samples or used != doc["samples_used"]:
                errors.append(f"{c.name}: {used} kept + {discards} discarded != {self.samples}")
            odd = [k for k in hist if k % 2 or not 0 <= k <= 4 * c.N * c.N]
            if odd:
                errors.append(f"{c.name}: counts {odd} not even or above 4N^2")
            exact = self.exact[c.name]
            reported = Fraction(int(doc["exact"]["numerator"]), int(doc["exact"]["denominator"]))
            if reported != exact:
                errors.append(f"{c.name}: exact mean {reported} != {exact}")
            if used < 2:
                errors.append(f"{c.name}: only {used} samples kept")
                continue
            s1 = sum(k * v for k, v in hist.items())
            s2 = sum(k * k * v for k, v in hist.items())
            variance = (s2 - s1 * s1 / used) / (used - 1)
            z = (s1 / used - float(exact)) / math.sqrt(variance / used)
            if not abs(z) <= Z_LIMIT:
                errors.append(f"{c.name}: z = {z:.2f} against the exact mean")
        return Checked(errors, counts, pairs, degenerate)


class CrossCheck:
    """The agreement checks: exact sweeps, the integral chain, and the
    resolution-doubling oracle beside the refined counter."""

    def __init__(self, seed: int):
        self.sweeps = {r: ["exact", "--sweep", SWEEP, "--r", str(r)] for r in SWEEP_ORDERS}
        self.verify = ["verify", "--N", VERIFY_DEGREES, "--fiber-attempts", str(FIBER_ATTEMPTS),
                       "--seed", str(derive_seed(seed, "verify")), "--json"]
        self.oracle_seeds = {N: derive_seed(seed, f"oracle/N{N}") for N in ORACLE_DEGREES}
        degrees = _degree_range(SWEEP)
        self.l2 = {N: plain_l2_mean(N) for N in degrees}
        spot = sorted({degrees[0], degrees[1], degrees[2], degrees[-1]})
        self.spot = {(N, r): reference_mean(N, r) for r in SWEEP_ORDERS if r for N in spot}

    def chunks(self):
        """(name, fn(api) -> output) for the separately timed parts of a pass."""
        parts = [(f"sweep_r{r}", lambda api, argv=argv: run_cli(api, argv))
                 for r, argv in self.sweeps.items()]
        parts.append(("verify", lambda api: run_cli(api, self.verify)))
        parts += [(f"oracle_N{N}", lambda api, N=N: self._oracle(api, N)) for N in ORACLE_DEGREES]
        return parts

    def _oracle(self, api, N: int) -> list[tuple]:
        rows = []
        for i in range(ORACLE_PAIRS_PER_DEGREE):
            pair = api.sample_pair(N, 0, api.SeedSpec(self.oracle_seeds[N], i))
            res = api.count_intersections(pair.f, pair.g)
            oracle, stable = api.brute_force_count(pair.f, pair.g, ORACLE_RESOLUTION)
            rows.append((N, res.count, bool(res.degenerate), oracle, bool(stable)))
        return rows

    def check(self, outputs: dict) -> Checked:
        errors = []
        self._check_sweeps(outputs, errors)
        self._check_verify(outputs["verify"], errors)
        rows = [row for N in ORACLE_DEGREES for row in outputs[f"oracle_N{N}"]]
        comparable = agree = stable_n = 0
        for N, count, degenerate, oracle, stable in rows:
            stable_n += stable
            if degenerate:
                continue
            if count % 2 or not 0 <= count <= 4 * N * N:
                errors.append(f"N={N}: count {count} not even or above 4N^2")
            if stable:
                comparable += 1
                agree += count == oracle
        if comparable < ORACLE_MIN_COVERAGE * len(rows):
            errors.append(f"only {comparable} of {len(rows)} pairs stable and non-degenerate")
        elif agree < ORACLE_MIN_AGREEMENT * comparable:
            errors.append(f"oracle agreement {agree}/{comparable} below {ORACLE_MIN_AGREEMENT:.0%}")
        degenerate = sum(row[2] for row in rows)
        stats = {"intersect.oracle_stable_rate": stable_n / len(rows),
                 "intersect.oracle_agree_rate": agree / comparable if comparable else 0.0}
        counts = {
            "oracle": {"pairs": len(rows), "stable": stable_n,
                       "comparable": comparable, "agree": agree},
            "solutions": sum(row[1] for row in rows),
            "degenerate": degenerate,
            "sweep_sha256": hashlib.sha256(
                "".join(outputs[f"sweep_r{r}"][1] for r in SWEEP_ORDERS).encode()).hexdigest(),
            "verify_sha256": hashlib.sha256(outputs["verify"][1].encode()).hexdigest(),
        }
        return Checked(errors, counts, len(rows), degenerate, stats)

    def _check_sweeps(self, outputs, errors) -> None:
        for r in SWEEP_ORDERS:
            rc, text = outputs[f"sweep_r{r}"]
            lines = text.strip().splitlines()
            if rc != 0 or not lines or lines[0] != "N,numerator,denominator,approx,asymptote_ratio":
                errors.append(f"exact sweep r={r}: exit {rc}, unexpected output")
                continue
            rows = {}
            for line in lines[1:]:
                n, num, den = line.split(",")[:3]
                rows[int(n)] = Fraction(int(num), int(den))
            if sorted(rows) != sorted(self.l2):
                errors.append(f"exact sweep r={r}: rows for {len(rows)} degrees, wanted {len(self.l2)}")
                continue
            if r == 0:
                wrong = [n for n, v in rows.items() if v != self.l2[n]]
                if wrong:
                    errors.append(f"exact sweep r=0 differs from the plain-L2 form at N={wrong[:5]}")
            else:
                wrong = [n for (n, rr), v in self.spot.items() if rr == r and rows[n] != v]
                if wrong:
                    errors.append(f"exact sweep r={r} differs from the reference at N={wrong}")

    def _check_verify(self, output, errors) -> None:
        rc, text = output
        if rc not in (0, 2):
            errors.append(f"verify exited {rc}")
            return
        doc = json.loads(text)
        steps = {s["name"]: s for s in doc["steps"]}
        wanted = {"buffon_mean_abs_sin"} | {
            f"{stem}_N{N}" for N in _degree_range(VERIFY_DEGREES)
            for stem in ("xi_slice_integral", "eight_integral", "disc_projection_factor",
                         "assembled_mean", "fiber_mc")
        }
        if set(steps) != wanted:
            errors.append(f"verify steps {sorted(set(steps) ^ wanted)} missing or unexpected")
        for name, s in steps.items():
            if name.startswith("fiber_mc_"):
                # the step's tolerance is 3 standard errors, relative to the exact value
                stderr = s["tolerance"] * abs(s["closed_form_value"]) / 3.0
                z = (s["numeric_value"] - s["closed_form_value"]) / stderr
                if not abs(z) <= Z_LIMIT:
                    errors.append(f"verify {name}: z = {z:.2f}")
            elif not s["passed"]:
                errors.append(f"verify {name}: relative error {s['relative_error']:.3g} "
                              f"above {s['tolerance']:.3g}")
        if (rc == 0) != doc["passed"]:
            errors.append(f"verify exited {rc} with passed={doc['passed']}")


SIMULATE = {"mc_lowdeg": (LOWDEG_CELLS, LOWDEG_SAMPLES), "mc_highdeg": (HIGHDEG_CELLS, HIGHDEG_SAMPLES)}


def make(name: str, seed: int):
    if name == "crosscheck":
        return CrossCheck(seed)
    cells, samples = SIMULATE[name]
    return Simulate(cells, samples, seed)


def warm_up(name: str, api) -> None:
    """One small call per input cell, so the package's lazy caches are full."""
    if name == "crosscheck":
        run_cli(api, ["exact", "--sweep", "1..2", "--r", "0"])
        run_cli(api, ["verify", "--N", VERIFY_DEGREES, "--fiber-attempts", "1000", "--json"])
        pair = api.sample_pair(1, 0, api.SeedSpec(0))
        api.count_intersections(pair.f, pair.g)
        api.brute_force_count(pair.f, pair.g, ORACLE_RESOLUTION)
        return
    for c in SIMULATE[name][0]:
        run_cli(api, ["simulate", "--N", str(c.N), "--r", str(c.r), "--samples", "2",
                      "--workers", "1", "--distribution", c.distribution])
