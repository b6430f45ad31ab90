"""Acceptance criteria, one test per criterion, one printed line each.

The heavy Monte Carlo criteria run at their full stated sizes; expect the
module to take several minutes on a laptop-class machine.
"""

import dataclasses
import math
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from curvecross.chain import fiber_mc_check, run_chain
from curvecross.curves import evaluate, point_radius_bound
from curvecross.exact import (
    asymptote_ratio,
    mean_intersections_exact,
    sobolev_limit_report,
)
from curvecross.intersect import brute_force_count, count_intersections
from curvecross.montecarlo import ExperimentConfig, corollary2_check, run_experiment
from curvecross.sampling import SeedSpec, sample_pair

pytestmark = pytest.mark.slow


def _report(capsys, num, desc, ok, detail=""):
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_exact_values(capsys):
    # independent big-integer substitutions, then the module values
    by_hand_l2 = Fraction(2**11 * factorial(2) ** 4 * 3, 3 * factorial(5) ** 2)
    by_hand_w1 = Fraction(2**11 * factorial(2) ** 4 * 3, 2 * 2 * factorial(5) ** 2)
    ok = (
        by_hand_l2 == Fraction(512, 225)
        and by_hand_w1 == Fraction(128, 75)
        and mean_intersections_exact(1, 0).exact == Fraction(512, 225)
        and mean_intersections_exact(1, 1).exact == Fraction(128, 75)
    )
    _report(capsys, 1, "exact means 512/225 (r=0) and 128/75 (r=1) at N=1", ok)


def test_criterion_02_metric_formula_consistency(capsys):
    def l2_closed_form(N):
        lam = Fraction(N * (N + 1) * (2 * N + 1), 6)
        return Fraction(2) ** (8 * N + 3) * factorial(2 * N) ** 4 * lam / factorial(4 * N + 1) ** 2

    ok = all(
        mean_intersections_exact(N, 0).exact == l2_closed_form(N) for N in range(51)
    )
    _report(capsys, 2, "general formula at r=0 equals the plain-L2 formula, N <= 50", ok)


def test_criterion_03_quadratic_growth_trend(capsys):
    r20 = asymptote_ratio(20)
    r200 = asymptote_ratio(200)
    ok = abs(r200 - 1.0) < 0.1 and abs(r200 - 1.0) < abs(r20 - 1.0)
    _report(
        capsys, 3, "mean/( (pi/3) N^2 ) approaches 1", ok,
        detail=f"ratio(20)={r20:.5f}, ratio(200)={r200:.5f}",
    )


@pytest.mark.parametrize(
    "N,r,seed",
    [(1, 0, 20250809), (2, 0, 20250810), (1, 1, 20250811)],
    ids=["N1_r0", "N2_r0", "N1_r1"],
)
def test_criterion_04_monte_carlo_agreement(capsys, N, r, seed):
    cfg = ExperimentConfig(N=N, r=r, num_samples=200_000, master_seed=seed)
    result = run_experiment(cfg)
    z = result.z_score_vs_exact
    discard_rate = result.degenerate_discards / cfg.num_samples
    ok = abs(z) <= 3.0 and discard_rate <= 0.01
    _report(
        capsys, 4, f"Monte Carlo matches the exact mean at N={N}, r={r}", ok,
        detail=(
            f"mean={result.mean:.5f}, exact={result.exact.approx:.5f}, "
            f"stderr={result.stderr:.5f}, z={z:.2f}, discards={discard_rate:.2%}"
        ),
    )


def test_criterion_05_derivation_chain(capsys):
    report = run_chain((1, 2, 3))
    by_name = {s.name: s for s in report.steps}
    ok = abs(by_name["buffon_mean_abs_sin"].numeric - 2 / math.pi) <= 1e-12
    for N in (1, 2, 3):
        ok = ok and by_name[f"xi_slice_integral_N{N}"].rel_err < 1e-8
        ok = ok and abs(by_name[f"eight_integral_N{N}"].numeric - 0.125) <= 1e-12
        ok = ok and by_name[f"assembled_mean_N{N}"].rel_err < 1e-8
    worst = max(s.rel_err for s in report.steps)
    _report(
        capsys, 5, "every chain integral reproduces its closed form, N in {1,2,3}",
        ok and report.passed, detail=f"worst rel err {worst:.2e}",
    )


def test_criterion_06_fiber_monte_carlo(capsys):
    res = fiber_mc_check(1, 1_000_000, SeedSpec(31415926))
    exact = mean_intersections_exact(1, 0).approx
    z = (res.estimate - exact) / res.stderr
    ok = abs(res.estimate - exact) <= 3.0 * res.stderr
    _report(
        capsys, 6, "point-coincidence slice Monte Carlo reproduces the mean (N=1)",
        ok,
        detail=(
            f"estimate={res.estimate:.5f}+-{res.stderr:.5f}, exact={exact:.5f}, "
            f"z={z:.2f}, acceptance={res.acceptance_rate:.3f}"
        ),
    )


def test_criterion_07_counting_robustness(capsys):
    ok = True
    details = []
    for N in (1, 2, 3):
        cap = 4 * N * N
        bound = point_radius_bound(N, 0) + 1e-9
        agree = comparable = 0
        for i in range(500):
            pair = sample_pair(N, 0, SeedSpec(7000 + N, i))
            res = count_intersections(pair.f, pair.g)
            if not res.degenerate:
                ok = ok and res.count % 2 == 0 and res.count <= cap
                for phi, psi in res.solutions:
                    p = evaluate(pair.f, phi)
                    q = evaluate(pair.g, psi)
                    ok = ok and math.hypot(p.x, p.y) <= bound
                    ok = ok and math.hypot(q.x, q.y) <= bound
            count, stable = brute_force_count(pair.f, pair.g, 256)
            if res.degenerate or not stable:
                continue
            comparable += 1
            agree += res.count == count
        rate = agree / comparable
        ok = ok and rate >= 0.99
        details.append(f"N={N}: {agree}/{comparable}")
    _report(
        capsys, 7, "counter agrees with the resolution-doubling oracle",
        ok, detail="; ".join(details),
    )


def test_criterion_08_distribution_invariance(capsys):
    z = corollary2_check(1, 4.0, 100_000, master_seed=27182818)
    ok = abs(z) <= 3.0
    _report(
        capsys, 8, "max-norm weighted sampling leaves the mean unchanged (k=4)",
        ok, detail=f"z={z:.2f}",
    )


def test_criterion_09_sobolev_asymptotics(capsys):
    rep1 = sobolev_limit_report(1, [25, 50, 100])
    per_degree = [mv.approx / N for N, mv in rep1.rows]
    spread_ok = max(per_degree) / min(per_degree) - 1.0 < 0.10

    rep2 = sobolev_limit_report(2, [25, 50, 75, 100])
    vals = [mv.approx for _, mv in rep2.rows]
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    converge_ok = diffs[0] > diffs[1] > diffs[2]

    ratios_ok = True
    for r in (2, 5, 10, 20):
        rep = sobolev_limit_report(r, [5, 10])
        ratios_ok = ratios_ok and math.isfinite(rep.ratio_vs_2pi_over_r_sq)
        ratios_ok = ratios_ok and math.isfinite(rep.ratio_vs_2pi_over_r_plus_1)

    ok = spread_ok and converge_ok and ratios_ok
    _report(
        capsys, 9, "first-order growth is linear; higher orders converge", ok,
        detail=f"mean/N spread {max(per_degree)/min(per_degree)-1:.2%}; r=2 diffs {['%.3g' % d for d in diffs]}",
    )


def test_criterion_10_worker_reproducibility(capsys):
    base = ExperimentConfig(N=1, num_samples=2000, master_seed=1234)
    one = run_experiment(dataclasses.replace(base, worker_count=1))
    four = run_experiment(dataclasses.replace(base, worker_count=4))
    ok = (
        one.mean == four.mean
        and one.variance == four.variance
        and one.stderr == four.stderr
        and one.ci95 == four.ci95
        and one.histogram == four.histogram
        and one.degenerate_discards == four.degenerate_discards
        and one.samples_used == four.samples_used
        and one.z_score_vs_exact == four.z_score_vs_exact
        and np.array_equal(one.counts, four.counts)
        and np.array_equal(one.degenerate_mask, four.degenerate_mask)
    )
    _report(capsys, 10, "summaries are bit-identical for 1 and 4 workers", ok)
