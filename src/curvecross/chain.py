"""Step-by-step numerical reconstruction of the exact mean (r=0 metric).

Each closed-form ingredient of the mean-crossing formula is re-derived here
by quadrature or Monte Carlo and compared against its exact value: the slice
integral of initial speed, the trigonometric reduction constant 1/8, the
|sin| average 2/pi, the disc-projection factor, and finally the assembled
mean itself. Products of factorials and powers of pi are accumulated in log
space and exponentiated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from math import lgamma

import numpy as np
from scipy import integrate

from .curves import point_radius_bound
from .exact import ball_volume_even, lambda_sq, mean_intersections_exact, mu
from .sampling import SeedSpec, fiber_candidates, fiber_speed_dets

_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)

__all__ = [
    "QuadratureError",
    "ChainStep",
    "ChainReport",
    "FiberCheckResult",
    "k_of_A",
    "xi_closed_form",
    "xi_quadrature",
    "eight_integral",
    "buffon_average",
    "assembly_prefactors",
    "assemble_mean_from_chain",
    "fiber_mc_check",
    "run_chain",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _quad(fn, a, b, rel=1e-12, points=None) -> float:
    out = integrate.quad(fn, a, b, epsabs=1e-300, epsrel=rel, limit=300,
                         points=points, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) == 4 and abserr > rel * abs(value):
        # a warning with an error estimate inside tolerance is still a success
        raise QuadratureError(str(out[3]))
    return value


def k_of_A(A: float, N: int, r: int = 0) -> float:
    """Radius sqrt(1 - 2 A^2 / mu(N, r)) of the ball of unit-norm-bounded
    curves whose value at angle 0 is pinned at distance A from the origin."""
    A = float(A)
    bound = point_radius_bound(N, r)
    if not 0.0 <= A <= bound * (1.0 + 1e-12):
        raise ValueError(f"A must lie in [0, {bound}], got {A}")
    return math.sqrt(max(0.0, 1.0 - 2.0 * A * A / float(mu(N, r))))


def xi_closed_form(A: float, N: int) -> float:
    """Closed form of the initial-speed slice integral:

        pi^(2N) * 2^(4N) * k(A)^(4N+1) * sqrt(lambda_sq(N)) * (2N)! / (4N+1)!
    """
    if N < 1:
        raise ValueError("need N >= 1")
    k = k_of_A(A, N, 0)
    if k == 0.0:
        return 0.0
    lam = math.sqrt(float(lambda_sq(N, 0)))
    logv = (
        2 * N * _LOG_PI
        + 4 * N * _LOG_2
        + (4 * N + 1) * math.log(k)
        + math.log(lam)
        + lgamma(2 * N + 1)
        - lgamma(4 * N + 2)
    )
    return math.exp(logv)


def xi_quadrature(A: float, N: int) -> float:
    """The same slice integral by adaptive quadrature over the speed-plane
    radius t:

        integral_0^k  2 pi t * lambda t * pi^(2N-1)/(2N-1)! * (k^2-t^2)^(2N-1) dt
    """
    if N < 1:
        raise ValueError("need N >= 1")
    k = k_of_A(A, N, 0)
    if k == 0.0:
        return 0.0
    lam = math.sqrt(float(lambda_sq(N, 0)))
    log_pref = math.log(2.0 * math.pi * lam) + (2 * N - 1) * _LOG_PI - lgamma(2 * N)
    ksq = k * k
    p = 2 * N - 1
    value = _quad(lambda t: t * t * (ksq - t * t) ** p, 0.0, k)
    return math.exp(log_pref) * value


def eight_integral(N: int) -> float:
    """((2N+1)/2) * integral_0^(pi/2) sin(g) cos(g)^(8N+3) dg, which collapses
    to 1/8 for every N (the antiderivative is -cos^(8N+4)/(8N+4))."""
    if N < 0:
        raise ValueError("need N >= 0")
    p = 8 * N + 3
    value = _quad(lambda g: math.sin(g) * math.cos(g) ** p, 0.0, math.pi / 2.0,
                  rel=1e-13)
    return 0.5 * (2 * N + 1) * value


def buffon_average() -> float:
    """Mean of |sin| over a full period, by quadrature (exact value 2/pi)."""
    value = _quad(lambda t: abs(math.sin(t)), 0.0, 2.0 * math.pi, rel=1e-13,
                  points=[math.pi])
    return value / (2.0 * math.pi)


def assembly_prefactors(N: int) -> dict[str, float]:
    """The exact constants multiplying the slice integral in the assembly."""
    return {
        "fiber_jacobian": 1.0 / (2 * N + 1),
        "buffon": 2.0 / math.pi,
        "disc_projection": 4.0 / (2 * N + 1),
        "torus_volume": 4.0 * math.pi**2,
    }


def _log_pair_ball_volume(N: int) -> float:
    """log of the squared unit-ball volume of one-curve coefficient space."""
    return 2.0 * ball_volume_even(2 * N + 1).log()


def assemble_mean_from_chain(N: int, use_closed_form: bool = False) -> float:
    """Rebuild the expected crossing count from the integral chain: outer
    quadrature over the pinned-value radius A of 2 pi A * Xi(A)^2, the
    constant prefactors, the torus volume, and the product-ball volume."""
    if not 1 <= N <= 8:
        raise ValueError("chain assembly is guarded for 1 <= N <= 8")
    xi = xi_closed_form if use_closed_form else xi_quadrature
    a_max = point_radius_bound(N, 0)
    outer = _quad(lambda A: 2.0 * math.pi * A * xi(A, N) ** 2, 0.0, a_max,
                  rel=1e-10)
    pre = assembly_prefactors(N)
    logv = (
        math.log(outer)
        + math.log(pre["fiber_jacobian"])
        + math.log(pre["buffon"])
        + math.log(pre["disc_projection"])
        + math.log(pre["torus_volume"])
        - _log_pair_ball_volume(N)
    )
    return math.exp(logv)


@dataclass(frozen=True)
class FiberCheckResult:
    estimate: float
    stderr: float
    attempts: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts


def fiber_mc_check(N: int, samples: int, seed: SeedSpec) -> FiberCheckResult:
    """Monte Carlo reconstruction of the mean from the point-coincidence slice.

    Estimates the slice integral of |det(f'(0), g'(0))| / (2N+1) as
    (mean over accepted draws) x (slice volume), where the slice volume is
    itself estimated as acceptance_rate x volume of the radius-sqrt(2) ball
    of the slice; then scales by the torus volume over the product-ball
    volume. The two Monte Carlo factors contribute independent relative
    standard errors.
    """
    if not 1 <= N <= 3:
        raise ValueError("rejection budget is sized for 1 <= N <= 3")
    if samples < 2:
        raise ValueError("need at least 2 attempts")
    rng = seed.rng()
    batch = 1 << 13
    n_acc = 0
    s1 = 0.0
    s2 = 0.0
    for lo in range(0, samples, batch):
        z, inside = fiber_candidates(N, rng, min(batch, samples - lo))
        dets = fiber_speed_dets(N, z[inside])
        n_acc += int(inside.sum())
        s1 += float(dets.sum())
        s2 += float(np.dot(dets, dets))
    if n_acc < 2:
        raise ValueError(f"slice Monte Carlo accepted {n_acc} of {samples} attempts; "
                         "the estimate needs at least 2")
    p_hat = n_acc / samples
    if p_hat < 1e-4:
        raise RuntimeError(f"acceptance rate {p_hat:.2e} below budget threshold 1e-4")
    h_mean = s1 / n_acc
    h_var = max(0.0, (s2 - s1 * s1 / n_acc) / (n_acc - 1))
    se_h = math.sqrt(h_var / n_acc)
    se_p = math.sqrt(p_hat * (1.0 - p_hat) / samples)

    dim_half = 4 * N + 1  # slice dimension 8N+2 = 2 * dim_half
    log_ball = ball_volume_even(dim_half).log() + dim_half * _LOG_2  # radius sqrt(2)
    log_scale = (
        math.log(4.0 * math.pi**2)
        - math.log(2 * N + 1)
        + log_ball
        - _log_pair_ball_volume(N)
    )
    estimate = h_mean * p_hat * math.exp(log_scale)
    rel = math.hypot(se_h / h_mean, se_p / p_hat)
    return FiberCheckResult(estimate, estimate * rel, samples, n_acc)


@dataclass
class ChainStep:
    """One verified link: exact value, numeric value, and the gap between."""

    name: str
    closed_form: float
    numeric: float
    rel_err: float
    tol: float
    passed: bool
    detail: str = ""


@dataclass
class ChainReport:
    steps: list[ChainStep] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def add(self, name, closed_form, numeric, tol, detail="") -> ChainStep:
        if closed_form == 0.0:
            rel = abs(numeric)
        else:
            rel = abs(numeric - closed_form) / abs(closed_form)
        step = ChainStep(name, closed_form, numeric, rel, tol, rel <= tol, detail)
        self.steps.append(step)
        return step

    def as_rows(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "closed_form_value": s.closed_form,
                "numeric_value": s.numeric,
                "relative_error": s.rel_err,
                "tolerance": s.tol,
                "passed": s.passed,
                "detail": s.detail,
            }
            for s in self.steps
        ]

    def format_table(self) -> str:
        header = f"{'step':<28} {'closed form':>22} {'numeric':>22} {'rel err':>10}  status"
        lines = [header, "-" * len(header)]
        for s in self.steps:
            status = "ok" if s.passed else "FAIL"
            lines.append(
                f"{s.name:<28} {s.closed_form:>22.15g} {s.numeric:>22.15g} "
                f"{s.rel_err:>10.2e}  {status}"
            )
        return "\n".join(lines)


# tolerances for the chain: the absolute +-1e-12 criteria on the two constant
# steps are stored as the equivalent relative bounds
_TOL_XI = 1e-8
_TOL_ASSEMBLY = 1e-8
_TOL_EIGHT = 1e-12 / 0.125
_TOL_BUFFON = 1e-12 / (2.0 / math.pi)


def run_chain(N_values=(1, 2, 3), xi_grid_size: int = 10,
              fiber_attempts: int = 0, seed: SeedSpec | None = None) -> ChainReport:
    """Run every chain step for the given degrees and report the errors.

    fiber_attempts > 0 adds the (slower) slice Monte Carlo step; its pass
    tolerance is 3 standard errors. A negative fiber_attempts is a
    ValueError.
    """
    if fiber_attempts < 0:
        raise ValueError(f"fiber_attempts must be >= 0, got {fiber_attempts}")
    report = ChainReport()
    report.add("buffon_mean_abs_sin", 2.0 / math.pi, buffon_average(), _TOL_BUFFON)
    for N in N_values:
        a_max = point_radius_bound(N, 0)
        grid = np.linspace(0.0, 0.9 * a_max, xi_grid_size)
        worst_rel = -1.0
        worst = (0.0, 0.0, 0.0)
        for A in grid:
            cf = xi_closed_form(float(A), N)
            nm = xi_quadrature(float(A), N)
            rel = abs(nm - cf) / abs(cf)
            if rel > worst_rel:
                worst_rel = rel
                worst = (float(A), cf, nm)
        report.add(
            f"xi_slice_integral_N{N}", worst[1], worst[2], _TOL_XI,
            detail=f"max rel err over {xi_grid_size} grid points, at A={worst[0]:.6g}",
        )
        report.add(f"eight_integral_N{N}", 0.125, eight_integral(N), _TOL_EIGHT)
        report.add(
            f"disc_projection_factor_N{N}",
            4.0 / (2 * N + 1),
            assembly_prefactors(N)["disc_projection"],
            0.0,
        )
        report.add(
            f"assembled_mean_N{N}",
            mean_intersections_exact(N, 0).approx,
            assemble_mean_from_chain(N),
            _TOL_ASSEMBLY,
        )
        if fiber_attempts > 0:
            fiber_seed = seed if seed is not None else SeedSpec(0)
            res = fiber_mc_check(N, fiber_attempts, fiber_seed)
            exact = mean_intersections_exact(N, 0).approx
            tol = 3.0 * res.stderr / exact
            report.add(
                f"fiber_mc_N{N}", exact, res.estimate, tol,
                detail=f"stderr={res.stderr:.3e}, acceptance={res.acceptance_rate:.4f}",
            )
    return report
