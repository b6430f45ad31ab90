"""Expected intersection counts of random trigonometric plane curves.

Exact rational formulas for the mean number of crossings of two independent
uniform draws from coefficient-space balls (plain L2 metric or higher-order
Sobolev-type metrics), an independent Monte Carlo pipeline built on a robust
curve-crossing counter, and numerical reconstructions of every intermediate
integral behind the closed forms.
"""

__version__ = "0.1.0"

# the calls of the command line, the scripts, the benchmark and the paper's
# checks, with the types they construct or catch; returned records and
# test-only helpers are reached through their modules
__all__ = [
    "SchemaError", "TrigCurve", "evaluate", "load_curve", "point_radius_bound", "save_curve",
    "asymptote_ratio", "ball_volume_even", "lambda_sq", "mean_intersections_exact",
    "metric_series_limits", "mu", "sobolev_limit_report", "tau",
    "CountingConfig", "brute_force_count", "count_intersections",
    "ExperimentConfig", "corollary2_check", "run_experiment",
    "SeedSpec", "sample_max_norm_weighted_pair", "sample_pair", "sample_unit_ball_curve",
    "QuadratureError", "assemble_mean_from_chain", "assembly_prefactors", "buffon_average",
    "eight_integral", "fiber_mc_check", "k_of_A", "run_chain", "xi_closed_form", "xi_quadrature",
]

from .curves import (
    SchemaError,
    TrigCurve,
    evaluate,
    load_curve,
    point_radius_bound,
    save_curve,
)
from .exact import (
    asymptote_ratio,
    ball_volume_even,
    lambda_sq,
    mean_intersections_exact,
    metric_series_limits,
    mu,
    sobolev_limit_report,
    tau,
)
from .intersect import (
    CountingConfig,
    brute_force_count,
    count_intersections,
)
from .montecarlo import (
    ExperimentConfig,
    corollary2_check,
    run_experiment,
)
from .sampling import (
    SeedSpec,
    sample_max_norm_weighted_pair,
    sample_pair,
    sample_unit_ball_curve,
)
from .chain import (
    QuadratureError,
    assemble_mean_from_chain,
    assembly_prefactors,
    buffon_average,
    eight_integral,
    fiber_mc_check,
    k_of_A,
    run_chain,
    xi_closed_form,
    xi_quadrature,
)
