"""Expected intersection counts of random trigonometric plane curves.

Exact rational formulas for the mean number of crossings of two independent
uniform draws from coefficient-space balls (plain L2 metric or higher-order
Sobolev-type metrics), an independent Monte Carlo pipeline built on a robust
curve-crossing counter, and numerical reconstructions of every intermediate
integral behind the closed forms.
"""

__version__ = "0.1.0"

from .curves import (
    PlanePoint,
    SchemaError,
    TrigCurve,
    curve_from_json,
    curve_to_json,
    derivative,
    evaluate,
    inner_product,
    lipschitz_bound,
    load_curve,
    norm,
    point_radius_bound,
    save_curve,
)
from .exact import (
    BallVolume,
    MeanValue,
    SobolevLimitReport,
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
    IntersectionResult,
    brute_force_count,
    count_intersections,
    newton_refine,
    segment_proper_cross,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentResult,
    corollary2_check,
    run_experiment,
)
from .sampling import (
    CurvePair,
    SeedSpec,
    sample_max_norm_weighted_pair,
    sample_pair,
    sample_unit_ball_curve,
)
from .chain import (
    ChainReport,
    ChainStep,
    FiberCheckResult,
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
