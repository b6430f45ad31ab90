"""Monte Carlo estimation of crossing-count statistics for random curve pairs.

Per-sample randomness is addressed as (master_seed, sample_index), so any
worker may process any index and the aggregate is bit-identical for every
worker count. Degenerate (non-transversal-looking) samples are discarded and
reported, never re-counted.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .exact import MeanValue, check_degree, check_order, mean_intersections_exact
from .intersect import CountingConfig, count_intersections_many
from .sampling import SeedSpec, sample_max_norm_weighted_pair, sample_pair

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# sample indices drawn and then counted by one count_intersections_many call
_BLOCK_PAIRS = 64

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "corollary2_check",
]


def parse_distribution(spec: str) -> tuple[str, float]:
    """'uniform' or 'maxnorm:<k>' -> (kind, exponent)."""
    if spec == "uniform":
        return "uniform", 0.0
    if spec.startswith("maxnorm:"):
        try:
            k = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad max-norm exponent in {spec!r}") from None
        if not (k >= 0 and math.isfinite(k)):
            raise ValueError("max-norm exponent must be finite and >= 0")
        return "maxnorm", k
    raise ValueError(f"unknown distribution {spec!r} (use 'uniform' or 'maxnorm:<k>')")


@dataclass(frozen=True)
class ExperimentConfig:
    N: int
    r: int = 0
    num_samples: int = 10_000
    master_seed: int = 0
    worker_count: int = 1
    counting: CountingConfig = field(default_factory=CountingConfig)
    distribution: str = "uniform"

    def __post_init__(self):
        check_degree(self.N)
        check_order(self.r)
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        parse_distribution(self.distribution)


@dataclass
class ExperimentResult:
    mean: float
    variance: float
    stderr: float
    ci95: tuple[float, float]
    histogram: dict[int, int]
    degenerate_discards: int
    samples_used: int
    z_score_vs_exact: float
    exact: MeanValue
    warning: bool
    counts: np.ndarray | None = field(repr=False, default=None)
    degenerate_mask: np.ndarray | None = field(repr=False, default=None)


def _sample_counts(cfg: ExperimentConfig, lo: int, hi: int):
    kind, k = parse_distribution(cfg.distribution)
    counts = []
    degen = []
    for start in range(lo, hi, _BLOCK_PAIRS):
        pairs = []
        for index in range(start, min(start + _BLOCK_PAIRS, hi)):
            seed = SeedSpec(cfg.master_seed, index)
            if kind == "uniform":
                pair = sample_pair(cfg.N, cfg.r, seed)
            else:
                pair = sample_max_norm_weighted_pair(cfg.N, cfg.r, k, seed)
            pairs.append((pair.f, pair.g))
        for res in count_intersections_many(pairs, cfg.counting):
            counts.append(res.count)
            degen.append(res.degenerate)
    return lo, counts, degen


def _gather(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    n = cfg.num_samples
    counts = np.empty(n, dtype=np.int64)
    degen = np.empty(n, dtype=bool)
    if cfg.worker_count == 1:
        _, c, d = _sample_counts(cfg, 0, n)
        counts[:] = c
        degen[:] = d
        return counts, degen
    chunk = math.ceil(n / cfg.worker_count)
    ranges = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    with ProcessPoolExecutor(max_workers=cfg.worker_count) as pool:
        futures = [pool.submit(_sample_counts, cfg, lo, hi) for lo, hi in ranges]
        for fut in futures:
            lo, c, d = fut.result()
            counts[lo:lo + len(c)] = c
            degen[lo:lo + len(d)] = d
    return counts, degen


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Estimate the mean crossing count under cfg's pair distribution.

    Mean/variance come from exact integer sums of the kept counts, so the
    summary is independent of chunking and worker count.
    """
    counts, degen = _gather(cfg)
    kept = counts[~degen]
    discards = int(degen.sum())
    n_used = kept.size
    if n_used == 0:
        raise RuntimeError("every sample was discarded as degenerate")
    s1 = int(kept.sum())
    s2 = int(np.dot(kept, kept))
    mean = s1 / n_used
    variance = (s2 - s1 * s1 / n_used) / (n_used - 1) if n_used > 1 else 0.0
    variance = max(0.0, variance)
    stderr = math.sqrt(variance / n_used)
    exact = mean_intersections_exact(cfg.N, cfg.r)
    diff = mean - exact.approx
    if diff == 0.0:
        z = 0.0
    elif stderr == 0.0:
        z = math.copysign(math.inf, diff)
    else:
        z = diff / stderr
    histogram = dict(sorted(Counter(kept.tolist()).items()))
    return ExperimentResult(
        mean=mean,
        variance=variance,
        stderr=stderr,
        ci95=(mean - _Z95 * stderr, mean + _Z95 * stderr),
        histogram=histogram,
        degenerate_discards=discards,
        samples_used=n_used,
        z_score_vs_exact=z,
        exact=exact,
        warning=discards > 0.01 * cfg.num_samples,
        counts=counts,
        degenerate_mask=degen,
    )


def corollary2_check(N: int, k: float, samples: int, master_seed: int = 0,
                     counting: CountingConfig | None = None) -> float:
    """z-score of the max-norm-weighted estimate against the uniform-ball
    exact mean (the two should agree for any weight exponent k >= 0)."""
    if k < 0:
        raise ValueError("weight exponent must be >= 0 (negative risks non-integrability)")
    cfg = ExperimentConfig(
        N=N,
        r=0,
        num_samples=samples,
        master_seed=master_seed,
        counting=counting or CountingConfig(),
        distribution=f"maxnorm:{k}",
    )
    return run_experiment(cfg).z_score_vs_exact
