import dataclasses
import math

import numpy as np
import pytest

from curvecross.intersect import CountingConfig
from curvecross.montecarlo import (
    ExperimentConfig,
    corollary2_check,
    parse_distribution,
    run_experiment,
)


def summary_fields(result):
    return (
        result.mean,
        result.variance,
        result.stderr,
        result.ci95,
        tuple(sorted(result.histogram.items())),
        result.degenerate_discards,
        result.samples_used,
        result.z_score_vs_exact,
    )


class TestParseDistribution:
    def test_uniform(self):
        assert parse_distribution("uniform") == ("uniform", 0.0)

    def test_maxnorm(self):
        assert parse_distribution("maxnorm:4") == ("maxnorm", 4.0)

    @pytest.mark.parametrize("bad", ["gaussian", "maxnorm:", "maxnorm:-2", "maxnorm:nan"])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_distribution(bad)


class TestRunExperiment:
    def test_constant_curves_never_meet(self):
        cfg = ExperimentConfig(N=0, num_samples=100, master_seed=3)
        result = run_experiment(cfg)
        assert result.mean == 0.0
        assert result.stderr == 0.0
        assert result.histogram == {0: 100}
        assert result.z_score_vs_exact == 0.0
        assert result.degenerate_discards == 0
        assert not result.warning

    def test_histogram_consistent_with_mean(self):
        cfg = ExperimentConfig(N=1, num_samples=2000, master_seed=11)
        result = run_experiment(cfg)
        weighted = sum(i * c for i, c in result.histogram.items())
        assert result.mean == weighted / result.samples_used
        assert sum(result.histogram.values()) == result.samples_used
        assert result.samples_used + result.degenerate_discards == cfg.num_samples

    def test_even_support_within_bound(self):
        cfg = ExperimentConfig(N=2, num_samples=1500, master_seed=17)
        result = run_experiment(cfg)
        for count in result.histogram:
            assert count % 2 == 0
            assert count <= 4 * cfg.N**2

    def test_worker_partition_is_invisible(self):
        base = ExperimentConfig(N=1, num_samples=400, master_seed=5)
        results = [
            run_experiment(dataclasses.replace(base, worker_count=w)) for w in (1, 2, 3)
        ]
        assert summary_fields(results[0]) == summary_fields(results[1]) == summary_fields(results[2])
        assert np.array_equal(results[0].counts, results[2].counts)

    def test_seed_changes_results(self):
        a = run_experiment(ExperimentConfig(N=1, num_samples=300, master_seed=1))
        b = run_experiment(ExperimentConfig(N=1, num_samples=300, master_seed=2))
        assert not np.array_equal(a.counts, b.counts)

    def test_ci_brackets_mean(self):
        result = run_experiment(ExperimentConfig(N=1, num_samples=1000, master_seed=23))
        lo, hi = result.ci95
        assert lo < result.mean < hi
        assert hi - lo == pytest.approx(2 * 1.959963984540054 * result.stderr)

    def test_forced_discards_raise_warning(self):
        # an absurd determinant threshold marks every crossing-bearing sample
        cfg = ExperimentConfig(
            N=1,
            num_samples=200,
            master_seed=9,
            counting=CountingConfig(degeneracy_threshold=1e6),
        )
        result = run_experiment(cfg)
        assert result.warning
        assert result.degenerate_discards > 2
        assert result.histogram.keys() == {0}

    @pytest.mark.slow
    def test_stderr_scales_inverse_root_n(self):
        sizes = (10_000, 40_000, 160_000)
        errs = [
            run_experiment(ExperimentConfig(N=1, num_samples=n, master_seed=31)).stderr
            for n in sizes
        ]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(N=1, num_samples=0)
        with pytest.raises(ValueError):
            ExperimentConfig(N=1, worker_count=0)
        with pytest.raises(ValueError):
            ExperimentConfig(N=1, distribution="bogus")


class TestCorollary2:
    def test_zero_exponent_matches_uniform(self):
        z_weighted = corollary2_check(1, 0.0, 500, master_seed=7)
        z_uniform = run_experiment(
            ExperimentConfig(N=1, num_samples=500, master_seed=7)
        ).z_score_vs_exact
        assert z_weighted == z_uniform

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            corollary2_check(1, -0.5, 100)
