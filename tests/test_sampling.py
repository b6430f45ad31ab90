import math

import numpy as np
import pytest
from scipy import stats

from curvecross.curves import TrigCurve, evaluate, norm
from curvecross.exact import tau
from curvecross.sampling import (
    CurvePair,
    SeedSpec,
    _ball_point,
    _iso_to_curve,
    fiber_candidates,
    sample_max_norm_weighted_pair,
    sample_pair,
    sample_unit_ball_curve,
)

from _support import iso_coordinates, unit_circle


def iso_to_coeffs_loop(N, r, u):
    """The coefficient map as a loop over frequencies: the reference for
    the cached gather in sampling._iso_to_curve."""
    xa = np.empty(N + 1)
    xb = np.empty(N)
    ya = np.empty(N + 1)
    yb = np.empty(N)
    xa[0] = u[0] / math.sqrt(2.0)
    ya[0] = u[1] / math.sqrt(2.0)
    for j in range(1, N + 1):
        w = math.sqrt(float(tau(j, r)))
        base = 2 + 4 * (j - 1)
        xa[j] = u[base] / w
        xb[j - 1] = u[base + 1] / w
        ya[j] = u[base + 2] / w
        yb[j - 1] = u[base + 3] / w
    return xa, xb, ya, yb


def loop_pair(N, r, k, seed):
    """sample_max_norm_weighted_pair (sample_pair at k = 0) on the loop map."""
    attempt = 0
    while True:
        f, g = (TrigCurve(N, *iso_to_coeffs_loop(N, r, _ball_point(4 * N + 2, 1.0,
                                                                   seed.rng(attempt, side))))
                for side in (0, 1))
        p = max(norm(f, r), norm(g, r)) ** k
        if p >= 1.0 or seed.rng(attempt, 2).random() < p:
            return f, g
        attempt += 1


class TestIsoMap:
    @pytest.mark.parametrize("N", [0, 1, 2, 8])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_gather_matches_loop(self, N, r):
        for i in range(50):
            seed = SeedSpec(808, i)
            pair = sample_pair(N, r, seed)
            weighted = sample_max_norm_weighted_pair(N, r, 3.0, seed)
            for got, want in ((pair, loop_pair(N, r, 0, seed)),
                              (weighted, loop_pair(N, r, 3.0, seed))):
                for curve, ref in zip((got.f, got.g), want):
                    for name in ("xa", "xb", "ya", "yb"):
                        assert np.array_equal(getattr(curve, name), getattr(ref, name))


class TestSeedSpec:
    def test_validates_range(self):
        SeedSpec(2**64 - 1, 0)
        with pytest.raises(ValueError):
            SeedSpec(-1, 0)
        with pytest.raises(ValueError):
            SeedSpec(0, 2**64)

    def test_distinct_streams_differ(self):
        a = sample_unit_ball_curve(2, 0, SeedSpec(5, 0))
        b = sample_unit_ball_curve(2, 0, SeedSpec(5, 1))
        assert a != b


class TestUnitBallSampler:
    @pytest.mark.parametrize("N,r", [(0, 0), (1, 0), (3, 0), (2, 1), (1, 3)])
    def test_ball_membership(self, N, r):
        for i in range(300):
            c = sample_unit_ball_curve(N, r, SeedSpec(31, i))
            assert norm(c, r) <= 1.0 + 1e-12

    def test_bit_identical_reproduction(self):
        spec = SeedSpec(123456789, 42)
        a = sample_unit_ball_curve(3, 1, spec)
        b = sample_unit_ball_curve(3, 1, SeedSpec(123456789, 42))
        assert a == b  # array equality is exact

    def test_radius_power_is_uniform(self):
        # |c|^dim of a uniform-in-ball draw replays the uniform U, mean 1/2
        n_draws = 100_000
        dim = 6  # degree 1
        acc = 0.0
        for i in range(n_draws):
            c = sample_unit_ball_curve(1, 0, SeedSpec(77, i))
            acc += norm(c, 0) ** dim
        mean = acc / n_draws
        # se = sqrt(1/12)/sqrt(n) ~ 0.0009; allow ~5 sigma
        assert abs(mean - 0.5) < 0.005

    def test_degree_zero_uniform_in_disc(self):
        # 16 angular sectors are equal-area; chi-square at significance 1e-3
        n_draws = 100_000
        angles = np.empty(n_draws)
        radii_sq = np.empty(n_draws)
        for i in range(n_draws):
            c = sample_unit_ball_curve(0, 0, SeedSpec(99, i))
            x = c.xa[0] * math.sqrt(2.0)
            y = c.ya[0] * math.sqrt(2.0)
            angles[i] = math.atan2(y, x)
            radii_sq[i] = x * x + y * y
        counts, _ = np.histogram(angles, bins=16, range=(-math.pi, math.pi))
        assert stats.chisquare(counts).pvalue > 1e-3
        assert np.max(radii_sq) <= 1.0 + 1e-12

    def test_isometric_coordinate_variances_match(self):
        n_draws = 100_000
        coords = np.empty((n_draws, 14))
        for i in range(n_draws):
            coords[i] = iso_coordinates(sample_unit_ball_curve(3, 0, SeedSpec(7, i)))
        variances = coords.var(axis=0)
        assert float(variances.max() / variances.min()) < 1.02


class TestPairSampler:
    def test_components_in_balls(self):
        for i in range(200):
            pair = sample_pair(2, 1, SeedSpec(5, i))
            assert norm(pair.f, 1) <= 1.0 + 1e-12
            assert norm(pair.g, 1) <= 1.0 + 1e-12

    def test_deterministic(self):
        a = sample_pair(2, 0, SeedSpec(8, 3))
        b = sample_pair(2, 0, SeedSpec(8, 3))
        assert a.f == b.f and a.g == b.g

    @pytest.mark.slow
    def test_component_norms_uncorrelated(self):
        n_draws = 100_000
        norms = np.empty((n_draws, 2))
        for i in range(n_draws):
            pair = sample_pair(1, 0, SeedSpec(13, i))
            norms[i] = (norm(pair.f, 0), norm(pair.g, 0))
        corr = float(np.corrcoef(norms[:, 0], norms[:, 1])[0, 1])
        assert abs(corr) < 0.01

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CurvePair(unit_circle(), sample_unit_ball_curve(2, 0, SeedSpec(1)))


class TestMaxNormWeightedPair:
    def test_zero_exponent_replays_uniform(self):
        for i in range(50):
            spec = SeedSpec(21, i)
            w = sample_max_norm_weighted_pair(2, 0, 0.0, spec)
            u = sample_pair(2, 0, spec)
            assert w.f == u.f and w.g == u.g

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            sample_max_norm_weighted_pair(1, 0, -1.0, SeedSpec(0))

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_non_finite_exponent_rejected(self, k):
        # NaN used to pass the sign check and make every draw a rejection
        with pytest.raises(ValueError, match="finite"):
            sample_max_norm_weighted_pair(1, 0, k, SeedSpec(0))

    def test_weighting_shifts_max_norm_up(self):
        n_draws = 10_000
        uniform = np.empty(n_draws)
        weighted = np.empty(n_draws)
        for i in range(n_draws):
            pu = sample_pair(1, 0, SeedSpec(34, i))
            pw = sample_max_norm_weighted_pair(1, 0, 4.0, SeedSpec(35, i))
            uniform[i] = max(norm(pu.f, 0), norm(pu.g, 0))
            weighted[i] = max(norm(pw.f, 0), norm(pw.g, 0))
            assert weighted[i] <= 1.0 + 1e-12
        assert weighted.mean() > uniform.mean()


class TestFiberPair:
    """Pairs on the slice {f(0) = g(0)} inside both unit balls, as accepted
    rows of fiber_candidates."""

    def test_constraint_and_membership(self):
        N = 2
        half = 4 * N + 2
        z, inside = fiber_candidates(N, SeedSpec(55).rng(), 2000)
        assert inside.sum() >= 100
        for row in z[inside]:
            f = _iso_to_curve(N, 0, row[:half])
            g = _iso_to_curve(N, 0, row[half:])
            pf = evaluate(f, 0.0)
            pg = evaluate(g, 0.0)
            assert math.hypot(pf.x - pg.x, pf.y - pg.y) <= 1e-12
            assert norm(f, 0) <= 1.0 + 1e-12
            assert norm(g, 0) <= 1.0 + 1e-12
        for row in z[~inside]:
            assert max(norm(_iso_to_curve(N, 0, row[:half]), 0),
                       norm(_iso_to_curve(N, 0, row[half:]), 0)) > 1.0 - 1e-12

    def test_degenerate_degree_rejected(self):
        with pytest.raises(ValueError):
            fiber_candidates(0, SeedSpec(0).rng(), 10)

    def test_deterministic(self):
        za, ia = fiber_candidates(1, SeedSpec(4, 9).rng(), 100)
        zb, ib = fiber_candidates(1, SeedSpec(4, 9).rng(), 100)
        assert np.array_equal(za, zb) and np.array_equal(ia, ib)
        zc, _ = fiber_candidates(1, SeedSpec(4, 10).rng(), 100)
        assert not np.array_equal(za, zc)

    def test_acceptance_rate_interior(self):
        _, inside = fiber_candidates(1, SeedSpec(66).rng(), 10_000)
        rate = inside.mean()
        assert 0.0 < rate < 1.0
        # sanity: nowhere near the rejection-budget floor
        assert rate > 0.01
