import math

import numpy as np
import pytest
from scipy import stats

from curvecross.curves import TrigCurve, evaluate, norm
from curvecross.exact import tau
from curvecross.sampling import (
    CurvePair,
    SeedSpec,
    _iso_rows,
    _stream_states,
    fiber_candidates,
    sample_max_norm_weighted_pair,
    sample_max_norm_weighted_pairs,
    sample_pair,
    sample_pairs,
    sample_unit_ball_curve,
)

from _support import iso_coordinates, unit_circle


def iso_to_coeffs_loop(N, r, u):
    """The coefficient map as a loop over frequencies: the reference for
    the cached gather in sampling._iso_rows."""
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


def ball_point_loop(dim, radius, rng):
    """Uniform point in the dim-ball from one stream alone (Gaussian
    direction, U^(1/dim) radius): the reference for the block samplers."""
    z = rng.standard_normal(dim)
    u = rng.random()
    nz = float(np.linalg.norm(z))
    while nz == 0.0:
        z = rng.standard_normal(dim)
        nz = float(np.linalg.norm(z))
    return z * (radius * u ** (1.0 / dim) / nz)


def norm_loop(c, r):
    """The order-r norm of one curve as a scalar loop over frequencies."""
    total = 2.0 * (c.xa[0] * c.xa[0] + c.ya[0] * c.ya[0])
    for j in range(1, c.degree + 1):
        w = float(tau(j, r))
        total += w * (c.xa[j] * c.xa[j] + c.xb[j - 1] * c.xb[j - 1]
                      + c.ya[j] * c.ya[j] + c.yb[j - 1] * c.yb[j - 1])
    return math.sqrt(max(0.0, float(total)))


def loop_pair(N, r, k, seed):
    """sample_max_norm_weighted_pair (sample_pair at k = 0) one index at a
    time, each stream built by numpy's SeedSequence."""
    attempt = 0
    while True:
        f, g = (TrigCurve(N, *iso_to_coeffs_loop(N, r, ball_point_loop(4 * N + 2, 1.0,
                                                                       seed.rng(attempt, side))))
                for side in (0, 1))
        p = max(norm_loop(f, r), norm_loop(g, r)) ** k
        if p >= 1.0 or seed.rng(attempt, 2).random() < p:
            return f, g
        attempt += 1


def assert_rows_equal(rows, curves):
    assert len(rows) == len(curves)
    for name in ("xa", "xb", "ya", "yb"):
        want = np.array([getattr(c, name) for c in curves]).reshape(getattr(rows, name).shape)
        assert np.array_equal(getattr(rows, name), want)


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

    @pytest.mark.parametrize("N", [0, 1, 2, 8])
    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("k", [0.0, 0.5, 3.0, 4.0])
    def test_block_matches_loop(self, N, r, k):
        # unsorted, with repeats, and across the 2**32 split of spawn-key words
        indices = [5, 3, 3, 0, 2**32 + 1, 17, 2**32 - 1, 5, 40, 2**64 - 1, 1]
        master = 2**40 + 9
        pairs = [loop_pair(N, r, k, SeedSpec(master, i)) for i in indices]
        for got in (sample_max_norm_weighted_pairs(N, r, k, master, indices),
                    sample_max_norm_weighted_pairs(N, r, k, master, np.array(indices, dtype=np.uint64))):
            for rows, side in zip(got, (0, 1)):
                assert_rows_equal(rows, [pair[side] for pair in pairs])
        if k == 0.0:
            for rows, side in zip(sample_pairs(N, r, master, indices), (0, 1)):
                assert_rows_equal(rows, [pair[side] for pair in pairs])

    @pytest.mark.parametrize("N", [0, 2])
    def test_empty_block(self, N):
        for f, g in (sample_pairs(N, 1, 3, []), sample_max_norm_weighted_pairs(N, 1, 4.0, 3, [])):
            assert f.degree == g.degree == N
            assert len(f) == len(g) == 0
            assert f.xa.shape == (0, N + 1) and f.yb.shape == (0, N)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="stream_index"):
            sample_pairs(1, 0, 0, [0, -1])
        with pytest.raises(ValueError, match="stream_index"):
            sample_pairs(1, 0, 0, [2**64])
        with pytest.raises(ValueError, match="master_seed"):
            sample_pairs(1, 0, -1, [0])


class TestStreamStates:
    """The block derivation of PCG64 states against numpy's own seeding."""

    EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]

    @staticmethod
    def _check(master, keys):
        got = _stream_states(master, np.array(keys, dtype=np.uint64).reshape(len(keys), -1))
        assert len(got) == len(keys)
        for key, (state, inc) in zip(keys, got):
            spec = SeedSpec(master, key[0])
            want = np.random.PCG64(spec.sequence(*key[1:])).state["state"]
            assert want == {"state": state, "inc": inc}, (master, key)

    @pytest.mark.parametrize("master", EDGES)
    def test_matches_numpy(self, master):
        keys = [(i, a, s) for i in self.EDGES for a in (0, 3) for s in (0, 1, 2)]
        self._check(master, keys)

    @pytest.mark.parametrize("master", [0, 2**32 + 5])
    def test_mixed_word_counts(self, master):
        # one-word and two-word indices in one block, in both orders, and a
        # two-word attempt
        keys = [(7, 0, 0), (2**33 + 7, 0, 0), (9, 2**32, 1), (2**32, 1, 2), (0, 0, 1)]
        self._check(master, keys)
        self._check(master, keys[::-1])

    def test_index_only_key(self):
        self._check(12345, [(i,) for i in self.EDGES])

    def test_draws_match_numpy_streams(self):
        # sample_unit_ball_curve draws from stream (index,), built by SeedSpec.rng
        for i in (0, 1, 2**32, 2**64 - 1):
            seed = SeedSpec(99, i)
            want = TrigCurve(2, *iso_to_coeffs_loop(2, 1, ball_point_loop(10, 1.0, seed.rng())))
            assert sample_unit_ball_curve(2, 1, seed) == want


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
        f, g = sample_pairs(1, 0, 13, range(n_draws))
        corr = float(np.corrcoef(f.norms(0), g.norms(0))[0, 1])
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
        fs = _iso_rows(N, 0, z[inside, :half])
        gs = _iso_rows(N, 0, z[inside, half:])
        for f, g in ((fs.curve(k), gs.curve(k)) for k in range(len(fs))):
            pf = evaluate(f, 0.0)
            pg = evaluate(g, 0.0)
            assert math.hypot(pf.x - pg.x, pf.y - pg.y) <= 1e-12
            assert norm(f, 0) <= 1.0 + 1e-12
            assert norm(g, 0) <= 1.0 + 1e-12
        norms = np.maximum(_iso_rows(N, 0, z[~inside, :half]).norms(0),
                           _iso_rows(N, 0, z[~inside, half:]).norms(0))
        assert np.all(norms > 1.0 - 1e-12)

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
