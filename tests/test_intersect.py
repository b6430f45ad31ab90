import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvecross.curves import CurveRows, TrigCurve, evaluate, horner, point_radius_bound
from curvecross.intersect import (
    CountingConfig,
    _closed_polylines,
    _first_of_clusters,
    _newton_batch,
    _pair_matrix,
    _polyline_crossings,
    brute_force_count,
    count_intersections,
    count_intersections_many,
    newton_refine,
    segment_proper_cross,
)
from curvecross.sampling import SeedSpec, sample_pair, sample_pairs

from _support import (all_pairs_oracle, circle_at, rotate_curve, scalar_coordinate,
                      unit_circle)

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)


def shifted_circle() -> TrigCurve:
    return TrigCurve(1, [1.5, 1.0], [0.0], [0.0, 0.0], [1.0])


def far_small_circle() -> TrigCurve:
    return TrigCurve(1, [3.0, 0.2], [0.0], [0.0, 0.0], [0.2])


def tangent_circle() -> TrigCurve:
    # (2 - cos psi, sin psi): touches the unit circle at (1, 0), the vertex at
    # parameter 0 of both polylines
    return TrigCurve(1, [2.0, -1.0], [0.0], [0.0, 0.0], [1.0])


def seed_rows(f, g, seeds: int):
    """Per-seed Newton map rows and offsets of one pair, for seeds seeds."""
    rows, offset = _pair_matrix(CurveRows.stack([f]).arrays, CurveRows.stack([g]).arrays)
    return np.repeat(rows, seeds, axis=0), np.repeat(offset, seeds, axis=0)


def result_key(res):
    return (res.count, res.degenerate, res.solutions, res.min_abs_det)


def rows_of(pairs):
    """The f rows and the g rows of a non-empty list of (f, g) pairs."""
    return CurveRows.stack([f for f, _ in pairs]), CurveRows.stack([g for _, g in pairs])


def no_rows(N):
    return CurveRows(N, np.empty((0, N + 1)), np.empty((0, N)), np.empty((0, N + 1)),
                     np.empty((0, N)))


def first_rows(rows, n):
    return CurveRows(rows.degree, *(a[:n] for a in rows.arrays))


class TestSegmentProperCross:
    def test_plus_sign(self):
        assert segment_proper_cross((0, -1), (0, 1), (-1, 0), (1, 0))

    def test_parallel(self):
        assert not segment_proper_cross((0, 0), (1, 0), (0, 1), (1, 1))

    def test_endpoint_touch(self):
        assert not segment_proper_cross((0, 0), (1, 0), (1, 0), (2, 0))

    def test_collinear_overlap(self):
        assert not segment_proper_cross((0, 0), (2, 0), (1, 0), (3, 0))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="zero-length"):
            segment_proper_cross((0, 0), (0, 0), (0, 1), (1, 0))

    finite = st.floats(-10, 10, allow_nan=False)

    @given(finite, finite, finite, finite, finite, finite, finite, finite)
    def test_symmetries(self, ax, ay, bx, by, cx, cy, dx, dy):
        p1, p2, q1, q2 = (ax, ay), (bx, by), (cx, cy), (dx, dy)
        if p1 == p2 or q1 == q2:
            return

        def orient(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        ds = [orient(p1, p2, q1), orient(p1, p2, q2), orient(q1, q2, p1), orient(q1, q2, p2)]
        if min(abs(d) for d in ds) <= 1e-9:
            return  # too close to a non-generic touch for float sign stability
        base = segment_proper_cross(p1, p2, q1, q2)
        assert segment_proper_cross(q1, q2, p1, p2) == base
        assert segment_proper_cross(p2, p1, q1, q2) == base
        assert segment_proper_cross(p1, p2, q2, q1) == base


class TestTwoCircleFixtures:
    def test_crossing_pair(self):
        res = count_intersections(unit_circle(), shifted_circle())
        assert res.count == 2
        assert not res.degenerate
        # both crossings sit on the vertical chord x = 0.75
        for phi, psi in res.solutions:
            p = evaluate(unit_circle(), phi)
            q = evaluate(shifted_circle(), psi)
            assert math.hypot(p.x - q.x, p.y - q.y) <= 1e-9 * point_radius_bound(1, 0)
            assert p.x == pytest.approx(0.75, abs=1e-9)
            assert abs(p.y) == pytest.approx(math.sqrt(1 - 0.75**2), abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_disjoint_images(self):
        res = count_intersections(unit_circle(), far_small_circle())
        assert res.count == 0
        assert not res.degenerate
        assert res.solutions == []
        assert math.isinf(res.min_abs_det)

    @pytest.mark.filterwarnings("error")
    def test_coincident_images_flagged(self):
        res = count_intersections(unit_circle(), unit_circle())
        assert res.degenerate

    @pytest.mark.filterwarnings("error")
    def test_exact_touch_flagged(self):
        # the polylines meet only at their shared vertex: no crossing seed,
        # so the touch test alone must raise the flag
        res = count_intersections(unit_circle(), tangent_circle())
        assert res.degenerate
        assert res.count == 0
        res = count_intersections(tangent_circle(), unit_circle())
        assert res.degenerate

    def test_brute_force_fixtures(self):
        assert brute_force_count(unit_circle(), shifted_circle(), 1024) == (2, True)
        assert brute_force_count(unit_circle(), far_small_circle(), 256) == (0, True)

    def test_brute_force_resolution_floor(self):
        with pytest.raises(ValueError):
            brute_force_count(unit_circle(), shifted_circle(), 128)


class TestNewton:
    def test_converges_from_nearby_seed(self):
        phi_true = math.acos(0.75)
        psi_true = math.pi - phi_true
        hit = newton_refine(unit_circle(), shifted_circle(), phi_true + 0.01, psi_true - 0.02)
        assert hit is not None
        phi, psi, det = hit
        p = evaluate(unit_circle(), phi)
        q = evaluate(shifted_circle(), psi)
        assert math.hypot(p.x - q.x, p.y - q.y) < 1e-10
        assert abs(det) > 0.1

    def test_exact_seed_returned_unchanged(self):
        phi_true = math.acos(0.75)
        psi_true = math.pi - phi_true
        hit = newton_refine(unit_circle(), shifted_circle(), phi_true, psi_true)
        assert hit is not None
        assert hit[0] == phi_true and hit[1] == psi_true

    @pytest.mark.filterwarnings("error")
    def test_singular_family_fails(self):
        assert newton_refine(unit_circle(), unit_circle(), 0.3, 0.7) is None

    @pytest.mark.filterwarnings("error")
    def test_tangency_fails(self):
        # the Jacobian vanishes at the tangent point
        assert newton_refine(unit_circle(), tangent_circle(), 0.0, 0.0) is None

    @pytest.mark.filterwarnings("error")
    def test_constant_curves_fail(self):
        point = TrigCurve(0, [0.1], [], [0.2], [])
        assert newton_refine(point, point, 0.3, 0.7) is None

    @pytest.mark.filterwarnings("error")
    def test_batch_freezes_singular_seed(self):
        # the first seed sits on the tangency, where det is exactly 0, while
        # the second one still steps: the batch must not divide by that det
        phi, psi, det, ok = _newton_batch(*seed_rows(unit_circle(), tangent_circle(), 2),
                                          [0.0, 0.3], [0.0, 2.9], 1e-11, CountingConfig())
        assert det[0] == 0.0
        assert not ok[0]

    def test_batch_matches_single_seeds(self):
        phi_true = math.acos(0.75)
        seeds = [(phi_true + 0.01, math.pi - phi_true - 0.02), (-phi_true + 0.02, math.pi + phi_true),
                 (0.3, 0.7)]
        phi, psi, det, ok = _newton_batch(*seed_rows(unit_circle(), shifted_circle(), len(seeds)),
                                          *zip(*seeds), 10.0 * 1e-12 * point_radius_bound(1, 0),
                                          CountingConfig())
        for k, (p0, q0) in enumerate(seeds):
            hit = newton_refine(unit_circle(), shifted_circle(), p0, q0)
            assert (hit is not None) == ok[k]
            if hit is not None:
                assert hit == pytest.approx((phi[k], psi[k], det[k]), abs=1e-12)

    @pytest.mark.parametrize("N", [0, 1, 2, 8])
    def test_pair_rows_match_scalar_sums(self, N):
        # Re of the plain Horner rows plus the offset is f(phi) - g(psi), and
        # -Im of the j-weighted rows is f'(phi) and g'(psi): checked against
        # scalar sums and their central differences, to bounds set by float64
        # rounding and by the difference quotient's h**2 term
        pair = sample_pair(N, 0, SeedSpec(61, N))
        f, g = pair.f, pair.g
        f = TrigCurve(N, np.concatenate(([f.xa[0] + 1e3], f.xa[1:])), f.xb, f.ya, f.yb)
        rows, offset = _pair_matrix(CurveRows.stack([f]).arrays, CurveRows.stack([g]).arrays)
        assert rows.shape == (1, 8, N) and offset.shape == (1, 2)
        coords = [(f.xa, f.xb), (f.ya, f.yb), (g.xa, g.xb), (g.ya, g.yb)]
        j = np.arange(1, N + 1)
        size = [float((np.abs(a[1:]) + np.abs(b)).sum()) for a, b in coords]
        cubes = [float((j**3 * (np.abs(a[1:]) + np.abs(b))).sum()) for a, b in coords]
        h = 1e-4
        for phi, psi in np.random.default_rng(9).uniform(-10.0, 10.0, size=(50, 2)).tolist():
            angles = [phi, phi, psi, psi]
            zs = [complex(math.cos(t), math.sin(t)) for t in angles]
            sums = [complex(horner(rows[0, i], zs[i % 4])) for i in range(8)]
            for c in (0, 1):
                want = scalar_coordinate(*coords[c], phi) - scalar_coordinate(*coords[c + 2], psi)
                got = (sums[c].real - sums[c + 2].real) + offset[0, c]
                consts = abs(coords[c][0][0]) + abs(coords[c + 2][0][0])
                assert abs(got - want) <= 4 * EPS * ((N + 1) * (size[c] + size[c + 2]) + consts)
            for c, ((a, b), t) in enumerate(zip(coords, angles)):
                central = (scalar_coordinate(a, b, t + h)
                           - scalar_coordinate(a, b, t - h)) / (2 * h)
                bound = h * h / 6 * cubes[c] + 4 * EPS * (abs(a[0]) + size[c]) / h
                assert abs(-sums[4 + c].imag - central) <= bound


class TestConstantCurves:
    def test_distinct_points(self):
        a = TrigCurve(0, [0.1], [], [0.2], [])
        b = TrigCurve(0, [-0.3], [], [0.0], [])
        res = count_intersections(a, b)
        assert res.count == 0 and not res.degenerate

    def test_coincident_points_flagged(self):
        a = TrigCurve(0, [0.1], [], [0.2], [])
        res = count_intersections(a, a)
        assert res.count == 0 and res.degenerate

    def test_point_against_circle(self):
        point = TrigCurve(1, [0.2, 0.0], [0.0], [0.1, 0.0], [0.0])
        res = count_intersections(point, unit_circle())
        assert res.count == 0 and not res.degenerate


class TestDegreeMismatch:
    def test_rejected(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            count_intersections(unit_circle(), TrigCurve.zero(2))
        with pytest.raises(ValueError, match="degree mismatch"):
            count_intersections_many(CurveRows.stack([unit_circle(), shifted_circle()]),
                                     CurveRows.stack([TrigCurve.zero(2), TrigCurve.zero(2)]))

    def test_mixed_degrees_in_one_call_rejected(self):
        # one block of rows holds one degree
        with pytest.raises(ValueError, match="different degrees"):
            CurveRows.stack([unit_circle(), TrigCurve.zero(2)])


class TestCurveRows:
    """Validation of a block of rows, once for the whole block."""

    def test_wrong_shape(self):
        f = CurveRows.stack([unit_circle(), shifted_circle()])
        with pytest.raises(ValueError, match="xb must have shape"):
            CurveRows(1, f.xa, f.xb[:1], f.ya, f.yb)  # one row short
        with pytest.raises(ValueError, match="ya must have shape"):
            CurveRows(1, f.xa, f.xb, f.ya[:, :1], f.yb)  # one coefficient short
        with pytest.raises(ValueError, match="xa must have shape"):
            CurveRows(1, f.xa[0], f.xb[0], f.ya[0], f.yb[0])  # one curve, not rows

    def test_non_finite_entry(self):
        f = CurveRows.stack([unit_circle(), shifted_circle()])
        yb = f.yb.copy()
        yb[1, 0] = math.nan
        with pytest.raises(ValueError, match="yb contains non-finite"):
            CurveRows(1, f.xa, f.xb, f.ya, yb)
        xa = f.xa.copy()
        xa[0, 0] = math.inf
        with pytest.raises(ValueError, match="xa contains non-finite"):
            CurveRows(1, xa, f.xb, f.ya, f.yb)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch: 1 vs 2"):
            count_intersections_many(CurveRows.stack([unit_circle()]),
                                     CurveRows.stack([TrigCurve.zero(2)]))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="row count mismatch: 2 f rows vs 1 g rows"):
            count_intersections_many(CurveRows.stack([unit_circle(), unit_circle()]),
                                     CurveRows.stack([shifted_circle()]))

    def test_rows_round_trip(self):
        curves = [unit_circle(), shifted_circle(), far_small_circle()]
        rows = CurveRows.stack(curves)
        assert len(rows) == 3
        assert [rows.curve(k) for k in range(3)] == curves


def degree_one_fixtures():
    point = TrigCurve(1, [0.2, 0.0], [0.0], [0.1, 0.0], [0.0])
    return [
        (unit_circle(), shifted_circle()),
        (unit_circle(), far_small_circle()),
        (unit_circle(), unit_circle()),  # coincident
        (unit_circle(), tangent_circle()),  # exact touch
        (tangent_circle(), unit_circle()),
        (point, unit_circle()),  # point against curve
        (unit_circle(), point),
        (point, point),  # coincident constants
        (point, TrigCurve(1, [-0.3, 0.0], [0.0], [0.0, 0.0], [0.0])),  # distinct constants
    ]


class TestBlocks:
    """count_intersections_many against counting each pair alone."""

    @staticmethod
    def _check(pairs):
        many = count_intersections_many(*rows_of(pairs))
        reversed_ = count_intersections_many(*rows_of(pairs[::-1]))[::-1]
        alone = [count_intersections(f, g) for f, g in pairs]
        assert len(many) == len(pairs)
        for a, b, c in zip(many, reversed_, alone):
            assert result_key(a) == result_key(b) == result_key(c)
        return many

    @pytest.mark.parametrize("N", [1, 2, 8])
    def test_sampled_pairs(self, N):
        pairs = [sample_pair(N, i % 2, SeedSpec(606, i)) for i in range(200)]
        results = self._check([(p.f, p.g) for p in pairs])
        assert sum(res.count for res in results) > 0

    @pytest.mark.filterwarnings("error")
    def test_fixtures(self):
        pairs = degree_one_fixtures()
        pairs += [(p.f, p.g) for p in (sample_pair(1, 0, SeedSpec(607, i)) for i in range(20))]
        results = self._check(pairs)
        assert [(r.count, r.degenerate) for r in results[:9]] == [
            (2, False), (0, False), (0, True), (0, True), (0, True), (0, False), (0, False),
            (0, True), (0, False)]
        constants = [(TrigCurve(0, [0.1], [], [0.2], []), TrigCurve(0, [0.1], [], [0.2], [])),
                     (TrigCurve(0, [0.1], [], [0.2], []), TrigCurve(0, [-0.3], [], [0.0], []))]
        assert [r.degenerate for r in self._check(constants)] == [True, False]

    def test_empty(self):
        assert count_intersections_many(no_rows(1), no_rows(1)) == []

    def test_memory_bounded_by_block(self):
        # the block constant, not the number of pairs in the call, sets the peak
        f, g = sample_pairs(8, 0, 608, range(256))

        def peak(n):
            tracemalloc.start()
            try:
                count_intersections_many(first_rows(f, n), first_rows(g, n))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(256) <= 1.5 * peak(32)


class TestOracle:
    """brute_force_count's two-level box filter against the all-pairs
    reference in _support: the same candidates, so the same counts."""

    @pytest.mark.parametrize("N", [1, 2, 3, 8])
    @pytest.mark.parametrize("r", [0, 1])
    def test_matches_all_pairs_on_sampled_pairs(self, N, r):
        f, g = sample_pairs(N, r, 611, range(125))
        for k in range(125):
            assert brute_force_count(f.curve(k), g.curve(k)) == \
                all_pairs_oracle(f.curve(k), g.curve(k), 256), k

    @pytest.mark.parametrize("M", [256, 257, 300])
    def test_short_tail_chunk(self, M):
        # 257 and 300 segments leave a last chunk of 1 and 4 segments at M
        pairs = degree_one_fixtures()
        pairs += [(p.f, p.g) for N in (1, 3) for p in (sample_pair(N, 0, SeedSpec(612, i))
                                                        for i in range(8))]
        for f, g in pairs:
            assert brute_force_count(f, g, M) == all_pairs_oracle(f, g, M)

    def test_circle_fixtures(self):
        for f, g in degree_one_fixtures()[:5]:
            for M in (256, 1024):
                assert brute_force_count(f, g, M) == all_pairs_oracle(f, g, M)

    @pytest.mark.parametrize("M", [256, 257, 300])
    def test_strided_polylines_match_direct(self, M):
        for N in range(9):
            f, _ = sample_pairs(N, 0, 613, range(4))
            for k in range(4):
                arrays = CurveRows.stack([f.curve(k)]).arrays
                fine = _closed_polylines(arrays, np.array([4 * M]))
                for step in (4, 2):
                    direct = _closed_polylines(arrays, np.array([4 * M // step]))
                    assert all(np.array_equal(a[::step], b) for a, b in zip(fine, direct))

    def test_memory_bounded_for_coincident_curves(self):
        # f = g puts every segment box on top of its twin: the all-pairs
        # filter's 2,048-row blocks peaked at about 26 MB here
        pair = sample_pair(8, 0, SeedSpec(609, 0))
        tracemalloc.start()
        try:
            brute_force_count(pair.f, pair.f, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestRandomPairs:
    def test_oracle_agreement_degree_two(self):
        agree = comparable = 0
        for i in range(150):
            pair = sample_pair(2, 0, SeedSpec(2024, i))
            res = count_intersections(pair.f, pair.g)
            count, stable = brute_force_count(pair.f, pair.g, 256)
            if res.degenerate or not stable:
                continue
            comparable += 1
            agree += res.count == count
        assert comparable > 100
        assert agree / comparable >= 0.99

    def test_parity_bound_and_flag_rate(self):
        # non-degenerate counts are even, at most 4N^2, mutually separated
        # solutions, and tiny residuals; flagged samples stay below 0.1%
        degenerate = 0
        total = 0
        for N in (1, 2, 3):
            cap = 4 * N * N
            radius = point_radius_bound(N, 0)
            for i in range(3334):
                pair = sample_pair(N, 0, SeedSpec(3000 + N, i))
                res = count_intersections(pair.f, pair.g)
                total += 1
                if res.degenerate:
                    degenerate += 1
                    continue
                assert res.count % 2 == 0
                assert res.count <= cap
                assert res.count == len(res.solutions)
                for phi, psi in res.solutions:
                    p = evaluate(pair.f, phi)
                    q = evaluate(pair.g, psi)
                    assert math.hypot(p.x - q.x, p.y - q.y) <= 1e-9 * radius
        assert degenerate / total <= 0.001

    def test_solution_separation(self):
        cfg = CountingConfig()
        for i in range(60):
            pair = sample_pair(2, 0, SeedSpec(41, i))
            res = count_intersections(pair.f, pair.g, cfg)
            sols = res.solutions
            for a in range(len(sols)):
                for b in range(a + 1, len(sols)):
                    dphi = abs(sols[a][0] - sols[b][0]) % TWO_PI
                    dpsi = abs(sols[a][1] - sols[b][1]) % TWO_PI
                    gap = math.hypot(min(dphi, TWO_PI - dphi), min(dpsi, TWO_PI - dpsi))
                    assert gap > cfg.dedupe_radius

    def test_translation_invariance(self):
        # the residual subtracts the constant terms first, so a far common
        # offset costs no precision and raises no flag
        def shifted(c, t):
            offset = np.zeros(c.degree + 1)
            offset[0] = t
            return TrigCurve(c.degree, c.xa + offset, c.xb, c.ya - offset, c.yb)

        for i in range(60):
            pair = sample_pair(2, 0, SeedSpec(5, i))
            res = count_intersections(pair.f, pair.g)
            far = count_intersections(shifted(pair.f, 1e6), shifted(pair.g, 1e6))
            assert (far.count, far.degenerate) == (res.count, res.degenerate)

    def test_rotation_invariance(self):
        theta = 0.731
        checked = 0
        for i in range(100):
            pair = sample_pair(2, 0, SeedSpec(52, i))
            res = count_intersections(pair.f, pair.g)
            rot = count_intersections(rotate_curve(pair.f, theta), rotate_curve(pair.g, theta))
            if res.degenerate or rot.degenerate:
                continue
            checked += 1
            assert res.count == rot.count
        assert checked >= 95

    @pytest.mark.xfail(strict=True, reason="the polyline chord target is absolute, so a "
                       "pair scaled by 1e-3 is counted on the 64-vertex floor polylines")
    @pytest.mark.parametrize("index,unscaled", [(10, 6), (103, 10)])
    def test_scaling_keeps_count_or_flags(self, index, unscaled):
        def scaled(c, s):
            return TrigCurve(c.degree, s * c.xa, s * c.xb, s * c.ya, s * c.yb)

        pair = sample_pair(2, 0, SeedSpec(5, index))
        res = count_intersections(pair.f, pair.g)
        assert (res.count, res.degenerate) == (unscaled, False)
        small = count_intersections(scaled(pair.f, 1e-3), scaled(pair.g, 1e-3))
        assert small.count == unscaled or small.degenerate


class TestCountingConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CountingConfig(seg_target=0.0)
        with pytest.raises(ValueError):
            CountingConfig(newton_tol=-1.0)
        with pytest.raises(ValueError):
            CountingConfig(max_newton_iters=0)

    def test_custom_seg_target_used(self):
        fine = CountingConfig(seg_target=0.005)
        res = count_intersections(unit_circle(), shifted_circle(), fine)
        assert res.count == 2


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _dense_crossings(fx, fy, gx, gy):
    """All-pairs reference for the sweep: the proper crossings as a set of
    (i, j), and whether any box-overlapping pair touched."""
    crossings = set()
    touch = False
    for i in range(fx.size - 1):
        for j in range(gx.size - 1):
            p1, p2 = (fx[i], fy[i]), (fx[i + 1], fy[i + 1])
            q1, q2 = (gx[j], gy[j]), (gx[j + 1], gy[j + 1])
            if p1 == p2 or q1 == q2:
                continue
            if (max(p1[0], p2[0]) < min(q1[0], q2[0]) or min(p1[0], p2[0]) > max(q1[0], q2[0])
                    or max(p1[1], p2[1]) < min(q1[1], q2[1])
                    or min(p1[1], p2[1]) > max(q1[1], q2[1])):
                continue
            if segment_proper_cross(p1, p2, q1, q2):
                crossings.add((i, j))
            else:
                touch |= 0.0 in (_orient(p1, p2, q1), _orient(p1, p2, q2),
                                 _orient(q1, q2, p1), _orient(q1, q2, p2))
    return crossings, touch


class TestSweep:
    """The sort-and-sweep candidate pass against an all-pairs loop."""

    @staticmethod
    def _sweep(fx, fy, gx, gy):
        """The sweep over one pair of polylines."""
        p, i, j, t, s, touch = _polyline_crossings(np.concatenate((fx, gx)), np.concatenate((fy, gy)),
                                                   np.array([fx.size - 1, gx.size - 1]))
        assert np.all(p == 0) and touch.shape == (1,)
        return i, j, t, s, bool(touch[0])

    def _check(self, fx, fy, gx, gy):
        i, j, t, s, touch = self._sweep(fx, fy, gx, gy)
        crossings, dense_touch = _dense_crossings(fx, fy, gx, gy)
        assert set(zip(i.tolist(), j.tolist())) == crossings
        assert len(crossings) == i.size
        assert touch == dense_touch
        assert np.all((t > 0) & (t < 1) & (s > 0) & (s < 1))
        assert np.all(np.lexsort((i, j)) == np.arange(i.size))  # g, then f order

    def test_random_polylines(self):
        rng = np.random.default_rng(7)
        for size in (2, 5, 40):
            for _ in range(20):
                fx, fy, gx, gy = rng.normal(size=(4, size))
                self._check(fx, fy, gx, gy)

    def test_grid_polylines_with_touches(self):
        # integer vertices make shared vertices, collinear overlaps, zero-length
        # segments and vertical or horizontal boxes common
        rng = np.random.default_rng(8)
        touched = 0
        for _ in range(200):
            fx, fy, gx, gy = rng.integers(0, 4, size=(4, 12)).astype(float)
            self._check(fx, fy, gx, gy)
            touched += self._sweep(fx, fy, gx, gy)[4]
        assert touched > 50

    @pytest.mark.filterwarnings("error")
    def test_empty_inputs(self):
        one = np.array([0.5])
        square = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
        for fx, fy, gx, gy in ((one, one, square, square[::-1]),
                               (square, square[::-1], one, one),
                               (np.zeros(4), np.zeros(4), square, square[::-1])):
            i, j, t, s, touch = self._sweep(fx, fy, gx, gy)
            assert i.size == j.size == t.size == s.size == 0
            assert not touch


    def test_pairs_kept_apart(self):
        # polylines of several pairs on the same integer grid, so their boxes
        # overlap across pairs: one sweep over all of them finds each pair's
        # crossings and touches as the sweep over that pair alone does
        rng = np.random.default_rng(9)
        lines = [rng.integers(0, 4, size=(4, size)).astype(float) for size in (12, 2, 7, 12, 30)]
        xs = np.concatenate([line[0] for line in lines] + [line[2] for line in lines])
        ys = np.concatenate([line[1] for line in lines] + [line[3] for line in lines])
        m = np.array([line.shape[1] - 1 for line in lines] * 2)
        p, i, j, t, s, touch = _polyline_crossings(xs, ys, m)
        assert np.all(np.diff(p) >= 0)
        for k, line in enumerate(lines):
            alone = self._sweep(*line)
            mine = p == k
            for got, want in zip((i[mine], j[mine], t[mine], s[mine]), alone[:4]):
                assert np.array_equal(got, want)
            assert touch[k] == alone[4]
        assert touch.any() and p.size


def _kept_loop(phi, psi, radius):
    """Reference dedup: keep a root unless a root kept before it is close."""
    kept = []
    for k in range(phi.size):
        gaps = [(abs(phi[k] - phi[m]) % TWO_PI, abs(psi[k] - psi[m]) % TWO_PI) for m in kept]
        if not any(min(a, TWO_PI - a) <= radius and min(b, TWO_PI - b) <= radius
                   for a, b in gaps):
            kept.append(k)
    return [k in kept for k in range(phi.size)]


class TestDedup:
    def test_chain_keeps_both_ends(self):
        # A ~ B and B ~ C, but C is not near A: B goes, A and C stay
        r = 1e-6
        phi = np.array([1.0, 1.0 + 0.8 * r, 1.0 + 1.6 * r])
        psi = np.array([2.0, 2.0, 2.0])
        assert _first_of_clusters(phi, psi, np.zeros(3, int), r).tolist() == [True, False, True]

    def test_wraps_around_the_torus(self):
        r = 1e-6
        phi = np.array([0.0, TWO_PI - 0.5 * r, 3.0])
        psi = np.array([TWO_PI, 0.25 * r, 3.0])
        assert _first_of_clusters(phi, psi, np.zeros(3, int), r).tolist() == [True, False, True]

    def test_matches_loop_across_blocks(self):
        # 600 roots in tight clumps and chains, so rows in later blocks of 256
        # depend on roots kept in earlier ones
        rng = np.random.default_rng(11)
        r = 1e-3
        centers = rng.uniform(0.0, TWO_PI, size=(120, 2))
        pts = np.repeat(centers, 5, axis=0) + rng.uniform(-1.5 * r, 1.5 * r, size=(600, 2))
        pts = np.mod(pts[rng.permutation(600)], TWO_PI)
        phi, psi = pts.T
        keep = _first_of_clusters(phi, psi, np.zeros(600, int), r)
        assert keep.tolist() == _kept_loop(phi, psi, r)
        assert 120 < keep.sum() < 600

    @pytest.mark.filterwarnings("error")
    def test_empty(self):
        assert _first_of_clusters(np.empty(0), np.empty(0), np.empty(0, int), 1e-6).size == 0

    def test_groups_apart(self):
        # 600 clustered roots in 7 groups of uneven size: each group is deduped
        # as if it were alone, across the 256-row blocks
        rng = np.random.default_rng(12)
        r = 1e-3
        centers = rng.uniform(0.0, TWO_PI, size=(60, 2))
        pts = np.repeat(centers, 10, axis=0) + rng.uniform(-1.5 * r, 1.5 * r, size=(600, 2))
        phi, psi = np.mod(pts[rng.permutation(600)], TWO_PI).T
        group = np.sort(rng.integers(0, 7, size=600))
        keep = _first_of_clusters(phi, psi, group, r)
        for k in range(7):
            mine = group == k
            assert keep[mine].tolist() == _kept_loop(phi[mine], psi[mine], r)


class TestGoldenCounts:
    def test_counts_and_flags_unchanged(self):
        # (count, degenerate) of fixed pairs at N in {1, 2, 3, 4, 8}, r in {0, 1},
        # recorded from the hashed-grid counter that the sweep replaced
        golden = json.loads((Path(__file__).parent / "golden_counts.json").read_text())
        for cell, expected in golden["cells"].items():
            N, r = (int(v) for v in cell[1:].split("r"))
            pairs = [sample_pair(N, r, SeedSpec(golden["master_seed"], i))
                     for i in range(golden["pairs_per_cell"])]
            alone = [count_intersections(p.f, p.g) for p in pairs]
            together = count_intersections_many(
                *sample_pairs(N, r, golden["master_seed"], range(golden["pairs_per_cell"])))
            for results in (alone, together):
                got = " ".join(f"{res.count}{'*' if res.degenerate else ''}" for res in results)
                assert got == expected, cell
