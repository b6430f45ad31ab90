import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecross.curves import (
    CurveRows,
    SchemaError,
    TrigCurve,
    curve_from_json,
    curve_to_json,
    derivative,
    evaluate,
    evaluate_many,
    evaluate_rows,
    inner_product,
    lipschitz_bound,
    lipschitz_bounds,
    load_curve,
    norm,
    point_radius_bound,
    save_curve,
)
from curvecross.sampling import SeedSpec, sample_pairs, sample_unit_ball_curve

from _support import curve_axpy, scalar_coordinate, trig_curves, unit_circle

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)


class TestEvaluate:
    def test_unit_circle_at_zero(self):
        assert evaluate(unit_circle(), 0.0) == (1.0, 0.0)

    def test_zero_curve(self):
        z = TrigCurve.zero(3)
        for phi in (0.0, 1.0, 4.5):
            assert evaluate(z, phi) == (0.0, 0.0)

    def test_second_harmonic(self):
        c = TrigCurve(2, [0, 0, 1], [0, 0], [0, 0, 0], [0, 0])
        p = evaluate(c, math.pi / 2)
        assert p.x == pytest.approx(-1.0, abs=1e-15)
        assert p.y == 0.0

    def test_angle_reduced_mod_two_pi(self):
        c = unit_circle()
        a = evaluate(c, 1.25)
        b = evaluate(c, 1.25 + TWO_PI)
        assert a.x == pytest.approx(b.x, abs=1e-12)
        assert a.y == pytest.approx(b.y, abs=1e-12)

    def test_stacked_rows_match_each_curve(self):
        # every value of a stacked evaluation is bit-identical to evaluating
        # its curve alone, whatever the other rows and run lengths
        curves = [sample_unit_ball_curve(3, i % 2, SeedSpec(71, i)) for i in range(6)]
        counts = np.array([5, 1, 0, 17, 3, 64])
        rng = np.random.default_rng(3)
        phis = rng.uniform(-10.0, 10.0, counts.sum())
        stack = [np.array([getattr(c, name) for c in curves]) for name in ("xa", "xb", "ya", "yb")]
        xs, ys = evaluate_rows(*stack, phis, counts)
        ends = np.cumsum(counts)
        for c, lo, hi in zip(curves, ends - counts, ends):
            want = evaluate_many(c, phis[lo:hi])
            assert np.array_equal(xs[lo:hi], want[0]) and np.array_equal(ys[lo:hi], want[1])

    def test_shape_follows_angles(self):
        xs, ys = evaluate_many(unit_circle(), np.zeros((2, 3)))
        assert xs.shape == ys.shape == (2, 3)
        assert evaluate_many(unit_circle(), 0.0)[0].shape == ()

    @given(trig_curves(), st.floats(0.0, TWO_PI))
    def test_matches_vectorized(self, c, phi):
        p = evaluate(c, phi)
        xs, ys = evaluate_many(c, [phi])
        assert xs[0] == pytest.approx(p.x, abs=1e-12)
        assert ys[0] == pytest.approx(p.y, abs=1e-12)


class TestKernelAccuracy:
    """evaluate_rows against scalar math.cos/math.sin sums, to a bound set
    by float64 rounding: the Horner sum's error grows with the degree times
    the harmonics' size, the constant term adds one rounding."""

    @pytest.mark.parametrize("N", [0, 1, 2, 8, 24])
    def test_matches_scalar_sum(self, N):
        rng = np.random.default_rng(100 + N)
        counts = np.array([7, 0, 1, 300, 40, 2])
        xa, ya = rng.normal(size=(2, counts.size, N + 1))
        xb, yb = rng.normal(size=(2, counts.size, N))
        xa[1::2, 0] += 1e3  # translated rows
        # angles in [-1e4, 1e4] on a 2**-20 grid, so that j*phi is exact in
        # the reference
        phis = rng.integers(-10_000 * 2**20, 10_000 * 2**20, counts.sum()) / 2**20
        xs, ys = evaluate_rows(xa, xb, ya, yb, phis, counts)
        rows = np.repeat(np.arange(counts.size), counts)
        for phi, k, x, y in zip(phis.tolist(), rows.tolist(), xs.tolist(), ys.tolist()):
            for a, b, got in ((xa[k], xb[k], x), (ya[k], yb[k], y)):
                bound = 4 * EPS * ((N + 1) * (np.abs(a[1:]).sum() + np.abs(b).sum()) + abs(a[0]))
                assert abs(got - scalar_coordinate(a, b, phi)) <= bound


class TestDerivative:
    def test_unit_circle(self):
        assert derivative(unit_circle(), 0.0) == (0.0, 1.0)

    def test_zero_curve(self):
        assert derivative(TrigCurve.zero(2), 2.2) == (0.0, 0.0)

    def test_third_harmonic_sine(self):
        c = TrigCurve(3, [0, 0, 0, 0], [0, 0, 1], [0, 0, 0, 0], [0, 0, 0])
        assert derivative(c, 0.0) == (3.0, 0.0)

    @given(trig_curves(), st.floats(0.1, TWO_PI - 0.1))
    def test_central_difference_quadratic_decay(self, c, phi):
        d = derivative(c, phi)
        errs = []
        for h in (1e-4, 1e-5):
            hi = evaluate(c, phi + h)
            lo = evaluate(c, phi - h)
            errs.append(
                math.hypot((hi.x - lo.x) / (2 * h) - d.x, (hi.y - lo.y) / (2 * h) - d.y)
            )
        assert errs[0] <= 1e-5
        assert errs[1] <= max(errs[0] / 25.0, 2e-9)


class TestInnerProduct:
    def test_circle_l2(self):
        assert inner_product(unit_circle(), unit_circle(), 0) == 2.0

    def test_circle_first_order(self):
        assert inner_product(unit_circle(), unit_circle(), 1) == 4.0

    def test_constant_weight_two(self):
        c = TrigCurve(0, [1.0], [], [0.0], [])
        assert inner_product(c, c, 0) == 2.0

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            inner_product(unit_circle(), TrigCurve.zero(2), 0)

    @given(trig_curves(max_degree=3), trig_curves(max_degree=3), st.integers(0, 2))
    def test_symmetric(self, c1, c2, r):
        if c1.degree != c2.degree:
            return
        assert inner_product(c1, c2, r) == inner_product(c2, c1, r)

    @given(
        st.integers(1, 3),
        st.floats(-3, 3, allow_nan=False),
        st.integers(0, 2),
        st.data(),
    )
    def test_bilinear(self, n, alpha, r, data):
        a = data.draw(trig_curves(min_degree=n, max_degree=n))
        b = data.draw(trig_curves(min_degree=n, max_degree=n))
        c = data.draw(trig_curves(min_degree=n, max_degree=n))
        lhs = inner_product(curve_axpy(alpha, a, b), c, r)
        rhs = alpha * inner_product(a, c, r) + inner_product(b, c, r)
        scale = 1.0 + abs(alpha)
        assert lhs == pytest.approx(rhs, abs=1e-9 * scale, rel=1e-9)


class TestNorm:
    def test_zero(self):
        assert norm(TrigCurve.zero(4), 0) == 0.0

    def test_circle(self):
        assert norm(unit_circle(), 0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_unit_ball_boundary_constant(self):
        c = TrigCurve(0, [1 / math.sqrt(2)], [], [0.0], [])
        assert norm(c, 0) == pytest.approx(1.0, rel=1e-15)


class TestLipschitz:
    def test_zero(self):
        assert lipschitz_bound(TrigCurve.zero(2)) == 0.0

    def test_circle_dominates_speed(self):
        assert lipschitz_bound(unit_circle()) >= 1.0

    def test_second_harmonic(self):
        c = TrigCurve(2, [0, 0, 0], [0, 1], [0, 0, 0], [0, 0])
        assert lipschitz_bound(c) >= 2.0

    @settings(max_examples=20)
    @given(trig_curves())
    def test_dominates_sampled_speeds(self, c):
        bound = lipschitz_bound(c)
        for phi in np.linspace(0.0, TWO_PI, 500, endpoint=False):
            d = derivative(c, phi)
            assert math.hypot(d.x, d.y) <= bound * (1 + 1e-12) + 1e-12


class TestCurveRows:
    """Row-block values against the one-curve functions, bit for bit."""

    @pytest.mark.parametrize("N", [0, 1, 3])
    @pytest.mark.parametrize("r", [0, 2])
    def test_norms_and_bounds_per_row(self, N, r):
        curves = [sample_unit_ball_curve(N, r, SeedSpec(72, i)) for i in range(40)]
        curves.append(TrigCurve.zero(N))
        rows = CurveRows.stack(curves)
        assert rows.norms(r).tolist() == [norm(c, r) for c in curves]
        assert lipschitz_bounds(rows) == [lipschitz_bound(c) for c in curves]

    def test_stack_needs_one_degree(self):
        with pytest.raises(ValueError, match="different degrees"):
            CurveRows.stack([unit_circle(), TrigCurve.zero(3)])
        with pytest.raises(ValueError, match="different degrees"):
            CurveRows.stack([])


class TestPointRadiusBound:
    def test_l2_degree_one(self):
        assert point_radius_bound(1, 0) == pytest.approx(math.sqrt(1.5), rel=1e-15)

    def test_constants(self):
        for r in (0, 1, 5):
            assert point_radius_bound(0, r) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_first_order_degree_one(self):
        # mu = 1 + 2/2 = 2 so the radius is exactly 1
        assert point_radius_bound(1, 1) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("N,r", [(1, 0), (3, 0), (2, 1), (0, 2)])
    def test_values_stay_inside_disc(self, N, r):
        bound = point_radius_bound(N, r) + 1e-9
        angles = np.linspace(0.0, TWO_PI, 256, endpoint=False)
        for i in range(2500):
            c = sample_unit_ball_curve(N, r, SeedSpec(1000 + 10 * N + r, i))
            xs, ys = evaluate_many(c, angles)
            assert float(np.max(np.hypot(xs, ys))) <= bound


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="xa must have shape"):
            TrigCurve(2, [0, 0], [0, 0], [0, 0, 0], [0, 0])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            TrigCurve(1, [0, math.nan], [0], [0, 0], [0])

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            TrigCurve(-1, [], [], [], [])

    def test_coefficients_frozen(self):
        c = unit_circle()
        with pytest.raises(ValueError):
            c.xa[0] = 5.0

    @pytest.mark.parametrize("source", ["sampled", "by_hand", "stacked", "copied"])
    def test_fields_read_only(self, source):
        # a validated block cannot take a NaN afterwards, and a curve of the
        # block views its row rather than copying it
        if source == "copied":
            rows = copy.deepcopy(sample_pairs(2, 0, 73, range(3))[0])
            assert rows.block.tolist() == sample_pairs(2, 0, 73, range(3))[0].block.tolist()
        elif source == "sampled":
            rows = sample_pairs(2, 0, 73, range(3))[0]
        elif source == "by_hand":
            arrays = [np.ones((3, n)) for n in (3, 2, 3, 2)]
            rows = CurveRows(2, *arrays)
            arrays[0][0, 0] = math.nan  # the caller's arrays stay its own
            assert np.isfinite(rows.xa).all()
        else:
            rows = CurveRows.stack([unit_circle(), unit_circle()])
        assert all(np.shares_memory(a, rows.block) for a in rows.arrays)
        for a in (*rows.arrays, rows.block):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = math.nan
        for k in range(len(rows)):
            c = rows.curve(k)
            assert all(np.shares_memory(a, b) for a, b in zip(rows.arrays, c.rows.arrays))
            assert np.shares_memory(rows.xa, c.xa)


class TestJson:
    def test_golden_document(self):
        text = curve_to_json(unit_circle(), 0)
        doc = json.loads(text)
        assert doc == {
            "degree": 1,
            "r": 0,
            "x": {"a": [0, 1], "b": [0]},
            "y": {"a": [0, 0], "b": [1]},
        }

    @given(trig_curves(), st.integers(0, 3))
    def test_round_trip_bit_exact(self, c, r):
        back, r_back = curve_from_json(curve_to_json(c, r))
        assert back == c
        assert r_back == r

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        c = TrigCurve(2, [0.1, -1 / 3, 2e-17], [1e300, 0.7], [0, 0, 0], [0, 0])
        save_curve(path, c, 1)
        back, r = load_curve(path)
        assert back == c
        assert r == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("{not json", "line 1"),
            ("[1, 2]", "expected a JSON object"),
            ('{"degree": 1, "r": 0, "x": {"a": [0], "b": []}, "y": {"a": [0, 0], "b": [0]}}', "'a' must have 2 entries"),
            ('{"degree": 1, "x": {"a": [0, 0], "b": [0]}, "y": {"a": [0, 0], "b": [0]}}', "missing key 'r'"),
            ('{"degree": 1, "r": 0, "x": {"a": [0, "x"], "b": [0]}, "y": {"a": [0, 0], "b": [0]}}', "not a number"),
            ('{"degree": 1, "r": 0, "x": {"a": [0, 0], "b": [0]}, "y": {"a": [0, 1%s], "b": [0]}}'
             % ("0" * 400), r'"y": a\[1\] is not finite as a float'),
            ('{"degree": 1, "r": 0, "x": {"a": [0, 0], "b": [1e400]}, "y": {"a": [0, 0], "b": [0]}}',
             r'"x": b\[0\] is not finite as a float'),
        ],
    )
    def test_schema_errors(self, text, fragment):
        with pytest.raises(SchemaError, match=fragment):
            curve_from_json(text)
