import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import linalg, stats

import curvecross.chain as chain
from curvecross.chain import (
    assemble_mean_from_chain,
    assembly_prefactors,
    buffon_average,
    eight_integral,
    fiber_mc_check,
    k_of_A,
    run_chain,
    slice_attempts,
    xi_closed_form,
    xi_quadrature,
)
from curvecross.curves import derivative, evaluate, point_radius_bound
from curvecross.exact import mean_intersections_exact
from curvecross.sampling import SeedSpec, _iso_rows

from _support import fiber_candidates, fiber_speed_dets


class TestKofA:
    def test_center(self):
        assert k_of_A(0.0, 4) == 1.0

    def test_rim(self):
        assert k_of_A(point_radius_bound(2, 0), 2) == pytest.approx(0.0, abs=1e-7)

    def test_interior_value(self):
        assert k_of_A(1.0, 1) == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            k_of_A(-0.1, 1)
        with pytest.raises(ValueError):
            k_of_A(point_radius_bound(1, 0) + 0.01, 1)

    def test_first_order_metric(self):
        # mu(1,1) = 2, so A = 1 sits exactly on the rim
        assert k_of_A(1.0, 1, 1) == 0.0


class TestXi:
    def test_closed_form_center_degree_one(self):
        assert xi_closed_form(0.0, 1) == pytest.approx(4 * math.pi**2 / 15, rel=1e-12)

    def test_vanishes_at_rim(self):
        # sqrt(3/2) is irrational, so k(a_max) lands within one rounding step
        # of 0 rather than at it; the integral is then ~k^5, machine-zero
        a_max = point_radius_bound(1, 0)
        assert xi_closed_form(a_max, 1) <= 1e-30
        assert xi_quadrature(a_max, 1) <= 1e-30
        # with the first-order metric at N=1 the rim radius is exactly 1.0
        assert k_of_A(1.0, 1, 1) == 0.0

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_quadrature_matches_closed_form(self, N):
        a_max = point_radius_bound(N, 0)
        for A in (0.0, 0.3, 0.8 * a_max):
            cf = xi_closed_form(A, N)
            q = xi_quadrature(A, N)
            assert q == pytest.approx(cf, rel=1e-8)

    def test_monotone_decreasing(self):
        a_max = point_radius_bound(2, 0)
        grid = np.linspace(0.0, a_max, 50)
        values = [xi_closed_form(float(A), 2) for A in grid]
        assert all(v >= 0.0 for v in values)
        assert all(a > b or (a == b == 0.0) for a, b in zip(values, values[1:]))

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            xi_closed_form(0.0, 0)


class TestEightIntegral:
    @pytest.mark.parametrize("N", [0, 1, 5])
    def test_equals_one_eighth(self, N):
        assert abs(eight_integral(N) - 0.125) <= 1e-12

    def test_antiderivative_identity(self):
        # (2N+1)/2 * [cos^(8N+4)/(8N+4)] over the quarter period telescopes to 1/8
        for N in range(13):
            assert Fraction(2 * N + 1, 2 * (8 * N + 4)) == Fraction(1, 8)


class TestBuffon:
    def test_quadrature_value(self):
        assert abs(buffon_average() - 2.0 / math.pi) <= 1e-12

    def test_half_period_symmetry(self):
        from scipy import integrate

        first, _ = integrate.quad(lambda t: abs(math.sin(t)), 0.0, math.pi, epsabs=1e-14)
        second, _ = integrate.quad(lambda t: abs(math.sin(t)), math.pi, 2 * math.pi, epsabs=1e-14)
        assert abs(first - second) <= 1e-12

    def test_monte_carlo_agrees(self):
        rng = SeedSpec(314, 0).rng()
        draws = np.abs(np.sin(rng.uniform(0.0, 2 * math.pi, size=1_000_000)))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 2.0 / math.pi) <= 3.0 * se


class TestAssembly:
    @pytest.mark.parametrize("N", list(range(1, 9)))
    def test_matches_exact_formula(self, N):
        exact = mean_intersections_exact(N, 0).approx
        assert assemble_mean_from_chain(N) == pytest.approx(exact, rel=1e-8)

    def test_closed_form_route_is_equivalent(self):
        for N in (1, 2, 3):
            a = assemble_mean_from_chain(N)
            b = assemble_mean_from_chain(N, use_closed_form=True)
            assert b == pytest.approx(a, rel=1e-10)

    def test_projection_factor_exact(self):
        for N in (1, 2, 3, 7):
            assert assembly_prefactors(N)["disc_projection"] == 4.0 / (2 * N + 1)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            assemble_mean_from_chain(9)


class TestFiberCheck:
    def test_integrand_nonnegative(self):
        assert np.all(slice_attempts(2, SeedSpec(8).rng(), 500).dets >= 0.0)

    def test_too_few_accepted(self):
        # 2 attempts can leave 0 or 1 accepted draws, too few for a variance
        for seed, accepted in ((3, 0), (1, 1)):
            with pytest.raises(ValueError, match=f"accepted {accepted} of 2"):
                fiber_mc_check(1, 2, SeedSpec(seed))

    def test_small_run_consistent(self):
        res = fiber_mc_check(1, 100_000, SeedSpec(2718))
        exact = mean_intersections_exact(1, 0).approx
        assert 0.0 < res.acceptance_rate < 1.0
        assert abs(res.estimate - exact) <= 5.0 * res.stderr

    def test_stderr_shrinks_with_attempts(self):
        a = fiber_mc_check(1, 50_000, SeedSpec(5))
        b = fiber_mc_check(1, 200_000, SeedSpec(5))
        assert b.stderr < a.stderr
        assert a.stderr / b.stderr == pytest.approx(2.0, rel=0.25)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            fiber_mc_check(4, 1000, SeedSpec(0))


def _slice_directions(N: int):
    """Within one block of isometric coordinates (r=0): the constraint
    normals n_x, n_y, the speed functionals w_x, w_y, and an orthonormal
    basis (as columns) of the rest of the block."""
    half = 4 * N + 2
    n_x, n_y, w_x, w_y = np.zeros((4, half))
    n_x[0] = n_y[1] = 1.0 / math.sqrt(2.0)
    for j in range(1, N + 1):
        base = 2 + 4 * (j - 1)
        n_x[base], w_x[base + 1], n_y[base + 2], w_y[base + 3] = 1.0, j, 1.0, j
    rest = linalg.null_space(np.stack([n_x, n_y, w_x, w_y]))
    assert rest.shape == (half, 4 * N - 2)
    return n_x, n_y, w_x, w_y, rest


class TestSliceAttempts:
    """The reduced draws of the slice Monte Carlo: lifted back to full pair
    coordinates (exact), and in law against the Gram-Schmidt reference."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_lift_reproduces_every_value(self, N):
        count = 300
        draws = slice_attempts(N, SeedSpec(21).rng(), count)
        n_x, n_y, w_x, w_y, rest = _slice_directions(N)
        g1, g2, g3, g4, q_f, q_g, s = draws.coords
        assert np.all(q_f > 0.0) and np.all(q_g > 0.0) and np.all(s > 0.0)
        rng = np.random.default_rng(0)

        def rest_part(q):
            v = rng.standard_normal((count, rest.shape[1]))
            return np.sqrt(q / np.einsum("ij,ij->i", v, v))[:, None] * v @ rest.T

        theta = rng.uniform(0.0, 2.0 * math.pi, count)
        shared = np.sqrt(s / 2.0)[:, None] * (np.cos(theta)[:, None] * n_x / np.linalg.norm(n_x)
                                              + np.sin(theta)[:, None] * n_y / np.linalg.norm(n_y))
        k = np.sqrt(draws.k_sq)[:, None]
        ux, uy = w_x / np.linalg.norm(w_x), w_y / np.linalg.norm(w_y)
        z_f = k * (g1[:, None] * ux + g2[:, None] * uy + rest_part(q_f) + shared)
        z_g = k * (g3[:, None] * ux + g4[:, None] * uy + rest_part(q_g) + shared)
        np.testing.assert_allclose(np.einsum("ij,ij->i", z_f, z_f), draws.sq_f, rtol=1e-12)
        np.testing.assert_allclose(np.einsum("ij,ij->i", z_g, z_g), draws.sq_g, rtol=1e-12)
        fs, gs = _iso_rows(N, 0, z_f), _iso_rows(N, 0, z_g)
        for i in range(count):
            f, g = fs.curve(i), gs.curve(i)
            pf, pg = evaluate(f, 0.0), evaluate(g, 0.0)
            assert math.hypot(pf.x - pg.x, pf.y - pg.y) <= 1e-12
            vf, vg = derivative(f, 0.0), derivative(g, 0.0)
            det = abs(vf.x * vg.y - vf.y * vg.x)
            assert det == pytest.approx(draws.dets[i], rel=1e-10,
                                        abs=1e-12 * math.hypot(*vf) * math.hypot(*vg))
        norms = np.maximum(fs.norms(0), gs.norms(0))
        clear = np.abs(norms - 1.0) > 1e-12
        assert clear.sum() >= count - 1
        np.testing.assert_array_equal(draws.inside[clear], norms[clear] <= 1.0)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_law_matches_reference(self, N):
        count = 100_000
        draws = slice_attempts(N, SeedSpec(23).rng(), count)
        z, inside = fiber_candidates(N, SeedSpec(24).rng(), count)
        p_new, p_ref = draws.inside.mean(), inside.mean()
        p = 0.5 * (p_new + p_ref)
        assert abs(p_new - p_ref) <= 4.0 * math.sqrt(2.0 * p * (1.0 - p) / count)
        ks = stats.ks_2samp(draws.dets[draws.inside], fiber_speed_dets(N, z[inside]))
        assert ks.pvalue > 1e-3

    def test_deterministic(self):
        a = slice_attempts(1, SeedSpec(4, 9).rng(), 100)
        b = slice_attempts(1, SeedSpec(4, 9).rng(), 100)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a.coords, slice_attempts(1, SeedSpec(4, 10).rng(), 100).coords)

    def test_each_degree_draws_its_own_stream(self, monkeypatch):
        first = {}
        real = chain.slice_attempts

        def spy(N, rng, count):
            first.setdefault(N, rng.bit_generator.state["state"])
            return real(N, rng, count)

        monkeypatch.setattr(chain, "slice_attempts", spy)
        report = run_chain((1, 2, 3), fiber_attempts=1000, seed=SeedSpec(12))
        assert [s.name for s in report.steps if s.name.startswith("fiber_mc")] == [
            "fiber_mc_N1", "fiber_mc_N2", "fiber_mc_N3"]
        assert first == {N: SeedSpec(12).rng(N).bit_generator.state["state"] for N in (1, 2, 3)}
        assert len({state["state"] for state in first.values()}) == 3


class TestRunChain:
    def test_all_steps_present_and_passing(self):
        report = run_chain((1, 2))
        names = [s.name for s in report.steps]
        assert names == [
            "buffon_mean_abs_sin",
            "xi_slice_integral_N1",
            "eight_integral_N1",
            "disc_projection_factor_N1",
            "assembled_mean_N1",
            "xi_slice_integral_N2",
            "eight_integral_N2",
            "disc_projection_factor_N2",
            "assembled_mean_N2",
        ]
        assert report.passed
        for row in report.as_rows():
            assert {"name", "closed_form_value", "numeric_value", "relative_error"} <= row.keys()

    def test_fiber_step_optional(self):
        report = run_chain((1,), fiber_attempts=50_000, seed=SeedSpec(12))
        assert any(s.name == "fiber_mc_N1" for s in report.steps)
        assert report.passed

    def test_rejects_negative_fiber_attempts(self):
        with pytest.raises(ValueError, match="fiber_attempts"):
            run_chain((1,), fiber_attempts=-5)

    def test_table_renders(self):
        table = run_chain((1,)).format_table()
        assert "assembled_mean_N1" in table and "ok" in table
