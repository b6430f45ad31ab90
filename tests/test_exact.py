import math
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvecross.exact import (
    MeanValue,
    asymptote_ratio,
    ball_volume_even,
    lambda_sq,
    mean_intersections_exact,
    mean_intersections_range,
    metric_series_limits,
    mu,
    sobolev_limit_report,
    tau,
)


def eq6_closed_form(N: int) -> Fraction:
    """Independent route to the plain-L2 mean: the closed-form square-sum
    1 + 4 + ... + N^2 = N(N+1)(2N+1)/6 substituted into the factorial ratio."""
    square_sum = Fraction(N * (N + 1) * (2 * N + 1), 6)
    return Fraction(2) ** (8 * N + 3) * factorial(2 * N) ** 4 * square_sum / factorial(4 * N + 1) ** 2


def closed_form(N: int, r: int) -> Fraction:
    """The general formula from the one-shot sums lambda_sq(N, r) and mu(N, r),
    beside the running sums of mean_intersections_range."""
    return (Fraction(2) ** (8 * N + 3) * lambda_sq(N, r) * factorial(2 * N) ** 4 * (2 * N + 1)
            / (mu(N, r) * factorial(4 * N + 1) ** 2))


class TestTau:
    def test_first_order(self):
        assert tau(2, 1) == 5

    @pytest.mark.parametrize("j", [1, 2, 7, 100])
    def test_order_zero_is_one(self, j):
        assert tau(j, 0) == 1

    def test_second_order(self):
        assert tau(3, 2) == 1 + 9 + 81 == 91

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tau(0, 1)
        with pytest.raises(ValueError):
            tau(2, -1)


class TestMu:
    def test_l2_reduces_to_odd_dimension(self):
        assert mu(3, 0) == 7

    def test_empty_sum(self):
        for r in (0, 1, 5):
            assert mu(0, r) == 1

    def test_first_order_degree_one(self):
        assert mu(1, 1) == 2

    def test_l2_identity_up_to_100(self):
        for N in range(101):
            assert mu(N, 0) == 2 * N + 1

    def test_memoized(self):
        assert mu(17, 2) is mu(17, 2)
        assert mu(17, 2) == 1 + 2 * sum(Fraction(1, tau(j, 2)) for j in range(1, 18))


class TestLambdaSq:
    def test_square_sum(self):
        assert lambda_sq(3, 0) == 14

    def test_empty(self):
        assert lambda_sq(0, 2) == 0

    def test_first_order(self):
        assert lambda_sq(2, 1) == Fraction(1, 2) + Fraction(4, 5) == Fraction(13, 10)

    def test_pyramidal_identity_up_to_100(self):
        for N in range(101):
            assert lambda_sq(N, 0) == Fraction(N * (N + 1) * (2 * N + 1), 6)

    def test_memoized(self):
        assert lambda_sq(17, 2) is lambda_sq(17, 2)
        assert lambda_sq(17, 2) == sum(Fraction(j * j, tau(j, 2)) for j in range(1, 18))


class TestBallVolume:
    def test_disc(self):
        v = ball_volume_even(1)
        assert v.coeff == 1 and v.pi_power == 1
        assert v.approx() == pytest.approx(math.pi, rel=1e-15)

    def test_six_dimensional(self):
        v = ball_volume_even(3)
        assert v.coeff == Fraction(1, 6) and v.pi_power == 3
        assert v.approx() == pytest.approx(math.pi**3 / 6, rel=1e-15)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_square_matches_pair_space_volume(self, N):
        v = ball_volume_even(2 * N + 1)
        squared = (v.coeff**2, 2 * v.pi_power)
        assert squared == (Fraction(1, factorial(2 * N + 1) ** 2), 2 * (2 * N + 1))
        explicit = (math.pi ** (2 * N + 1) / factorial(2 * N + 1)) ** 2
        assert v.approx() ** 2 == pytest.approx(explicit, rel=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ball_volume_even(0)


class TestMeanExact:
    def test_constants_never_meet(self):
        for r in (0, 1, 4):
            assert mean_intersections_exact(0, r).exact == 0

    def test_degree_one_l2(self):
        # hand substitution: 2^11 * 1 * (2!)^4 * 3 / (3 * (5!)^2) = 32768/14400
        by_hand = Fraction(2**11 * 2**4 * 3, 3 * 120**2)
        assert by_hand == Fraction(512, 225)
        assert mean_intersections_exact(1, 0).exact == Fraction(512, 225)
        assert mean_intersections_exact(1, 0).approx == pytest.approx(2.275556, abs=1e-6)

    def test_degree_one_first_order(self):
        # lambda^2 = 1/2 and mu = 2: 2^11 * (1/2) * 16 * 3 / (2 * 14400)
        by_hand = Fraction(2**11, 2) * 16 * 3 / (2 * Fraction(120**2))
        assert by_hand == Fraction(128, 75)
        assert mean_intersections_exact(1, 1).exact == Fraction(128, 75)

    def test_degree_two_l2(self):
        by_hand = Fraction(2**19 * 24**4 * 5, factorial(9) ** 2)
        assert mean_intersections_exact(2, 0).exact == by_hand == Fraction(131072, 19845)
        assert mean_intersections_exact(2, 0).approx == pytest.approx(6.6048, abs=1e-4)

    def test_general_formula_reduces_to_l2_up_to_50(self):
        for N in range(51):
            assert mean_intersections_exact(N, 0).exact == eq6_closed_form(N)

    @given(st.integers(1, 40), st.integers(0, 3))
    def test_positive_and_reduced(self, N, r):
        value = mean_intersections_exact(N, r).exact
        assert value > 0
        assert math.gcd(value.numerator, value.denominator) == 1

    @given(st.integers(0, 60), st.integers(0, 2))
    def test_approx_is_correctly_rounded(self, N, r):
        mv = mean_intersections_exact(N, r)
        assert mv.approx == mv.exact.numerator / mv.exact.denominator

    @pytest.mark.parametrize("N", [300, 1000])
    @pytest.mark.parametrize("r", [0, 1])
    def test_high_degree_matches_factorial_formula(self, N, r):
        mv = mean_intersections_exact(N, r)
        assert mv.exact == closed_form(N, r)
        assert mv.approx == mv.exact.numerator / mv.exact.denominator
        if r == 0:
            assert mv.exact == eq6_closed_form(N)

    def test_mean_value_from_exact(self):
        mv = MeanValue.from_exact(Fraction(10**400, 3 * 10**400))
        assert mv.approx == pytest.approx(1 / 3, rel=1e-15)


# (295, 300) seeds the factorial ratio at 295 and steps it to the top of
# the benchmark's 1..300 sweep
SWEEP_RANGES = [(0, 40), (1, 40), (37, 60), (23, 23), (295, 300)]


class TestMeanRange:
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("lo, hi", SWEEP_RANGES)
    def test_rows_match_one_degree_calls(self, lo, hi, r):
        rows = list(mean_intersections_range(lo, hi, r))
        assert [N for N, _ in rows] == list(range(lo, hi + 1))
        for N, mv in rows:
            assert mv == mean_intersections_exact(N, r)
            assert mv.exact == closed_form(N, r)
            assert mv.approx == mv.exact.numerator / mv.exact.denominator

    def test_empty_range(self):
        assert list(mean_intersections_range(5, 4, 1)) == []

    def test_rejects_bad_arguments(self):
        for args in ((-1, 3, 0), (0, -1, 0), (0, 3, -1)):
            with pytest.raises(ValueError):
                next(mean_intersections_range(*args))


class TestAsymptoteRatio:
    def test_degree_one_value(self):
        expected = (512 / 225) / (math.pi / 3.0)
        assert asymptote_ratio(1) == pytest.approx(expected, rel=1e-14)

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            asymptote_ratio(0)

    def test_trend_toward_one(self):
        assert abs(asymptote_ratio(200) - 1.0) < abs(asymptote_ratio(20) - 1.0)


class TestSeriesLimits:
    # 30-digit values of the two series, summed term by term with mpmath.nsum
    ORACLE = {
        2: (0.899073640281345090452910062169, 1.79814728056269018090582012434),
        3: (0.315165728461432874798015016123, 1.52662370241140792704001435425),
        5: (0.169750163422990171235883456161, 1.33483066825431367982105476375),
        10: (0.090911954241004157396726688841, 1.18181961284158516891879203971),
        20: (0.0476190476217761038109719302665, 1.09523809523945948029412625278),
        40: (0.0243902439024390243902463839809, 1.04878048780487804878048904565),
        100: (0.00990099009900990099009900990099, 1.0198019801980198019801980198),
    }

    @pytest.mark.parametrize("r", sorted(ORACLE))
    def test_against_high_precision_oracle(self, r):
        lam, mun = metric_series_limits(r)
        lam_ref, mu_ref = self.ORACLE[r]
        assert lam == pytest.approx(lam_ref, rel=1e-13)
        assert mun == pytest.approx(mu_ref, rel=1e-13)

    def test_requires_second_order(self):
        with pytest.raises(ValueError):
            metric_series_limits(1)

    def test_second_order_limit_is_pi(self):
        lam, mun = metric_series_limits(2)
        assert 2 * math.pi * lam / mun == pytest.approx(math.pi, rel=2e-15, abs=0)
        assert mun == pytest.approx(2 * lam, rel=2e-15, abs=0)

    @pytest.mark.parametrize("r", range(5, 61))
    def test_large_order_follows_2pi_over_r_plus_3(self, r):
        lam, mun = metric_series_limits(r)
        limit = 2 * math.pi * lam / mun
        assert abs(limit / (2 * math.pi / (r + 3)) - 1) <= 4 * r * 4.0**-r + 1e-13


class TestSobolevLimitReport:
    def test_rejects_l2(self):
        with pytest.raises(ValueError):
            sobolev_limit_report(0, [5, 10])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            sobolev_limit_report(2, [10, 5])

    def test_second_order_converges(self):
        rep = sobolev_limit_report(2, [5, 10, 20])
        vals = [mv.approx for _, mv in rep.rows]
        assert vals[1] - vals[0] > 0 and vals[2] - vals[1] > 0
        assert vals[2] - vals[1] < vals[1] - vals[0]
        assert rep.candidate_limit is not None
        assert rep.ratio_vs_2pi_over_r_sq == pytest.approx(
            rep.candidate_limit / (2 * math.pi / 4), rel=1e-12
        )
        assert rep.ratio_vs_2pi_over_r_plus_1 == pytest.approx(
            rep.candidate_limit / (2 * math.pi / 3), rel=1e-12
        )

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_rows_are_the_exact_means(self, r):
        rep = sobolev_limit_report(r, [1, 5, 10, 40])
        assert [N for N, _ in rep.rows] == [1, 5, 10, 40]
        for N, mv in rep.rows:
            assert mv.exact == closed_form(N, r)
            assert mv.approx == mv.exact.numerator / mv.exact.denominator

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("ns", [[25, 50, 100], [25, 50, 75, 100]])
    def test_rows_equal_one_degree_calls(self, r, ns):
        rep = sobolev_limit_report(r, ns)
        assert rep.rows == tuple((N, mean_intersections_exact(N, r)) for N in ns)

    def test_first_order_grows_linearly(self):
        rep = sobolev_limit_report(1, [10, 20, 40])
        per_degree = [mv.approx / N for N, mv in rep.rows]
        assert max(per_degree) / min(per_degree) < 1.05
        assert rep.candidate_limit is None

    def test_first_order_slope_is_2_tanh_pi(self):
        rep = sobolev_limit_report(1, [10, 100, 1000])
        for N, mv in rep.rows:
            assert 0 < 2 * math.tanh(math.pi) - mv.approx / N <= 0.65 / N
