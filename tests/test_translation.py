"""Shift invariance, regime threshold, translated pricing, asymptotics."""

import math

import pytest

import growthprice.translation
from conftest import admissible_price, random_game
from growthprice import (
    DomainError,
    Game,
    GameValidationError,
    InternalConsistencyError,
    Regime,
    ThresholdStatus,
    TwoPointGame,
    asymptotic_sweep,
    boundary_growth,
    check_invariance,
    compute_stats,
    optimal_price,
    pre_optimal_proportion,
    price_translated,
    threshold_shift,
    translate,
    two_point_closed_form,
)

np = pytest.importorskip("numpy")


class TestRatioInvariance:
    def test_fixture_ratio_at_u5(self, two_point):
        for n in (-0.5, 0.0, 3.0, 37.5, 99.0):
            report = check_invariance(two_point, 5.0, n)
            assert math.isclose(report.ratio_original, 5.0 / 56.0, rel_tol=1e-10)
            assert math.isclose(report.ratio_translated, 5.0 / 56.0, rel_tol=1e-10)
            assert report.ratio_residual <= 1e-8 * max(1.0, report.ratio_original)

    def test_zero_shift_residual_is_exactly_zero(self, two_point):
        report = check_invariance(two_point, 5.0, 0.0)
        assert report.ratio_residual == 0.0
        assert report.growth_residual == 0.0

    def test_shifted_root_value_against_closed_form(self, two_point):
        report = check_invariance(two_point, 7.2236, 10.0)
        tp = TwoPointGame(high=19.0, low=1.0, p_high=0.5)
        expected_root, _ = two_point_closed_form(tp, 7.2236, 10.0)
        got_root = report.ratio_translated * 17.2236
        assert abs(got_root - expected_root) <= 1e-9 * expected_root


class TestGrowthInvariance:
    def test_fixture_growth_at_u5(self, two_point):
        expected = 9.0 / math.sqrt(56.0)
        for n in (-0.5, 0.0, 12.0, 99.0):
            report = check_invariance(two_point, 5.0, n)
            assert math.isclose(report.growth_original, expected, rel_tol=1e-9)
            assert math.isclose(report.growth_translated, expected, rel_tol=1e-9)
            assert report.growth_residual <= 1e-8 * report.growth_original

    def test_growth_at_optimal_price_with_shift(self, two_point):
        u = 7.2236
        report = check_invariance(two_point, u, 19.0)
        expected = 9.0 / math.sqrt((u - 1.0) * (19.0 - u))
        assert math.isclose(report.growth_translated, expected, rel_tol=1e-9)
        assert math.isclose(report.growth_translated, math.exp(0.05), rel_tol=1e-4)


class TestInvarianceOnRandomGames:
    def test_ratio_and_growth_residuals(self):
        rng = np.random.default_rng(505)
        for _ in range(100):
            game = random_game(rng)
            stats = compute_stats(game)
            u = admissible_price(stats, rng)
            n = float(rng.uniform(-stats.ess_inf + 1e-3, 100.0))
            report = check_invariance(game, u, n)
            assert report.ratio_residual <= 1e-8 * max(1.0, report.ratio_original)
            assert report.growth_residual <= 1e-8 * report.growth_original


class TestBoundaryGrowthShifts:
    def test_matches_the_translated_game_over_random_shifts(self):
        rng = np.random.default_rng(606)
        for _ in range(50):
            game = random_game(rng)
            n = float(rng.uniform(-compute_stats(game).ess_inf + 1e-3, 1e4))
            stats = compute_stats(translate(game, n))
            expected = stats.harmonic_integral * math.exp(stats.log_moment)
            assert boundary_growth(game, n) == expected

    def test_shift_merging_two_payouts_is_invalid(self):
        game = Game.from_pairs([(1.0, 0.5), (1.0 + 2.0**-52, 0.5)])
        with pytest.raises(GameValidationError, match="profit is constant"):
            boundary_growth(game, 1.0)

    def test_shift_merging_two_of_three_payouts_prices_the_merged_game(self):
        # Summed per payout before merging, these weights round differently
        # from the merged game's, so the result shows which game was priced.
        game = Game.from_pairs([(1.0, 0.3), (1.0 + 2.0**-52, 0.6), (5.0, 0.1)])
        merged = translate(game, 1.0)
        assert len(merged.outcomes) == 2
        stats = compute_stats(merged)
        expected = stats.harmonic_integral * math.exp(stats.log_moment)
        assert boundary_growth(game, 1.0) == expected

    def test_overflowing_shift_is_invalid(self):
        game = Game.from_pairs([(1.0, 0.5), (1e308, 0.5)])
        with pytest.raises(GameValidationError, match="must be finite"):
            boundary_growth(game, 1e308)

    def test_shift_at_minus_ess_inf_rejected(self, two_point):
        for n in (-1.0, -2.0):
            with pytest.raises(DomainError) as excinfo:
                boundary_growth(two_point, n)
            assert str(excinfo.value) == f"shift n={n!r} must exceed -ess_inf = -1.0"

    @pytest.mark.parametrize(
        "call",
        (
            lambda g: translate(g, math.inf),
            lambda g: boundary_growth(g, math.inf),
            lambda g: price_translated(g, 0.05, math.inf),
            lambda g: check_invariance(g, 5.0, math.inf),
            lambda g: asymptotic_sweep(g, 0.05, [1.0, math.inf]),
        ),
        ids=(
            "translate",
            "boundary_growth",
            "price_translated",
            "check_invariance",
            "asymptotic_sweep",
        ),
    )
    def test_infinite_shift_is_a_domain_error_naming_the_shift(self, two_point, call):
        # an infinite shift used to reach validation as an infinite payout
        with pytest.raises(DomainError) as excinfo:
            call(two_point)
        assert str(excinfo.value) == "shift n=inf must be finite"

    def test_invalid_game_rejected_before_the_shift(self):
        game = Game.from_pairs([(1.0, 0.5), (3.0, 0.4)])
        for _ in range(2):
            with pytest.raises(GameValidationError, match="weights sum to 0.9"):
                boundary_growth(game, -5.0)


class TestThresholdShift:
    def test_fixture_threshold_value(self, two_point):
        result = threshold_shift(two_point, 0.05)
        expected = 9.0 * math.exp(0.05) / math.sqrt(math.exp(0.1) - 1.0) - 10.0
        assert result.regime_note is ThresholdStatus.FOUND
        assert abs(result.n0 - expected) <= 1e-8 * expected
        assert result.residual <= 1e-12

    def test_rate_at_unshifted_boundary_gives_zero(self, two_point):
        r_boundary = math.log(boundary_growth(two_point, 0.0))
        result = threshold_shift(two_point, r_boundary)
        assert result.regime_note is ThresholdStatus.FOUND
        assert result.n0 == 0.0

    def test_a_rate_whose_exp_is_the_boundary_growth_has_zero_residual(self, two_point):
        # the float r nearest log B(0) whose exp rounds to B(0) exactly
        b0 = compute_stats(two_point).boundary_growth
        r = math.log(b0)
        while math.exp(r) < b0:
            r = math.nextafter(r, math.inf)
        while math.exp(r) > b0:
            r = math.nextafter(r, 0.0)
        assert math.exp(r) == b0
        result = threshold_shift(two_point, r)
        assert result.regime_note is ThresholdStatus.FOUND
        assert (result.n0, result.residual) == (0.0, 0.0)

    def test_rate_above_boundary_reports_status(self, two_point):
        result = threshold_shift(two_point, 1.0)
        assert result.regime_note is ThresholdStatus.ALREADY_FULL_INVESTMENT_AT_ZERO_SHIFT
        assert result.n0 is None and result.residual is None

    def test_three_point_against_sampled_curve(self, three_point):
        r = 0.05
        target = math.exp(r)
        result = threshold_shift(three_point, r)
        # independent bracket: scan the boundary-growth curve at 1e-3 steps
        step = 1e-3
        n = 0.0
        while boundary_growth(three_point, n + step) >= target:
            n += step
        assert result.regime_note is ThresholdStatus.FOUND
        assert n <= result.n0 <= n + step

    def test_nonpositive_rate_rejected(self, two_point):
        with pytest.raises(DomainError):
            threshold_shift(two_point, 0.0)

    def test_doubling_to_a_shift_that_merges_every_payout_is_internal(self):
        # The weights' 9e-13 excess over 1 keeps B(n) - 1 as evaluated above
        # about 1.6e-11, so at r = 1e-11 the doubling reaches the shift where
        # both payouts round to one. That is no game, and the fault is the
        # evaluated B, not the caller's.
        game = Game.from_pairs([(1.0, 0.5), (19.0, 0.5000000000009)])
        assert threshold_shift(game, 1e-9).n0 == 202443.94836516277
        with pytest.raises(InternalConsistencyError) as info:
            threshold_shift(game, 1e-11)
        assert "shifts up to 4.5035996273781965e+17" in str(info.value)
        assert "weights sum to 1.0000000000009" in str(info.value)

    def test_an_expectation_that_underflows_to_zero_is_refused(self):
        # every w * a rounds to 0, so the search would start at a shift of 0,
        # which doubling never moves; validation refuses every payout first
        weights = (0.5, 0.25, 1 / 6 - 4e-13, 1 / 12 - 4e-13)
        game = Game.from_pairs((k * 5e-324, w) for k, w in enumerate(weights, 1))
        with pytest.raises(GameValidationError) as info:
            threshold_shift(game, 0.05)
        problems = info.value.verdict.problems
        assert len(problems) == 4
        for k, problem in enumerate(problems, 1):
            assert problem.startswith(f"payout {k * 5e-324!r} is below the smallest")


class TestPriceTranslated:
    def test_zero_shift_equals_direct_pricing(self, two_point):
        assert price_translated(two_point, 0.05, 0.0) == optimal_price(two_point, 0.05)

    def test_interior_shift_adds_to_price(self, two_point):
        base = optimal_price(two_point, 0.05)
        shifted = price_translated(two_point, 0.05, 10.0)
        assert shifted.regime is Regime.INTERIOR
        assert abs(shifted.optimal_price - (base.optimal_price + 10.0)) <= 1e-6

    def test_large_shift_full_investment_value(self, two_point):
        solution = price_translated(two_point, 0.05, 99.0)
        expected = math.sqrt(11800.0) / math.exp(0.05)
        assert solution.regime is Regime.FULL_INVESTMENT
        assert abs(solution.optimal_price - expected) <= 1e-9 * expected

    def test_additivity_across_shifts_below_threshold(self, two_point):
        base = optimal_price(two_point, 0.05)
        n0 = threshold_shift(two_point, 0.05).n0
        for n in (-0.5, 1.0, 5.0, 10.0, 19.0):
            assert n < n0
            shifted = price_translated(two_point, 0.05, n)
            assert abs(shifted.optimal_price - (base.optimal_price + n)) <= 1e-6

    def test_consistency_guard_trips_when_forced(self, two_point, monkeypatch):
        monkeypatch.setattr(growthprice.translation, "TRANSLATION_CHECK_TOL", -1.0)
        with pytest.raises(InternalConsistencyError):
            price_translated(two_point, 0.05, 1.0)

    def test_inadmissible_arguments_rejected(self, two_point):
        with pytest.raises(DomainError):
            price_translated(two_point, -0.05, 1.0)
        with pytest.raises(DomainError):
            price_translated(two_point, 0.05, -1.5)


class TestAsymptoticSweep:
    def test_fixture_row_at_99(self, two_point):
        row = asymptotic_sweep(two_point, 0.05, [99.0])[0]
        assert math.isclose(row.gap, 109.0 - 11800.0 / 109.0, rel_tol=1e-12)
        expected_price = math.sqrt(11800.0) / math.exp(0.05)
        assert math.isclose(row.price_ratio, expected_price / 109.0, rel_tol=1e-9)
        assert abs(row.price_ratio - math.exp(-0.05)) < 0.01

    def test_fixture_row_at_zero_far_from_discount(self, two_point):
        row = asymptotic_sweep(two_point, 0.05, [0.0])[0]
        assert math.isclose(row.price_ratio, 0.7224, abs_tol=5e-4)
        assert abs(row.price_ratio - math.exp(-0.05)) > 0.2

    def test_trends_on_geometric_grid(self, two_point):
        shifts = [float(2**k) for k in range(15)]
        rows = asymptotic_sweep(two_point, 0.05, shifts)
        assert [row.shift for row in rows] == shifts
        gaps = [row.gap for row in rows]
        boundaries = [row.boundary_growth for row in rows]
        witnesses = [row.monotone_witness for row in rows]
        discount_errors = [abs(row.price_ratio - math.exp(-0.05)) for row in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert all(b < a for a, b in zip(boundaries, boundaries[1:]))
        assert all(b > a for a, b in zip(witnesses, witnesses[1:]))
        assert all(b < a for a, b in zip(discount_errors, discount_errors[1:]))

    def test_non_increasing_shifts_rejected(self, two_point):
        with pytest.raises(DomainError):
            asymptotic_sweep(two_point, 0.05, [1.0, 1.0])
        with pytest.raises(DomainError):
            asymptotic_sweep(two_point, 0.05, [4.0, 2.0])

    def test_empty_shift_list_rejected(self, two_point):
        # an empty list used to return no rows
        with pytest.raises(DomainError, match="^shifts must list at least one shift$"):
            asymptotic_sweep(two_point, 0.05, [])


UNRESOLVABLE_RATES = (0.0, -1.0, math.nan, math.inf, 1e3, 1e-17)
RATE_SOLVERS = {
    "optimal_price": lambda game, r: optimal_price(game, r),
    "threshold_shift": lambda game, r: threshold_shift(game, r),
    "price_translated": lambda game, r: price_translated(game, r, 1.0),
    "asymptotic_sweep": lambda game, r: asymptotic_sweep(game, r, [1.0, 2.0]),
}


class TestRateDomain:
    """Every solver refuses a rate unless 1 < exp(r) < inf: at r = 1e-17
    exp(r) rounds to 1, and at r = 1e3 it overflows."""

    @pytest.mark.parametrize("r", UNRESOLVABLE_RATES)
    @pytest.mark.parametrize("solver", sorted(RATE_SOLVERS))
    def test_unresolvable_rate_is_refused(self, two_point, solver, r):
        with pytest.raises(DomainError, match="rate"):
            RATE_SOLVERS[solver](two_point, r)

    @pytest.mark.parametrize("r", (1e-15, 700.0))
    @pytest.mark.parametrize("solver", sorted(RATE_SOLVERS))
    def test_rates_inside_the_domain_are_solved(self, two_point, solver, r):
        RATE_SOLVERS[solver](two_point, r)


class TestShiftDerivative:
    def test_forward_difference_matches_ratio(self):
        # the root is linear in the shift at fixed u, so the forward
        # difference reproduces root/(u + n) up to solver noise
        rng = np.random.default_rng(707)
        for _ in range(10):
            game = random_game(rng)
            stats = compute_stats(game)
            u = admissible_price(stats, rng, lo_frac=0.1, hi_frac=0.9)
            n = float(rng.uniform(-stats.ess_inf + 0.1, 100.0))
            h = 1e-4 * (u + n)
            t_at = lambda shift: pre_optimal_proportion(
                translate(game, shift), u + shift
            ).proportion
            t_n = t_at(n)
            derivative = (t_at(n + h) - t_n) / h
            expected = t_n / (u + n)
            assert abs(derivative - expected) <= 1e-3 * abs(expected)
