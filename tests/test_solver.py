"""Proportion solver and pricing: frozen oracle values, monotonicity, regimes."""

import math
import os
import subprocess
import sys
import threading
import warnings
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growthprice.solver
import growthprice.translation
from conftest import admissible_price, random_game, random_two_point
from growthprice import (
    DomainError,
    Game,
    GrowthPriceError,
    InternalConsistencyError,
    Regime,
    asymptotic_sweep,
    boundary_growth,
    check_invariance,
    compute_stats,
    growth_rate,
    optimal_price,
    optimal_proportion,
    pre_optimal_proportion,
    price_translated,
    proportion_residual,
    threshold_shift,
    translate,
    two_point_closed_form,
    verify,
)
from growthprice.solver import (
    _array_first_order_sum,
    _bisect,
    _first_order_kernel,
    _first_order_sum,
    _kept_boundary_growth,
    _log_newton,
    _newton_certificates,
    _relative_spread,
    _solve_proportion,
)

np = pytest.importorskip("numpy")


def closed_form_proportion(u: float) -> float:
    """Two-point fixture root at price u: (E - u) u / ((19 - u)(u - 1))."""
    return (10.0 - u) * u / ((19.0 - u) * (u - 1.0))


class TestProportionResidual:
    def test_zero_proportion_gives_expected_margin(self, two_point, three_point):
        for game in (two_point, three_point):
            stats = compute_stats(game)
            for u in (2.5, 4.0):
                res = proportion_residual(game, u, 0.0)
                assert math.isclose(res, (stats.expectation - u) / u, rel_tol=1e-12)

    def test_root_of_closed_form_at_u5(self, two_point):
        assert abs(proportion_residual(two_point, 5.0, 25.0 / 56.0)) <= 1e-12

    def test_root_at_fair_price_is_one(self, two_point):
        assert abs(proportion_residual(two_point, 1.9, 1.0)) <= 1e-12

    def test_strictly_decreasing_in_t(self, two_point):
        values = [proportion_residual(two_point, 5.0, t) for t in np.linspace(0.0, 1.2, 25)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_price_below_ess_inf_rejected(self, two_point):
        with pytest.raises(DomainError):
            proportion_residual(two_point, 0.5, 0.1)

    def test_proportion_outside_bracket_rejected(self, two_point):
        with pytest.raises(DomainError):
            proportion_residual(two_point, 5.0, 1.25)
        with pytest.raises(DomainError):
            proportion_residual(two_point, 5.0, -0.1)


class TestPreOptimalProportion:
    def test_fair_price_root_is_one(self, two_point):
        stats = compute_stats(two_point)
        solution = pre_optimal_proportion(two_point, stats.fair_price)
        assert abs(solution.proportion - 1.0) <= 1e-9
        quoted = pre_optimal_proportion(two_point, 1.9)
        assert abs(quoted.proportion - 1.0) <= 1e-9

    def test_matches_closed_form_at_quoted_prices(self, two_point):
        for u in (5.0, 7.2236):
            solution = pre_optimal_proportion(two_point, u)
            expected = closed_form_proportion(u)
            assert abs(solution.proportion - expected) <= 1e-9 * expected
            assert abs(solution.residual) <= 1e-12

    def test_root_correctness_on_random_games(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            game = random_game(rng)
            u = admissible_price(compute_stats(game), rng)
            solution = pre_optimal_proportion(game, u)
            assert abs(proportion_residual(game, u, solution.proportion)) <= 1e-10

    def test_uncapped_root_exceeds_one_below_fair_price(self, two_point):
        solution = pre_optimal_proportion(two_point, 1.5)
        assert solution.proportion > 1.0
        cap = 1.5 / (1.5 - 1.0)
        assert solution.proportion < cap

    def test_root_vanishes_near_expectation(self, two_point):
        u = 10.0 - 1e-4 * (10.0 - 1.0)
        assert pre_optimal_proportion(two_point, u).proportion < 0.01

    def test_root_grows_without_bound_near_ess_inf(self, two_point):
        assert pre_optimal_proportion(two_point, 1.0 + 1e-6).proportion > 1e4

    def test_inadmissible_prices_rejected(self, two_point):
        for u in (1.0, 10.0, 0.0, 25.0):
            with pytest.raises(DomainError) as excinfo:
                pre_optimal_proportion(two_point, u)
            assert "admissible interval" in str(excinfo.value)


class TestGrowthRate:
    def test_zero_proportion_gives_one(self, two_point, three_point):
        assert growth_rate(two_point, 3.7, 0.0) == 1.0
        assert growth_rate(three_point, 3.7, 0.0) == 1.0

    def test_full_investment_at_fair_price(self, two_point):
        expected = 10.0 / math.sqrt(19.0)
        assert math.isclose(growth_rate(two_point, 1.9, 1.0), expected, rel_tol=1e-12)

    def test_quoted_interior_point(self, two_point):
        # growth near the root is flat, so the root-value formula applies
        u = 7.2236
        expected = 9.0 / math.sqrt((u - 1.0) * (19.0 - u))
        got = growth_rate(two_point, u, 0.27365)
        assert math.isclose(got, expected, rel_tol=1e-9)
        assert math.isclose(got, math.exp(0.05), rel_tol=1e-4)

    def test_any_nonnegative_proportion_below_ess_inf_price(self, two_point):
        # price below every payout: factors stay above 1 for any t >= 0
        got = growth_rate(two_point, 0.5, 3.0)
        expected = math.exp(
            math.fsum([0.5 * math.log(1.0 * 3.0 / 0.5 - 3.0 + 1.0),
                       0.5 * math.log(19.0 * 3.0 / 0.5 - 3.0 + 1.0)])
        )
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_proportion_at_cap_rejected(self, two_point):
        with pytest.raises(DomainError):
            growth_rate(two_point, 5.0, 1.25)

    def test_negative_inputs_rejected(self, two_point):
        with pytest.raises(DomainError):
            growth_rate(two_point, -1.0, 0.5)
        with pytest.raises(DomainError):
            growth_rate(two_point, 5.0, -0.5)


class TestOptimalProportion:
    def test_full_investment_at_and_below_fair_price(self, two_point):
        at_fair = optimal_proportion(two_point, 1.9)
        assert at_fair.proportion == 1.0
        assert math.isclose(at_fair.growth, 10.0 / math.sqrt(19.0), rel_tol=1e-12)
        at_one = optimal_proportion(two_point, 1.0)
        assert at_one.proportion == 1.0
        assert math.isclose(at_one.growth, math.sqrt(19.0), rel_tol=1e-12)

    def test_full_investment_residual_is_the_first_order_sum_at_one(self, two_point):
        # sum p (a - u)/((a - u) + u) at t = 1, in closed form 1 - u H with
        # H = (1 + 1/19)/2; at t = 2 it would read 0.24 at u = 1
        for u, closed_form in ((1.9, 0.0), (1.0, 9.0 / 19.0)):
            solution = optimal_proportion(two_point, u)
            terms = [w * (a - u) / ((a - u) * 1.0 + u) for a, w in two_point._pairs]
            assert solution.residual == math.fsum(terms)
            assert math.isclose(solution.residual, closed_form, abs_tol=1e-15)

    def test_interior_matches_raw_root(self, two_point):
        capped = optimal_proportion(two_point, 7.2236)
        raw = pre_optimal_proportion(two_point, 7.2236)
        assert capped.proportion == raw.proportion
        assert 0.0 < capped.proportion < 1.0
        assert capped.growth == raw.growth

    def test_out_of_range_prices_rejected(self, two_point):
        for u in (0.0, -1.0, 10.0, 11.0):
            with pytest.raises(DomainError):
                optimal_proportion(two_point, u)


class TestOptimalPrice:
    def test_two_point_fixture_interior(self, two_point):
        solution = optimal_price(two_point, 0.05)
        expected = 10.0 - 9.0 * math.sqrt(1.0 - math.exp(-0.1))
        assert solution.regime is Regime.INTERIOR
        assert abs(solution.optimal_price - expected) <= 1e-9 * expected
        assert abs(solution.growth_check - math.exp(0.05)) <= 1e-10

    def test_shifted_fixture_full_investment(self, two_point):
        shifted = translate(two_point, 99.0)
        solution = optimal_price(shifted, 0.05)
        expected = math.sqrt(11800.0) / math.exp(0.05)
        assert solution.regime is Regime.FULL_INVESTMENT
        assert solution.proportion == 1.0
        assert abs(solution.optimal_price - expected) <= 1e-9 * expected
        assert solution.optimal_price <= compute_stats(shifted).fair_price

    def test_regime_boundary_gives_fair_price(self, two_point):
        stats = compute_stats(two_point)
        r_boundary = math.log(stats.harmonic_integral) + stats.log_moment
        at_boundary = optimal_price(two_point, r_boundary)
        assert at_boundary.regime is Regime.FULL_INVESTMENT
        assert math.isclose(at_boundary.optimal_price, stats.fair_price, rel_tol=1e-12)
        just_below = optimal_price(two_point, r_boundary * (1.0 - 1e-9))
        assert just_below.regime is Regime.INTERIOR
        assert abs(just_below.optimal_price - stats.fair_price) <= 1e-6

    def test_pricing_consistency_both_regimes(self, two_point):
        for r in (0.05, 1.2):
            solution = optimal_price(two_point, r)
            recomputed = optimal_proportion(two_point, solution.optimal_price)
            assert abs(recomputed.growth - math.exp(r)) <= 1e-8 * math.exp(r)

    def test_nonpositive_rate_rejected(self, two_point):
        for r in (0.0, -0.05):
            with pytest.raises(DomainError):
                optimal_price(two_point, r)

    @pytest.mark.parametrize("r", (250.0, 270.0, 290.0))
    def test_full_investment_price_below_the_normal_floats_is_refused(self, r):
        # The fixture at scale 1e-200 has log_moment -459.04, so these prices
        # are 1.2e-308 (subnormal), 2.4e-317, where growth_check was 6e-8 off
        # exp(r), and 0.0, where it was inf.
        game = Game.from_pairs([(1e-200, 0.5), (19e-200, 0.5)])
        with pytest.raises(DomainError, match="underflows the smallest normal float"):
            optimal_price(game, r)
        with pytest.raises(DomainError, match="underflows the smallest normal float"):
            price_translated(game, r, 0.0)

    @pytest.mark.parametrize("max_iter", (200, 3))
    def test_fair_price_within_the_margins_of_the_expectation_is_refused(
        self, max_iter
    ):
        # fair_price * (1 + 1e-12) exceeds expectation * (1 - 1e-12) here; the
        # inverted bracket gave an INTERIOR price, with proportion 9.31 and
        # growth_check 0.99999999998597 at max_iter 3.
        game = Game.from_pairs([(7.0119e-19, 1e-9), (7.1073e-19, 1 - 1e-9)])
        stats = compute_stats(game)
        with pytest.raises(DomainError, match="no pricing bracket") as excinfo:
            optimal_price(game, 5e-14, max_iter=max_iter)
        assert repr(stats.fair_price) in str(excinfo.value)
        assert repr(stats.expectation) in str(excinfo.value)

    def test_smallest_normal_full_investment_price_is_exact(self):
        game = Game.from_pairs([(1e-200, 0.5), (19e-200, 0.5)])
        solution = optimal_price(game, 249.0)
        assert solution.regime is Regime.FULL_INVESTMENT
        assert 2.2250738585072014e-308 < solution.optimal_price < 4e-308
        assert math.isclose(solution.growth_check, math.exp(249.0), rel_tol=1e-15)

    @pytest.mark.parametrize("k", [2, 64], ids=["narrow", "wide"])
    def test_threads_pricing_one_game_at_two_rates_get_fresh_results(
        self, two_point, k
    ):
        # the game keeps one price at a time, and a wide game its arrays; a
        # thread must never be handed the other rate's result, nor a value
        # another thread half stored
        def solve(game, r):
            return repr(
                (
                    optimal_price(game, r),
                    threshold_shift(game, r),
                    compute_stats(translate(game, 1.0)),
                )
            )

        game = two_point if k == 2 else random_game(np.random.default_rng(6364), k, k)
        rates = (0.05, 0.3)
        expected = {r: solve(Game(*game), r) for r in rates}
        wrong, finished = [], []

        def price_in_turn(first: int) -> None:
            for i in range(40 if k == 2 else 10):
                r = rates[(first + i) % 2]
                got = solve(game, r)
                if got != expected[r]:
                    wrong.append((r, got))
            finished.append(first)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=price_in_turn, args=(k,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == [0, 1, 2, 3]
        assert wrong == []


class TestMonotonicity:
    def test_root_and_growth_strictly_decreasing_in_price(self):
        rng = np.random.default_rng(202)
        for _ in range(5):
            game = random_game(rng)
            stats = compute_stats(game)
            span = stats.expectation - stats.lower_price_bound
            prices = [stats.lower_price_bound + (i / 31.0) * span for i in range(1, 31)]
            solutions = [pre_optimal_proportion(game, u) for u in prices]
            proportions = [s.proportion for s in solutions]
            growths = [s.growth for s in solutions]
            assert all(b < a for a, b in zip(proportions, proportions[1:]))
            assert all(b < a for a, b in zip(growths, growths[1:]))


class TestClosedFormAgreement:
    def test_random_two_point_games(self):
        rng = np.random.default_rng(303)
        for _ in range(200):
            tp = random_two_point(rng)
            u = tp.low + float(rng.uniform(0.05, 0.95)) * (tp.expectation - tp.low)
            solution = pre_optimal_proportion(tp.to_game(), u)
            t_cf, g_cf = two_point_closed_form(tp, u)
            assert abs(solution.proportion - t_cf) <= 1e-9 * t_cf
            assert abs(solution.growth - g_cf) <= 1e-9 * g_cf


# Arguments no solve can honour: no evaluation at all, or a tolerance that
# every residual meets (inf, and NaN through max) or none can (below 0).
_UNHONOURABLE = (
    {"max_iter": 0},
    {"max_iter": -3},
    {"tol": math.inf},
    {"tol": math.nan},
    {"tol": -1e-12},
)
_UNHONOURABLE_IDS = ("max_iter_0", "max_iter_negative", "tol_inf", "tol_nan", "tol_negative")


class TestBisect:
    """Each way out of the one bisection routine behind every solver."""

    def test_tolerance_stop(self):
        # Width and residual must both be within tol: a shallow line stops on
        # the bracket width (2**-22 <= 1e-6 * hi), a steep one needs 6 more
        # halvings to bring its residual under tol.
        for slope, evaluations in ((1e-3, 22), (1e3, 28)):
            x, res, count = _bisect(lambda x: slope * (0.3 - x), 0.0, 1.0, 1e-6, 200)
            assert count == evaluations
            assert abs(res) <= 1e-6
            assert abs(x - 0.3) <= 1e-6
            assert res == slope * (0.3 - x)

    def test_unsplittable_bracket_stop(self):
        # tol=0 never meets the width test, so only adjacent floats end it
        x, res, count = _bisect(lambda x: 0.3 - x, 0.0, 1.0, 0.0, 10_000)
        assert count == 54
        assert x == 0.3 and res == 0.0

    def test_max_iter_stop(self):
        x, res, count = _bisect(lambda x: 0.3 - x, 0.0, 1.0, 1e-6, 3)
        assert count == 3
        assert (x, res) == (0.375, 0.3 - 0.375)  # midpoints 0.5, 0.25, 0.375

    def test_certificates_skip_midpoints_but_not_steps(self):
        # f(0.29) > 0 and f(0.31) <= 0 settle the first five midpoints (0.5,
        # 0.25, 0.375, 0.3125, 0.28125) unevaluated; the rest, and the count
        # of steps, are those of the plain search.
        seen = []

        def f(x):
            seen.append(x)
            return 0.3 - x

        plain = _bisect(f, 0.0, 1.0, 1e-6, 200)
        assert len(seen) == plain[2] == 22
        seen.clear()
        assert _bisect(f, 0.0, 1.0, 1e-6, 200, pos=0.29, neg=0.31) == plain
        assert len(seen) == plain[2] - 5
        assert all(0.29 < x < 0.31 for x in seen)

    def test_certified_search_evaluates_where_it_stops(self):
        # Every midpoint is certified, yet the residual returned is f's at
        # the last one: the width test and the result need it.
        seen = []

        def f(x):
            seen.append(x)
            return 0.3 - x

        assert _bisect(f, 0.0, 1.0, 1e-6, 3, pos=0.4, neg=0.41) == (
            0.375, 0.3 - 0.375, 3
        )
        assert seen == [0.375]
        seen.clear()
        x, res, steps = _bisect(f, 0.0, 1.0, 0.1, 200, pos=0.29, neg=0.31)
        assert (x, steps) == (0.28125, 5) and seen == [0.28125]

    def test_floor_one_measures_width_absolutely_below_one(self):
        # n0 is about 0.12, so the width test against max(1, hi) stops three
        # halvings before the one against hi; threshold_shift searches the
        # same bracket, [0, 10 * expectation], with floor 1.
        game = Game.from_pairs([(1.0, 0.5), (2.0, 0.5)])
        target = math.exp(0.05)

        def excess(n):
            return boundary_growth(game, n) - target

        absolute = _bisect(excess, 0.0, 15.0, 1e-12, 200, floor=1.0)
        relative = _bisect(excess, 0.0, 15.0, 1e-12, 200)
        assert (absolute[2], relative[2]) == (44, 47)
        assert absolute[0] < 1.0 and abs(absolute[1]) <= 1e-12
        assert absolute[0] == threshold_shift(game, 0.05).n0

    @pytest.mark.parametrize("kwargs", _UNHONOURABLE, ids=_UNHONOURABLE_IDS)
    def test_unhonourable_arguments_refused_before_any_evaluation(self, kwargs):
        args = {"tol": 1e-6, "max_iter": 200, **kwargs}

        def never(x):
            raise AssertionError(f"evaluated at {x!r}")

        with pytest.raises(DomainError, match="^(max_iter|tol)="):
            _bisect(never, 0.0, 1.0, args["tol"], args["max_iter"])


def _residual(square: bool, band: float):
    """2 - x*x, which no float makes 0, or 0.3 - x, which is 0 exactly at
    the float 0.3, with Newton's step and a gap that the band sets as
    _log_newton's does, or 1e-14 x, the proportion's, where the band is 0."""

    def f(x, slope=False):
        res, derivative = (2.0 - x * x, -2.0 * x) if square else (0.3 - x, -1.0)
        gap = -4.0 * band / derivative if band else 1e-14 * x
        return (res, res / derivative, gap) if slope else res

    return f


def _flat_residual(x, slope=False):
    """0.25 - x below 0.25, 0 up to 0.3 and 0.3 - x above: weakly
    decreasing, with Newton's step on slope -1 and the proportion's gap."""
    res = 0.25 - x if x < 0.25 else min(0.0, 0.3 - x)
    return (res, -res, 1e-14 * x) if slope else res


class TestNewtonCertificates:
    """The one routine that certifies the proportion, the price and the
    threshold for _bisect."""

    @pytest.mark.parametrize("square", (True, False), ids=("2-x*x", "0.3-x"))
    @pytest.mark.parametrize("band", (0.0, 1e-9))
    @pytest.mark.parametrize("start", (math.nan, 0.05, 1.9))
    def test_certificates_clear_the_band_on_their_side_of_the_root(
        self, square, band, start
    ):
        f = _residual(square, band)
        pos, pos_res, neg, neg_res = _newton_certificates(f, 0.0, 2.0, start, band)
        assert f(pos) > band and f(neg) <= -band
        # each certificate comes with the residual there
        assert (pos_res, neg_res) == (f(pos), f(neg))
        # the root, compared exactly: sqrt(2) through squares, or 0.3
        if square:
            assert Fraction(pos) ** 2 < 2 < Fraction(neg) ** 2
        else:
            assert pos < 0.3 <= neg
        assert neg - pos <= 1e-13 + 10.0 * band

    def test_every_evaluation_asks_for_the_slope(self):
        seen = []

        def f(x, slope=False):
            seen.append(slope)
            return _residual(True, 0.0)(x, slope)

        _newton_certificates(f, 0.0, 2.0, 1.9, 0.0)
        assert seen and all(seen)

    @pytest.mark.parametrize("bias", (0.0, 1e-7, -1e-7))
    def test_a_steered_newton_certifies_with_f_alone(self, bias):
        # steer is 0.3 - x off by bias, as numpy's values may be off the exact
        # ones: Newton runs on it from 0.9 and certifies nothing, and the
        # probes from its root walk out until f certifies each side of 0.3
        f, seen = _residual(False, 1e-9), []

        def evaluated(x, slope=False):
            seen.append(x)
            return f(x, slope)

        def steer(x):
            res = 0.3 + bias - x
            return res, -res, 4e-9

        pos, pos_res, neg, neg_res = _newton_certificates(
            evaluated, 0.0, 2.0, 0.9, 1e-9, steer=steer
        )
        assert pos < 0.3 <= neg
        assert (pos_res, neg_res) == (f(pos), f(neg))
        assert 0.9 not in seen and len(seen) <= 4

    def test_no_newton_steps_leave_no_certificates(self, monkeypatch):
        monkeypatch.setattr(growthprice.solver, "_NEWTON_STEPS", 0)
        for square in (True, False):
            f = _residual(square, 0.0)
            pos, pos_res, neg, neg_res = _newton_certificates(f, 0.0, 2.0, 1.0, 0.0)
            assert (pos, neg) == (-math.inf, math.inf)
            assert math.isnan(pos_res) and math.isnan(neg_res)

    def test_a_side_left_uncertified_is_probed_outward(self):
        # Newton lands on 0.3, where the residual reads 0, as the first-order
        # sum does on a stretch near its root at prices close to the
        # expectation. Probes below it read 0 until one passes 0.25, at
        # 0.3 - 3e-15 * 16**11 = 0.247.
        pos, pos_res, neg, neg_res = _newton_certificates(
            _flat_residual, 0.0, 1.0, 0.9, 0.0
        )
        assert 0.24 < pos < 0.25 <= neg <= 0.3
        assert pos_res > 0.0 and neg_res == 0.0

    def test_a_zero_gap_probes_nothing(self):
        # a gap that underflows to 0 would probe Newton's root forever, as a
        # residual inside the band certifies nothing there
        calls = []

        def f(x, slope=False):
            calls.append(x)
            if len(calls) > 50:
                raise AssertionError("probed the same point over and over")
            return (0.0, 0.0, 0.0) if slope else 0.0

        pos, pos_res, neg, neg_res = _newton_certificates(f, 0.0, 1.0, 0.5, 1e-9)
        assert calls == [0.5]
        assert (pos, neg) == (-math.inf, math.inf)
        assert math.isnan(pos_res) and math.isnan(neg_res)

    def test_a_price_probe_inside_the_band_certifies_nothing(self):
        # At small rates a probe from the joint root can read a growth
        # residual of 0 or a few ulps, inside the band 3 eta exp(r), where
        # the lemma certifies nothing; each certificate must clear the band.
        game = random_game(np.random.default_rng(6), 2, 8)
        r = 1e-3 * math.log(compute_stats(game).boundary_growth)
        band, certify = growthprice.solver._price_band, _newton_certificates
        etas, residuals, certificates = [], [], []

        def spy_band(*args):
            etas.append(band(*args))
            return etas[-1]

        def spy_certify(f, *args):
            if f.__name__ != "excess_growth":  # an inner proportion solve
                return certify(f, *args)

            def evaluation(x, slope=False):
                out = f(x, slope=slope)
                residuals.append(out[0])
                return out

            certificates.append(certify(evaluation, *args))
            return certificates[-1]

        with patch.object(growthprice.solver, "_price_band", spy_band):
            with patch.object(growthprice.solver, "_newton_certificates", spy_certify):
                optimal_price(game, r)
        (eta,), ((_, pos_res, _, neg_res),) = etas, certificates
        band = 3.0 * eta * math.exp(r)
        assert any(abs(res) <= band for res in residuals)
        assert pos_res > band and neg_res <= -band

    @pytest.mark.parametrize("slope", (0.0, 1.0, math.nan))
    def test_log_newton_takes_no_step_where_the_slope_is_not_negative(self, slope):
        assert _log_newton(0.25, slope, 2.0, 1e-9) == (0.25, 0.0, math.inf)


class TestReplayFreeProportion:
    """A proportion solve without replay returns a certificate that meets the
    tolerance rule's two tests, or falls back to the replayed bisection."""

    @staticmethod
    def _solve(scale, replay):
        # scale (0.5 - t*t), whose root sqrt(0.5) is no float: its nearest
        # floats read about 1.6e-16 scale
        def first_order_sum(u, t, slope=False):
            s = scale * (0.5 - t * t)
            return (s, -2.0 * scale * t) if slope else s

        return first_order_sum, _solve_proportion(
            first_order_sum, 0.0, 1.0, 1e-12, 200, 0.9, replay=replay
        )

    def test_a_close_certificate_is_returned_unreplayed(self):
        f, (t, res, steps) = self._solve(1.0, replay=False)
        _, (replayed, _, _) = self._solve(1.0, replay=True)
        assert steps == 0 and res == f(1.0, t) and abs(res) <= 1e-12
        # the certificate is within tol t of the bisection's root
        assert abs(t - replayed) <= 1e-12 * t

    def test_a_steep_residual_is_replayed(self):
        # both certificates enclose the root within an ulp, but read more
        # than tol
        _, free = self._solve(1e6, replay=False)
        _, replayed = self._solve(1e6, replay=True)
        assert free == replayed and free[2] > 0

    def test_wide_certificates_are_replayed(self):
        # 0 reads within tol up to 0.3, but the certificates enclose a
        # sign change on [0.25, 0.3]
        def first_order_sum(u, t, slope=False):
            res, _, _ = _flat_residual(t, True)
            return (res, -1.0) if slope else res

        free = _solve_proportion(first_order_sum, 0.0, 1.0, 1e-12, 200, 0.9, replay=False)
        replayed = _solve_proportion(first_order_sum, 0.0, 1.0, 1e-12, 200, 0.9)
        assert free == replayed and free[2] > 0


class TestSolverArguments:
    """Every solver refuses what _bisect cannot honour, in either regime."""

    @pytest.mark.parametrize("kwargs", _UNHONOURABLE, ids=_UNHONOURABLE_IDS)
    @pytest.mark.parametrize(
        "solve",
        (
            lambda g, **kw: pre_optimal_proportion(g, 5.5, **kw),
            lambda g, **kw: optimal_proportion(g, 5.5, **kw),
            lambda g, **kw: optimal_proportion(g, 1.5, **kw),
            lambda g, **kw: optimal_price(g, 0.05, **kw),
            lambda g, **kw: optimal_price(g, 1.0, **kw),
            lambda g, **kw: threshold_shift(g, 0.05, **kw),
            lambda g, **kw: threshold_shift(g, 1.0, **kw),
            lambda g, **kw: price_translated(g, 0.05, 10.0, **kw),
            lambda g, **kw: check_invariance(g, 5.5, 1.0, **kw),
            lambda g, **kw: asymptotic_sweep(g, 0.05, [1.0, 2.0], **kw),
            lambda g, **kw: verify(g, **kw),
        ),
        ids=(
            "pre_optimal_proportion",
            "optimal_proportion_interior",
            "optimal_proportion_full_investment",
            "optimal_price_interior",
            "optimal_price_full_investment",
            "threshold_shift_found",
            "threshold_shift_already_full_investment",
            "price_translated",
            "check_invariance",
            "asymptotic_sweep",
            "verify",
        ),
    )
    def test_unhonourable_arguments_refused(self, two_point, solve, kwargs):
        with pytest.raises(DomainError, match="^(max_iter|tol)="):
            solve(two_point, **kwargs)


# repr of pre_optimal_proportion at the middle of the admissible interval,
# optimal_price, threshold_shift and price_translated (or the error it
# raises) at rate 0.05, at default settings and with max_iter=3. Recorded
# while each solver still had its own bisection loop.
_PINNED = {
    ("two_point", 200): (
        "ProportionSolution(price=5.5, proportion=0.4074074074072743, growth=1.1547005383792515, residual=2.0050627824730327e-13, iterations=42)",
        "PricingSolution(rate=0.05, optimal_price=7.223641028419516, regime=<Regime.INTERIOR: 'interior'>, proportion=0.27363787124918415, growth_check=1.051271096375939)",
        "ThresholdResult(rate=0.05, n0=19.174901671237876, residual=2.4646951146678475e-14, regime_note=<ThresholdStatus.FOUND: 'found'>)",
        "PricingSolution(rate=0.05, optimal_price=17.22364102841903, regime=<Regime.INTERIOR: 'interior'>, proportion=0.6524466605739185, growth_check=1.0512710963759584)",
    ),
    ("two_point", 3): (
        "ProportionSolution(price=5.5, proportion=0.4583333333332875, growth=1.1524430571616149, residual=-0.07700534759351318, iterations=3)",
        "PricingSolution(rate=0.05, optimal_price=6.9624999999944635, regime=<Regime.INTERIOR: 'interior'>, proportion=0.4378930817610209, growth_check=1.0479371020304589)",
        "ThresholdResult(rate=0.05, n0=12.5, residual=0.03981835480393747, regime_note=<ThresholdStatus.FOUND: 'found'>)",
        "InternalConsistencyError('shifted optimal price 16.456250000011458 disagrees with original-plus-shift 16.962499999994463 beyond relative 1e-09; the solves stopped before tolerance: growth residuals 0.027534204077700908 shifted, -0.00333399434556525 original, max_iter=3')",
    ),
    ("three_point", 200): (
        "ProportionSolution(price=3.75, proportion=1.1754768681361116, growth=1.2756338022004632, residual=3.704328510600874e-13, iterations=41)",
        "PricingSolution(rate=0.05, optimal_price=4.675054287805958, regime=<Regime.INTERIOR: 'interior'>, proportion=0.5744638711166773, growth_check=1.0512710963763687)",
        "ThresholdResult(rate=0.05, n0=3.463062873035767, residual=1.7763568394002505e-15, regime_note=<ThresholdStatus.FOUND: 'found'>)",
        "PricingSolution(rate=0.05, optimal_price=5.675054287809462, regime=<Regime.INTERIOR: 'interior'>, proportion=0.6973424166351295, growth_check=1.0512710963759162)",
    ),
    ("three_point", 3): (
        "ProportionSolution(price=3.75, proportion=1.3392857142855803, growth=1.268553569722386, residual=-0.07075146300811176, iterations=3)",
        "PricingSolution(rate=0.05, optimal_price=4.562500000000438, regime=<Regime.INTERIOR: 'interior'>, proportion=0.6676829268291515, growth_check=1.0669147152062968)",
        "ThresholdResult(rate=0.05, n0=6.875, residual=0.026504354703867694, regime_note=<ThresholdStatus.FOUND: 'found'>)",
        "InternalConsistencyError('shifted optimal price 5.746323529412637 disagrees with original-plus-shift 5.562500000000438 beyond relative 1e-09; the solves stopped before tolerance: growth residuals -0.011050329224636002 shifted, 0.015643618830272654 original, max_iter=3')",
    ),
    ("eight_outcomes", 200): (
        "ProportionSolution(price=11.463852434241835, proportion=0.21076428748056775, growth=1.0777420698178677, residual=-8.855416400166405e-14, iterations=43)",
        "PricingSolution(rate=0.05, optimal_price=13.031072481848069, regime=<Regime.INTERIOR: 'interior'>, proportion=0.17700566342359958, growth_check=1.0512710963760539)",
        "ThresholdResult(rate=0.05, n0=60.58845036167429, residual=3.708144902248023e-14, regime_note=<ThresholdStatus.FOUND: 'found'>)",
        "PricingSolution(rate=0.05, optimal_price=14.031072481844166, regime=<Regime.INTERIOR: 'interior'>, proportion=0.19058901687898644, growth_check=1.0512710963761096)",
    ),
    ("eight_outcomes", 3): (
        "ProportionSolution(price=11.463852434241835, proportion=0.13569994646297562, growth=1.0699137519287025, residual=0.20413516445253482, iterations=3)",
        "PricingSolution(rate=0.05, optimal_price=14.563475639503519, regime=<Regime.INTERIOR: 'interior'>, proportion=0.13327191615502057, growth_check=1.032374652268442)",
        "ThresholdResult(rate=0.05, n0=82.58917358936392, residual=0.017141779843608873, regime_note=<ThresholdStatus.FOUND: 'found'>)",
        "InternalConsistencyError('shifted optimal price 15.76987834044682 disagrees with original-plus-shift 15.563475639503519 beyond relative 1e-09; the solves stopped before tolerance: growth residuals -0.02087530111999225 shifted, -0.018896444107582067 original, max_iter=3')",
    ),
    ("wide", 200): (
        "ProportionSolution(price=8.47159726988341, proportion=0.25479258525637927, growth=1.0949075487996307, residual=-2.0093460586807083e-13, iterations=42)",
        "PricingSolution(rate=0.05, optimal_price=10.161543037127668, regime=<Regime.INTERIOR: 'interior'>, proportion=0.1920533125423234, growth_check=1.0512710963759326)",
        "ThresholdResult(rate=0.05, n0=42.74846878506264, residual=4.729550084903167e-14, regime_note=<ThresholdStatus.FOUND: 'found'>)",
        "PricingSolution(rate=0.05, optimal_price=20.16154303711361, regime=<Regime.INTERIOR: 'interior'>, proportion=0.38105345931315127, growth_check=1.051271096376212)",
    ),
    ("wide", 3): (
        "ProportionSolution(price=8.47159726988341, proportion=0.37972590345636387, growth=1.0799457690441885, residual=-0.21522162672558748, iterations=3)",
        "PricingSolution(rate=0.05, optimal_price=10.799040241671246, regime=<Regime.INTERIOR: 'interior'>, proportion=0.12623243987138572, growth_check=1.0375737763996098)",
        "ThresholdResult(rate=0.05, n0=63.14160271626334, residual=0.019980707970233214, regime_note=<ThresholdStatus.FOUND: 'found'>)",
        "InternalConsistencyError('shifted optimal price 20.026962637009 disagrees with original-plus-shift 20.799040241671246 beyond relative 1e-09; the solves stopped before tolerance: growth residuals -0.0028312368890797135 shifted, -0.013697319976414324 original, max_iter=3')",
    ),
    ("n0_below_one", 200): (
        "ProportionSolution(price=1.25, proportion=1.6666666666661212, growth=1.1547005383792517, residual=4.907185768843192e-14, iterations=42)",
        "PricingSolution(rate=0.05, optimal_price=1.3457578349115467, regime=<Regime.INTERIOR: 'interior'>, proportion=0.9176128131042266, growth_check=1.0512710963764043)",
        "ThresholdResult(rate=0.05, n0=0.1208278706255328, residual=5.773159728050814e-14, regime_note=<ThresholdStatus.FOUND: 'found'>)",
        "PricingSolution(rate=0.05, optimal_price=1.395757834911959, regime=<Regime.INTERIOR: 'interior'>, proportion=0.95170560414089, growth_check=1.0512710963761085)",
    ),
    ("n0_below_one", 3): (
        "ProportionSolution(price=1.25, proportion=1.8749999999998126, growth=1.1524430571616149, residual=-0.01882352941174764, iterations=3)",
        "PricingSolution(rate=0.05, optimal_price=1.3541666666676457, regime=<Regime.INTERIOR: 'interior'>, proportion=0.47794117646956474, growth_check=1.0365560908175238)",
        "ThresholdResult(rate=0.05, n0=1.875, residual=0.04011314990728754, regime_note=<ThresholdStatus.FOUND: 'found'>)",
        "InternalConsistencyError('shifted optimal price 1.4088709677429572 disagrees with original-plus-shift 1.4041666666676458 beyond relative 1e-09; the solves stopped before tolerance: growth residuals -0.016669588114024414 shifted, -0.01471500555850036 original, max_iter=3')",
    ),
}

_PINNED_SHIFTS = {
    "two_point": 10.0,
    "three_point": 1.0,
    "eight_outcomes": 1.0,
    "wide": 10.0,
    "n0_below_one": 0.05,
}


def _solve_reprs(game: Game, n: float, max_iter: int) -> tuple[str, ...]:
    stats = compute_stats(game)
    u = stats.lower_price_bound + 0.5 * (stats.expectation - stats.lower_price_bound)
    calls = (
        partial(pre_optimal_proportion, game, u),
        partial(optimal_price, game, 0.05),
        partial(threshold_shift, game, 0.05),
        partial(price_translated, game, 0.05, n),
    )
    out = []
    for call in calls:
        try:
            out.append(repr(call(max_iter=max_iter)))
        except InternalConsistencyError as exc:
            out.append(repr(exc))
    return tuple(out)


@contextmanager
def _counting():
    """A Counter of first-order evaluations, on either kernel, of exact log
    growth evaluations and of boundary_growth calls, made inside the with
    block."""
    counts = Counter()
    kernel = growthprice.solver._first_order_kernel
    growth = growthprice.translation.boundary_growth
    log_growth = growthprice.solver._log_growth

    def counted_kernel(game):
        evaluate = kernel(game)

        def counted(*args, **kwargs):
            counts["first_order"] += 1
            return evaluate(*args, **kwargs)

        return counted

    def counted_growth(game, n):
        counts["boundary_growth"] += 1
        return growth(game, n)

    def counted_log_growth(outcomes, u, t):
        counts["log_growth"] += 1
        return log_growth(outcomes, u, t)

    with patch.object(growthprice.solver, "_first_order_kernel", counted_kernel):
        with patch.object(growthprice.translation, "boundary_growth", counted_growth):
            with patch.object(growthprice.solver, "_log_growth", counted_log_growth):
                yield counts


# The exact evaluations that numpy's steering values save on a wide game
_EXACT = ("boundary_growth", "log_growth")


def _no_more_exact(on_numpy: Counter, looped: Counter) -> bool:
    return all(on_numpy[name] <= looped[name] for name in _EXACT)


def _wide_game(pairs) -> Game:
    total = math.fsum(weight for _, weight in pairs)
    return Game.from_pairs((0.1 * a, weight / total) for a, weight in pairs)


# 40-256 outcomes, the width drawn first so that every width is as likely,
# payouts on a 0.1 grid in [0.1, 1000] with integer weights
wide_games = st.integers(40, 256).flatmap(
    lambda k: st.lists(
        st.tuples(st.integers(1, 10_000), st.integers(1, 20)),
        min_size=k,
        max_size=k,
        unique_by=lambda pair: pair[0],
    ).map(_wide_game)
)


def _counted_solves(game: Game, r: float) -> tuple[list[str], list[Counter]]:
    """Each solve's repr, or its error's, and the running counts after it."""
    reprs, running = [], []
    with _counting() as counts:
        for solve in (optimal_price, threshold_shift, partial(price_translated, n=3.0)):
            try:
                reprs.append(repr(solve(game, r)))
            except GrowthPriceError as exc:
                reprs.append(repr(exc))
            running.append(counts.copy())
    return reprs, running


# a price inside the admissible interval of the game in the child below
_PROPORTION_SOLVES = [
    "stats = compute_stats(game)",
    "u = 0.5 * (stats.lower_price_bound + stats.expectation)",
    "pre_optimal_proportion(game, u)",
    "check_invariance(game, u, 10.0)",
    "assert all(check.passed for check in verify(game))",
]


class TestFirstOrderKernels:
    """The numpy kernel for wide games must return the loop's first-order sum
    exactly, and every solve the loop's result."""

    def test_vector_kernel_equals_loop(self):
        rng = np.random.default_rng(404)
        first = growthprice.solver._VECTOR_MIN_OUTCOMES
        for k in (first, first + 1, 64, 255, 256, 512):
            game = random_game(rng, k, k)
            stats = compute_stats(game)
            kernel = _first_order_kernel(game)
            assert kernel.func is _array_first_order_sum
            for _ in range(20):
                u = admissible_price(stats, rng)
                cap = u / (u - stats.ess_inf)
                inside = cap * (1.0 - 1e-13)
                for t in (0.0, float(rng.uniform(0.0, cap)), inside, cap, 2.0 * cap):
                    assert kernel(u, t) == _first_order_sum(game.outcomes, u, t)
                    # the derivative only steers: numpy's sum of the loop's
                    # terms, all of one sign, within 2k eps of the loop's sum
                    total, slope = kernel(u, t, slope=True)
                    looped = _first_order_sum(game._pairs, u, t, slope=True)
                    assert total == looped[0]
                    assert math.isclose(slope, looped[1], rel_tol=k * 2.0**-52)
                assert kernel(u, 2.0 * cap) == -math.inf
                assert math.isfinite(kernel(u, inside))

    def test_solves_agree_on_both_kernels(self, monkeypatch):
        # Wide games steer Newton with numpy's logs and sums, so Newton may
        # take another path, but every result keeps its bits, and the steering
        # saves exact evaluations: the log growth and the boundary growth.
        game = random_game(np.random.default_rng(256), 256, 256)
        xi = compute_stats(game).ess_inf
        log_b0 = math.log(compute_stats(game).boundary_growth)
        rates = [0.05, 1e-4 * log_b0, 0.5 * log_b0, 0.99 * log_b0]
        n0s = [threshold_shift(game, r).n0 for r in rates]

        def solve_all(game):
            results = [asymptotic_sweep(game, 0.05, [0.0, 10.0, 1e3])]
            for r, n0 in zip(rates, n0s):
                # the price leaves the arrays that the thresholds steer with
                results += [
                    optimal_price(game, r),
                    threshold_shift(game, r),
                    threshold_shift(game, r, tol=1e-6),
                    threshold_shift(game, r, max_iter=17),
                ]
                for n in (-0.5 * xi, 0.5 * n0, 2.0 * n0):
                    results.append(price_translated(game, r, n))
            return repr(results)

        with _counting() as vector_counts:
            vector = solve_all(game)
        assert "_vector" in vars(game)
        monkeypatch.setattr(growthprice.solver, "_VECTOR_MIN_OUTCOMES", 10**9)
        assert _first_order_kernel(game).func is _first_order_sum
        # a fresh game, since game keeps the price the numpy kernel found
        fresh = Game(*game)
        with _counting() as loop_counts:
            assert solve_all(fresh) == vector
        assert "_vector" not in vars(fresh)
        assert _no_more_exact(vector_counts, loop_counts), (vector_counts, loop_counts)
        assert vector_counts["first_order"] and vector_counts["boundary_growth"]

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        game=wide_games,
        share=st.floats(0.01, 0.99),
    )
    def test_kernels_agree_on_wide_games(self, game, share):
        log_b0 = math.log(compute_stats(game).boundary_growth)
        for r in (share * log_b0, 1e-4 * log_b0, 1e-6 * log_b0):
            # fresh games, since each keeps the price it found
            vector = Game(*game)
            on_numpy, numpy_counts = _counted_solves(vector, r)
            assert "_vector" in vars(vector)
            with patch.object(growthprice.solver, "_VECTOR_MIN_OUTCOMES", 10**9):
                looped, loop_counts = _counted_solves(Game(*game), r)
            assert looped == on_numpy, r
            for pair in zip(numpy_counts, loop_counts):
                assert _no_more_exact(*pair), (r, pair)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        game=wide_games,
        scale=st.sampled_from((1e-200, 1.0, 1e200)),
        fraction=st.floats(1e-8, 1.5),
    )
    def test_wide_games_steer_without_warnings_to_the_blocked_results(
        self, game, scale, fraction
    ):
        # numpy's values only steer: at every payout scale and rate, with
        # every numpy warning an error, each price, threshold and shifted
        # price is the one that a process without numpy returns
        game = Game.from_pairs((scale * a, w) for a, w in game.outcomes)
        stats = compute_stats(game)
        r = fraction * math.log(stats.boundary_growth)
        shifts = (-0.5 * stats.ess_inf, 0.5 * stats.expectation)

        def solve_all(game: Game) -> list[str]:
            solves = [optimal_price, threshold_shift]
            solves += [partial(price_translated, n=n) for n in shifts]
            return [_verdict(lambda: solve(game, r)) for solve in solves]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            on_numpy = solve_all(Game(*game))
        with patch.object(growthprice.solver, "_import_numpy", lambda: None):
            assert solve_all(Game(*game)) == on_numpy

    def test_single_evaluations_leave_numpy_unimported(self):
        # optimal_proportion at or below the fair price and proportion_residual
        # evaluate one first-order sum, which the loop does without numpy
        child = (
            "import sys\n"
            "from growthprice import Game, compute_stats, optimal_proportion,"
            " proportion_residual\n"
            "game = Game.from_pairs((1.0 + i, 1.0 / 32) for i in range(32))\n"
            "stats = compute_stats(game)\n"
            "assert optimal_proportion(game, stats.fair_price).proportion == 1.0\n"
            "assert optimal_proportion(game, 0.5 * stats.fair_price).iterations == 0\n"
            "proportion_residual(game, stats.fair_price, 0.5)\n"
            "assert 'numpy' not in sys.modules\n"
        )
        src = str(Path(growthprice.solver.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()

    @pytest.mark.parametrize(
        "k, solves",
        [
            # below 40 outcomes a game keeps no arrays, and every solve and
            # shift runs on plain floats
            (32, ["optimal_price(game, 0.05)", "price_translated(game, 0.05, 1.0)"]),
            # threshold_shift uses the arrays a wide game keeps, and builds none
            (40, []),
            # only a price solve builds them: a proportion solve, and the
            # invariance check and verify that run on it, take the loop
            (64, _PROPORTION_SOLVES),
            (256, _PROPORTION_SOLVES),
        ],
        ids=["narrow", "wide_threshold", "wide_proportion_64", "wide_proportion_256"],
    )
    def test_shifts_and_narrow_solves_leave_numpy_unimported(self, k, solves):
        child = "\n".join(
            [
                "import sys",
                "from growthprice import Game, boundary_growth, check_invariance,"
                " compute_stats, optimal_price, pre_optimal_proportion,"
                " price_translated, threshold_shift, translate, verify",
                f"game = Game.from_pairs((1.0 + i, 1.0 / {k}) for i in range({k}))",
                "translate(game, 10.0)",
                "boundary_growth(game, 10.0)",
                "threshold_shift(game, 0.05)",
                *solves,
                "assert 'numpy' not in sys.modules",
                # nor looked up
                "import growthprice.solver",
                "assert growthprice.solver._import_numpy.cache_info().misses == 0",
            ]
        )
        src = str(Path(growthprice.solver.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_numpy_loads_on_one_blas_thread_unless_one_is_set(self, threads):
        # The wide kernel makes no BLAS call, so it loads numpy without
        # OpenBLAS's worker threads, and restores the environment after it.
        child = (
            "import os, sys\n"
            "from growthprice import Game, optimal_price\n"
            "game = Game.from_pairs((1.0 + i, 1.0 / 40) for i in range(40))\n"
            "before = dict(os.environ)\n"
            "optimal_price(game, 0.05)\n"
            "assert 'numpy' in sys.modules\n"
            "assert dict(os.environ) == before\n"
            "if sys.platform == 'linux' and 'OPENBLAS_NUM_THREADS' not in before:\n"
            "    assert len(os.listdir('/proc/self/task')) == 1\n"
        )
        src = str(Path(growthprice.solver.__file__).resolve().parents[1])
        env = {
            name: value
            for name, value in os.environ.items()
            if name not in growthprice.solver._BLAS_THREAD_VARS
        }
        env["PYTHONPATH"] = src
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()

    def test_wide_game_values_are_pinned(self, two_point, three_point):
        # 17-digit values of the bisection solvers before the numpy kernel
        # existed; any change to the arithmetic of either kernel moves them.
        game = random_game(np.random.default_rng(256), 256, 256)
        assert repr(optimal_price(game, 0.05).optimal_price) == "10.161543037127668"
        assert repr(threshold_shift(game, 0.05).n0) == "42.74846878506264"
        # The whole results, on narrow games too, and with max_iter hit.
        games = {
            "two_point": two_point,
            "three_point": three_point,
            "eight_outcomes": random_game(np.random.default_rng(8), 8, 8),
            "wide": game,
            "n0_below_one": Game.from_pairs([(1.0, 0.5), (2.0, 0.5)]),
        }
        for (name, max_iter), expected in _PINNED.items():
            got = _solve_reprs(games[name], _PINNED_SHIFTS[name], max_iter)
            assert got == expected, (name, max_iter)


def _verdict(call) -> str:
    """repr of what call returns, or the type and message of what it raises."""
    try:
        return repr(call())
    except GrowthPriceError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestKeptArrays:
    """boundary_growth, the relative spread and the threshold's moments read
    the arrays that a price solve kept on a wide game without a numpy
    warning: the boundary growth, which certifies, is the loop's float bit
    for bit, and the spread and moments, which steer, are numpy's sums of
    the loop's terms."""

    @staticmethod
    def _games(k: int, scale: float) -> tuple[Game, Game]:
        """A game of k outcomes at the payout scale that keeps the arrays, with
        its pairs taken away so that only the arrays can serve it, and the
        same game without them, which runs the loops."""
        drawn = random_game(np.random.default_rng(9000 + k), k, k)
        looped = Game.from_pairs((scale * a, w) for a, w in drawn.outcomes)
        kept = Game(*looped)
        compute_stats(kept)
        assert _first_order_kernel(kept).func is _array_first_order_sum
        vars(kept)["_pairs"] = None
        return kept, looped

    @pytest.mark.parametrize("scale", (1e-200, 1.0, 1e200))
    @pytest.mark.parametrize("k", (40, 64, 256))
    def test_the_array_sums_equal_the_loops(self, k, scale):
        kept, looped = self._games(k, scale)
        stats = compute_stats(looped)
        xi, top, mean = stats.ess_inf, looped.outcomes[-1].payout, stats.expectation
        prices = (xi, stats.fair_price, 0.5 * (stats.fair_price + mean), mean, top)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (0.0, -0.5 * xi, 0.25 * xi, 3.0 * top, 1e3 * top):
                assert _kept_boundary_growth(kept, n) is not None
                got = boundary_growth(kept, n)
                assert repr(got) == repr(boundary_growth(looped, n))
            for u in prices:
                spread, cubes = _relative_spread(kept, u, third=True)
                assert _relative_spread(kept, u) == spread
                loop_spread, loop_cubes = _relative_spread(looped, u, third=True)
                # each sum within k eps of its terms' absolute sum, and
                # sum p |x|**3 <= max |x| * sum p x**2
                bound = k * 2.0**-52 * loop_spread
                top = max(abs(a - u) / u for a in looped._columns[0])
                assert abs(spread - loop_spread) <= bound
                assert abs(cubes - loop_cubes) <= bound * top

    @pytest.mark.parametrize("scale", (1e-200, 1.0, 1e200))
    def test_a_shifted_game_keeps_its_parents_arrays_plus_the_shift(self, scale):
        kept, _ = self._games(256, scale)
        vars(kept).pop("_pairs")
        shifted = []

        def spy(game, n):
            shifted.append(translate(game, n))
            return shifted[-1]

        xi = compute_stats(kept).ess_inf
        for n in (-0.5 * xi, 10.0 * xi):
            with patch.object(growthprice.translation, "translate", spy):
                price_translated(kept, 0.05, n)
            payouts, weights = vars(shifted[-1])["_vector"]
            assert payouts.tolist() == list(shifted[-1]._columns[0])
            assert weights is vars(kept)["_vector"][1]
            # a parent that keeps no arrays yet gives its columns plus n
            fresh = Game(*kept)
            with patch.object(growthprice.translation, "translate", spy):
                price_translated(fresh, 0.05, n)
            payouts, _ = vars(shifted[-1])["_vector"]
            assert payouts.tolist() == list(shifted[-1]._columns[0])

    @pytest.mark.parametrize("scale", (1e-300, 1e-200, 1.0, 1e200, "top"))
    def test_merging_and_overflowing_shifts_take_the_loop(self, scale):
        # 1e15 ess_inf merges some payouts and 1e17 times the largest every
        # one, and so does the largest float, which no payout here outweighs.
        # At scale 1e-300 a shift just above -ess_inf leaves the smallest
        # payout below the normal floats. In the "top" game the largest
        # payout alone overflows under a shift of 1e308, and no payout
        # merges. Each gets the shifted game's verdict.
        if scale == "top":
            looped = Game.from_pairs(
                [(1e307 * (1.0 + i / 64), 1 / 64) for i in range(63)]
                + [(1.5e308, 1 / 64)]
            )
            kept = Game(*looped)
            assert _first_order_kernel(kept).func is _array_first_order_sum
            shifts = [1e308]
        else:
            kept, looped = self._games(256, scale)
            vars(kept)["_pairs"] = looped._pairs
            xi, top = compute_stats(looped).ess_inf, looped.outcomes[-1].payout
            shifts = [1e15 * xi, 1e17 * top, sys.float_info.max]
            if scale == 1e-300:
                shifts = [math.nextafter(-xi, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in shifts:
                assert _kept_boundary_growth(kept, n) is None
                got = _verdict(lambda: boundary_growth(kept, n))
                assert got == _verdict(lambda: boundary_growth(looped, n))
                # nor does translate offer such a game its parent's arrays
                assert "_shifted_from" not in vars(translate(kept, n))

    @pytest.mark.parametrize("largest", (False, True))
    def test_a_spread_that_overflows_is_inf_on_both(self, largest):
        # at 1e-160 of the largest payout every x = (a - u)/u squares past the
        # largest float, or with largest only the largest payout's x does, as
        # every other payout lies within 2 u; the arrays would warn there, so
        # the loop serves it
        if largest:
            looped = Game.from_pairs(
                [(1.0 + i / 64, 1 / 64) for i in range(63)] + [(1.5e160, 1 / 64)]
            )
            kept = Game(*looped)
            assert _first_order_kernel(kept).func is _array_first_order_sum
        else:
            kept, looped = self._games(64, 1e200)
            vars(kept)["_pairs"] = looped._pairs
        u = 1e-160 * looped.outcomes[-1].payout
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for third in (False, True):
                got = _relative_spread(kept, u, third)
                assert repr(got) == repr(_relative_spread(looped, u, third))
            assert got == (math.inf, math.inf)
