"""Game model: validation, statistics, translation, spec round-trips."""

import json
import math
import sys

import pytest

from conftest import random_game
from growthprice import (
    DomainError,
    Game,
    GameValidationError,
    SpecParseError,
    compute_stats,
    game_from_nodes,
    load_spec,
    save_spec,
    translate,
    validate,
)

np = pytest.importorskip("numpy")


class TestValidate:
    def test_two_point_fixture_is_valid(self, two_point):
        verdict = validate(two_point)
        assert verdict.ok
        assert verdict.problems == ()

    def test_constant_profit_rejected(self):
        verdict = validate(Game.from_pairs([(5.0, 1.0)]))
        assert not verdict.ok
        assert any("constant" in p for p in verdict.problems)

    def test_nonpositive_payout_rejected(self):
        verdict = validate(Game.from_pairs([(-1.0, 0.5), (3.0, 0.5)]))
        assert not verdict.ok
        assert any("strictly positive" in p for p in verdict.problems)

    def test_weight_sum_off_rejected(self):
        verdict = validate(Game.from_pairs([(2.0, 0.4), (5.0, 0.5)]))
        assert not verdict.ok
        assert any("sum" in p for p in verdict.problems)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("share, ok", [(0.9, True), (1.1, False)])
    def test_weight_sum_tolerance_is_1e_12(self, sign, share, ok):
        # weights that miss 1 by 0.9e-12 validate, and by 1.1e-12 do not
        game = Game.from_pairs([(2.0, 0.5), (5.0, 0.5 + sign * share * 1e-12)])
        assert validate(game).ok is ok

    def test_negative_weight_rejected(self):
        verdict = validate(Game.from_pairs([(2.0, -0.5), (5.0, 1.5)]))
        assert not verdict.ok
        assert any("nonnegative" in p for p in verdict.problems)

    def test_nonfinite_payout_rejected(self):
        verdict = validate(Game.from_pairs([(math.inf, 0.5), (5.0, 0.5)]))
        assert not verdict.ok

    def test_payouts_below_the_normal_floats_rejected(self):
        # the smallest normal float passes; the subnormal just below it, and
        # the smallest subnormal, are each named in a problem of their own
        smallest = sys.float_info.min
        assert validate(Game.from_pairs([(smallest, 0.5), (5.0, 0.5)])).ok
        below = math.nextafter(smallest, 0.0)
        verdict = validate(Game.from_pairs([(5e-324, 0.25), (below, 0.25), (5.0, 0.5)]))
        assert verdict.problems == tuple(
            f"payout {a!r} is below the smallest normal float {smallest!r}"
            for a in (5e-324, below)
        )

    def test_a_shift_below_the_normal_floats_builds_an_invalid_game(self):
        # n > -ess_inf, but the smallest shifted payout is subnormal: translate
        # builds the game through Game, which refuses it as it would the
        # outcomes given directly
        game = Game.from_pairs([(1e-300, 0.5), (1.0, 0.5)])
        n = math.nextafter(-1e-300, 0.0)
        shifted = translate(game, n)
        assert "_stats" not in vars(shifted)
        with pytest.raises(GameValidationError, match="below the smallest normal"):
            compute_stats(shifted)

    def test_zero_weight_outcomes_dropped_before_validation(self):
        game = Game.from_pairs([(2.0, 0.5), (7.0, 0.0), (19.0, 0.5)])
        assert len(game.outcomes) == 2
        assert validate(game).ok

    def test_duplicate_payouts_merged(self):
        game = Game.from_pairs([(2.0, 0.25), (2.0, 0.25), (5.0, 0.5)])
        assert len(game.outcomes) == 2
        assert game.outcomes[0].weight == 0.5

    @pytest.mark.parametrize("bad", (-0.2, math.nan))
    def test_bad_weight_is_not_merged_away(self, bad):
        # 0.7 + (-0.2) would merge to a valid 0.5; the bad entry stays apart
        game = Game.from_pairs([(1.0, 0.7), (1.0, bad), (2.0, 0.5)])
        assert [(o.payout, o.weight) for o in game.outcomes][0] == (1.0, 0.7)
        assert len(game.outcomes) == 3
        assert f"weight {bad!r} for payout 1.0 must be a nonnegative finite number" in (
            validate(game).problems
        )


class TestComputeStats:
    def test_two_point_fixture_values(self, two_point):
        stats = compute_stats(two_point)
        assert stats.expectation == 10.0
        assert math.isclose(stats.harmonic_integral, 10.0 / 19.0, rel_tol=1e-15)
        assert stats.ess_inf == 1.0
        assert math.isinf(stats.h_xi)
        assert stats.lower_price_bound == 1.0
        assert math.isclose(stats.fair_price, 1.9, rel_tol=1e-15)
        assert math.isclose(stats.log_moment, 0.5 * math.log(19.0), rel_tol=1e-15)

    def test_three_point_hand_sums(self, three_point):
        # direct summation: E = .5 + 1 + 4, H = .125 + .0625 + .0625
        stats = compute_stats(three_point)
        assert math.isclose(stats.expectation, 5.5, rel_tol=1e-15)
        assert math.isclose(stats.harmonic_integral, 0.25, rel_tol=1e-15)
        assert stats.ess_inf == 2.0
        assert math.isinf(stats.h_xi)

    def test_invalid_game_rejected_with_verdict(self):
        with pytest.raises(GameValidationError) as excinfo:
            compute_stats(Game.from_pairs([(2.0, 1.0), (2.0, 0.0)]))
        assert any("constant" in p for p in excinfo.value.verdict.problems)

    def test_chain_inequality_on_random_games(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            stats = compute_stats(random_game(rng))
            assert stats.ess_inf <= stats.lower_price_bound
            assert stats.lower_price_bound < stats.fair_price < stats.expectation

    def test_smallest_payout_fixes_h_xi_and_the_lower_bound(self, three_point):
        rng = np.random.default_rng(43)
        for game in [three_point] + [random_game(rng) for _ in range(50)]:
            stats = compute_stats(game)
            assert stats.ess_inf == game.outcomes[0].payout
            assert stats.h_xi == math.inf
            assert stats.lower_price_bound == stats.ess_inf
        with pytest.raises(TypeError):
            compute_stats(three_point, ess_inf=1.5)


class TestTranslate:
    def test_identity_shift(self, two_point):
        assert translate(two_point, 0.0) == two_point

    def test_shift_99_payouts(self, two_point):
        shifted = translate(two_point, 99.0)
        assert [o.payout for o in shifted.outcomes] == [100.0, 118.0]
        assert [o.weight for o in shifted.outcomes] == [0.5, 0.5]
        assert compute_stats(shifted).expectation == 109.0

    def test_harmonic_integral_formula_under_shift(self, two_point):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = float(rng.uniform(-0.99, 200.0))
            stats = compute_stats(translate(two_point, n))
            expected = (n + 10.0) / ((n + 1.0) * (n + 19.0))
            assert math.isclose(stats.harmonic_integral, expected, rel_tol=1e-12)

    def test_composition_exact_on_dyadic_shifts(self, two_point):
        # float addition is exact for these shifts, so payouts must agree bitwise
        for n1, n2 in [(0.5, 2.0), (99.0, -0.25), (4.0, 8.0)]:
            once = translate(two_point, n1 + n2)
            twice = translate(translate(two_point, n1), n2)
            assert [o.payout for o in twice.outcomes] == [o.payout for o in once.outcomes]

    def test_expectation_additivity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            game = random_game(rng)
            stats = compute_stats(game)
            n = float(rng.uniform(-stats.ess_inf + 1e-3, 100.0))
            shifted_stats = compute_stats(translate(game, n))
            assert abs(shifted_stats.expectation - (stats.expectation + n)) <= 1e-12 * max(
                1.0, abs(stats.expectation + n)
            )

    def test_difference_to_lower_bound_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            game = random_game(rng)
            stats = compute_stats(game)
            n = float(rng.uniform(-stats.ess_inf + 1e-3, 100.0))
            shifted_stats = compute_stats(translate(game, n))
            original_gap = stats.expectation - stats.lower_price_bound
            shifted_gap = shifted_stats.expectation - shifted_stats.lower_price_bound
            assert abs(shifted_gap - original_gap) <= 1e-12 * max(1.0, original_gap)

    def test_log_moment_stays_finite_for_admissible_shifts(self):
        rng = np.random.default_rng(13)
        game = random_game(rng)
        xi = compute_stats(game).ess_inf
        for n in [-xi + 1e-3, 0.0, 1.0, 100.0, 1e6]:
            assert math.isfinite(compute_stats(translate(game, n)).log_moment)

    def test_fair_price_minus_shift_strictly_increasing(self, two_point):
        rng = np.random.default_rng(14)
        for game in [two_point, random_game(rng), random_game(rng)]:
            stats = compute_stats(game)
            grid = [-0.9 * stats.ess_inf] + [float(4**k) for k in range(7)]
            witness = [
                compute_stats(translate(game, n)).fair_price - n for n in grid
            ]
            assert all(b > a for a, b in zip(witness, witness[1:]))
            assert all(w < stats.expectation for w in witness)

    def test_inadmissible_shift_rejected(self, two_point):
        with pytest.raises(DomainError) as excinfo:
            translate(two_point, -1.0)
        assert "-1.0" in str(excinfo.value)


class TestSpecIO:
    def test_minimal_document(self):
        game = load_spec('{"outcomes": [{"payout": 1, "prob": 0.5}, {"payout": 19, "prob": 0.5}]}')
        assert len(game.outcomes) == 2
        assert game.label is None

    def test_round_trip_identity(self, two_point):
        assert load_spec(save_spec(two_point)) == two_point

    def test_round_trip_random_games(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            game = random_game(rng)
            assert load_spec(save_spec(game)) == game

    def test_unnormalized_weights_rejected(self):
        text = '{"outcomes": [{"payout": 2, "prob": 0.4}, {"payout": 5, "prob": 0.5}]}'
        with pytest.raises(GameValidationError):
            load_spec(text)

    def test_normalize_option_rescales(self):
        text = '{"outcomes": [{"payout": 2, "prob": 2}, {"payout": 5, "prob": 2}]}'
        game = load_spec(text, normalize=True)
        assert [o.weight for o in game.outcomes] == [0.5, 0.5]
        with pytest.raises(GameValidationError):
            load_spec(text)

    def test_cancelled_negative_probability_rejected(self):
        text = (
            '{"outcomes": [{"payout": 1.0, "prob": 0.7}, {"payout": 1.0, "prob": -0.2},'
            ' {"payout": 2.0, "prob": 0.5}]}'
        )
        with pytest.raises(GameValidationError) as excinfo:
            load_spec(text)
        assert "weight -0.2 for payout 1.0" in str(excinfo.value)

    @pytest.mark.parametrize("field", ("payout", "prob"))
    def test_integer_too_large_for_a_float_is_a_parse_error(self, field):
        entry = {"payout": 2, "prob": 0.5, field: 10**400}
        text = json.dumps({"outcomes": [{"payout": 1, "prob": 0.5}, entry]})
        with pytest.raises(SpecParseError) as excinfo:
            load_spec(text)
        assert f"outcomes[1].{field}" in str(excinfo.value)

    def test_integer_past_the_digit_limit_is_a_parse_error(self):
        text = '{"outcomes": [{"payout": 1%s, "prob": 1}]}' % ("0" * 5000)
        with pytest.raises(SpecParseError):
            load_spec(text)

    def test_malformed_json_reports_position(self):
        with pytest.raises(SpecParseError) as excinfo:
            load_spec('{"outcomes": [')
        assert "line" in str(excinfo.value) and "column" in str(excinfo.value)

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"outcomes": 5}',
            '{"outcomes": [42]}',
            '{"outcomes": [{"payout": "x", "prob": 1}]}',
            '{"outcomes": [{"payout": 2, "prob": true}]}',
            '{"label": 7, "outcomes": []}',
        ],
    )
    def test_structurally_bad_documents(self, text):
        with pytest.raises(SpecParseError):
            load_spec(text)


class TestGameFromNodes:
    def test_weights_normalized(self):
        game = game_from_nodes([1.0, 2.0, 4.0], [1.0, 2.0, 1.0])
        assert [o.weight for o in game.outcomes] == [0.25, 0.5, 0.25]

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            game_from_nodes([1.0, 2.0], [1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            game_from_nodes([1.0, 2.0], [1.0, -1.0])

    def test_zero_total_rejected(self):
        with pytest.raises(DomainError):
            game_from_nodes([1.0, 2.0], [0.0, 0.0])
