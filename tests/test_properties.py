"""Properties over generated games: payout-scale equivariance of every solver,
one regime boundary shared by all of them, additive prices below the threshold
shift and an exact spec round trip."""

import math
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growthprice.translation
from growthprice import (
    Game,
    InternalConsistencyError,
    Regime,
    boundary_growth,
    compute_stats,
    load_spec,
    optimal_price,
    price_translated,
    save_spec,
    threshold_shift,
)

SCALES = (1e-200, 1e-18, 1e-3, 1e6, 1e200)


def _game(pairs) -> Game:
    total = sum(weight for _, weight in pairs)
    return Game.from_pairs((0.1 * a, weight / total) for a, weight in pairs)


# 2-8 outcomes with payouts on a 0.1 grid in [0.1, 100] and integer weights,
# so adjacent payouts differ by at least 0.1% and scaling stays well posed.
games = st.lists(
    st.tuples(st.integers(1, 1000), st.integers(1, 20)),
    min_size=2,
    max_size=8,
    unique_by=lambda pair: pair[0],
).map(_game)


def _scaled(game: Game, c: float) -> Game:
    return Game.from_pairs((c * o.payout, o.weight) for o in game.outcomes)


def _solve(game: Game, r: float, n: float) -> tuple[float, float, float]:
    return (
        optimal_price(game, r).optimal_price,
        threshold_shift(game, r).n0,
        price_translated(game, r, n).optimal_price,
    )


@settings(derandomize=True, deadline=None, max_examples=15)
@given(game=games, fraction=st.floats(0.1, 0.9))
def test_solvers_are_equivariant_under_payout_scale(game, fraction):
    r = fraction * math.log(boundary_growth(game, 0.0))
    n0 = threshold_shift(game, r).n0
    expected = _solve(game, r, 0.5 * n0)
    for c in SCALES:
        got = _solve(_scaled(game, c), r, c * 0.5 * n0)
        for name, value, unscaled in zip(("price", "n0", "translated"), got, expected):
            assert math.isclose(value / c, unscaled, rel_tol=1e-9), (c, name)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(game=games)
def test_price_and_threshold_share_the_regime_boundary(game):
    r = math.log(boundary_growth(game, 0.0))
    rates = [r]
    for _ in range(2):
        rates = [math.nextafter(rates[0], 0.0), *rates, math.nextafter(rates[-1], math.inf)]
    for rate in rates:
        full = optimal_price(game, rate).regime is Regime.FULL_INVESTMENT
        n0 = threshold_shift(game, rate).n0
        assert full == (n0 is None or n0 == 0.0), (rate, n0)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(game=games, fraction=st.floats(0.1, 0.9))
def test_prices_shift_additively_at_every_shift_below_n0(game, fraction):
    r = fraction * math.log(boundary_growth(game, 0.0))
    n0 = threshold_shift(game, r).n0
    base = optimal_price(game, r).optimal_price
    low = -0.9 * compute_stats(game).ess_inf
    for k in range(10):
        n = low + k / 10 * (n0 - low)
        shifted = price_translated(game, r, n)
        assert shifted.regime is Regime.INTERIOR, n
        assert math.isclose(shifted.optimal_price, base + n, rel_tol=1e-9), n


@settings(derandomize=True, deadline=None, max_examples=15)
@given(game=games, fraction=st.floats(0.1, 0.9))
def test_shifted_price_is_continuous_across_n0(game, fraction):
    r = fraction * math.log(boundary_growth(game, 0.0))
    n0 = threshold_shift(game, r).n0
    below = price_translated(game, r, n0 * (1.0 - 1e-9))
    above = price_translated(game, r, n0 * (1.0 + 1e-9))
    assert below.regime is Regime.INTERIOR
    assert above.regime is Regime.FULL_INVESTMENT
    assert math.isclose(below.optimal_price, above.optimal_price, rel_tol=1e-8)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    pairs=st.lists(
        st.tuples(
            st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False),
            st.integers(1, 1000),
        ),
        min_size=2,
        max_size=8,
        unique_by=lambda pair: pair[0],
    ),
    label=st.none() | st.text(),
)
def test_spec_round_trip_is_exact(pairs, label):
    total = sum(weight for _, weight in pairs)
    game = Game.from_pairs(((a, w / total) for a, w in pairs), label=label)
    loaded = load_spec(save_spec(game))
    assert loaded == game
    assert [(o.payout, o.weight) for o in loaded.outcomes] == [
        (o.payout, o.weight) for o in game.outcomes
    ]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(game=games, fraction=st.floats(0.1, 1.5))
def test_additivity_is_checked_exactly_when_both_games_are_interior(game, fraction):
    # With the check tolerance below zero every additivity check fails, so
    # price_translated raises exactly when it compares the two prices.
    r = fraction * math.log(boundary_growth(game, 0.0))
    n0 = threshold_shift(game, r).n0
    xi = compute_stats(game).ess_inf
    shifts = [-0.9 * xi, -0.5 * xi]
    if n0 is not None:
        shifts += [math.nextafter(n0, -math.inf), n0, math.nextafter(n0, math.inf)]
    with patch.object(growthprice.translation, "TRANSLATION_CHECK_TOL", -1.0):
        for n in shifts:
            both_interior = math.exp(r) < min(
                boundary_growth(game, 0.0), boundary_growth(game, n)
            )
            if both_interior:
                with pytest.raises(InternalConsistencyError):
                    price_translated(game, r, n)
            else:
                price_translated(game, r, n)
