"""Properties over generated games: payout-scale equivariance of every solver
and one regime boundary shared by all of them."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from growthprice import (
    Game,
    Regime,
    boundary_growth,
    optimal_price,
    price_translated,
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
