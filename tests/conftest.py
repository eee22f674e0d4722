"""Shared fixtures and random-game samplers for the test suite.

The samplers take a numpy Generator; this file itself imports no numpy, so
test files that use only the fixtures run where numpy is not installed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import pytest

from growthprice import Game, GameStats, TwoPointGame

if TYPE_CHECKING:
    import numpy as np


@pytest.fixture
def two_point() -> Game:
    """The worked two-outcome fixture: payout 1 or 19 with equal probability."""
    return Game.from_pairs([(1.0, 0.5), (19.0, 0.5)], label="two-point")


@pytest.fixture
def three_point() -> Game:
    return Game.from_pairs([(2.0, 0.25), (4.0, 0.25), (8.0, 0.5)])


def random_game(rng: np.random.Generator, min_outcomes: int = 3, max_outcomes: int = 8) -> Game:
    """Random game: 3-8 outcomes, payouts log-uniform in [0.1, 100], random weights."""
    k = int(rng.integers(min_outcomes, max_outcomes + 1))
    payouts = 10.0 ** rng.uniform(-1.0, 2.0, size=k)
    weights = rng.uniform(0.05, 1.0, size=k)
    weights = weights / weights.sum()
    return Game.from_pairs(zip(payouts.tolist(), weights.tolist()))


def random_two_point(rng: np.random.Generator) -> TwoPointGame:
    low = 10.0 ** rng.uniform(-1.0, 1.0)
    high = low * (1.0 + 10.0 ** rng.uniform(-0.5, 1.5))
    return TwoPointGame(high=high, low=low, p_high=float(rng.uniform(0.05, 0.95)))


def admissible_price(
    stats: GameStats,
    rng: np.random.Generator,
    lo_frac: float = 0.02,
    hi_frac: float = 0.98,
) -> float:
    """Price sampled inside (lower_price_bound, expectation) with margins."""
    s = float(rng.uniform(lo_frac, hi_frac))
    return stats.lower_price_bound + s * (stats.expectation - stats.lower_price_bound)
