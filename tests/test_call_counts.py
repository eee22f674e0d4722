"""Ceilings on the validation and game-building work of the solvers.

Counts repeat exactly from run to run, unlike wall times, so these are the
regression gates for per-call overhead.
"""

import sys
from collections import Counter

import pytest

import growthprice.games
from growthprice import optimal_price, threshold_shift


@pytest.fixture
def calls(monkeypatch):
    """Count calls to games.validate and games.translate, wherever looked up."""
    counts = Counter()
    for name in ("validate", "translate"):
        original = getattr(growthprice.games, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "growthprice" and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counted)
    return counts


def test_threshold_shift_validates_once_and_builds_no_game(two_point, calls):
    result = threshold_shift(two_point, 0.05)
    assert result.n0 is not None
    assert calls["validate"] <= 3
    assert calls["translate"] == 0


def test_optimal_price_validates_at_most_once(two_point, calls):
    optimal_price(two_point, 0.05)
    assert calls["validate"] <= 1


def test_a_game_is_validated_once_across_calls(two_point, calls):
    for _ in range(3):
        optimal_price(two_point, 0.05)
        threshold_shift(two_point, 0.05)
    assert calls["validate"] == 1
