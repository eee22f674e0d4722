"""Ceilings on the validation, game-building, repricing and first-order work
of the solvers, on the numpy blocks of the Monte Carlo, and on the points
the grid argmax evaluates.

Counts repeat exactly from run to run, unlike wall times, so these are the
regression gates for per-call overhead.
"""

import io
import math
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import random_game

import growthprice.games
import growthprice.oracle
import growthprice.solver
import growthprice.translation
from growthprice import (
    compute_stats,
    grid_argmax_growth,
    optimal_price,
    pre_optimal_proportion,
    price_translated,
    save_spec,
    simulate_wealth,
    threshold_shift,
)
from growthprice.cli import RunConfig, run

COUNTED = {
    "validate": growthprice.games,
    "translate": growthprice.games,
    "optimal_price": growthprice.solver,
    "_first_order_sum": growthprice.solver,
    "boundary_growth": growthprice.translation,
    "_stream": growthprice.oracle,
}


@pytest.fixture
def calls(monkeypatch):
    """Count calls to each COUNTED function, wherever looked up."""
    counts = Counter()
    for name, home in COUNTED.items():
        original = getattr(home, name)

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


def test_optimal_price_makes_at_most_80_first_order_evaluations(two_point, calls):
    # Newton steps, sign probes and bisection midpoints alike; nested plain
    # bisection made 1724 on this game, and certificates for the proportion
    # alone 185.
    assert optimal_price(two_point, 0.05).proportion == 0.27363787124918415
    assert calls["_first_order_sum"] <= 80


@pytest.mark.parametrize(
    "solve, evaluations",
    [
        (lambda g: pre_optimal_proportion(g, 5.0), 7),
        (lambda g: optimal_price(g, 0.05), 37),
    ],
    ids=["proportion", "price"],
)
def test_first_order_evaluations_at_the_default_max_iter(
    two_point, calls, solve, evaluations
):
    solve(two_point)
    assert calls["_first_order_sum"] == evaluations


def test_threshold_shift_makes_at_most_20_boundary_growth_calls(two_point, calls):
    # the doubling, Newton, its probes and the midpoints between them;
    # bisection through every midpoint made 44
    assert threshold_shift(two_point, 0.05).n0 == 19.174901671237876
    assert calls["boundary_growth"] == 10


@pytest.mark.parametrize("periods, paths", [(1, 10**5), (10**5, 1)])
def test_draws_are_made_in_full_blocks_whatever_the_shape(
    two_point, calls, periods, paths
):
    simulate_wealth(two_point, 7.0, 0.5, periods=periods, paths=paths, seed=3)
    assert calls["_stream"] == math.ceil(10**5 / growthprice.oracle._BLOCK_DRAWS)


def test_a_game_is_validated_once_across_calls(two_point, calls):
    for _ in range(3):
        optimal_price(two_point, 0.05)
        threshold_shift(two_point, 0.05)
    assert calls["validate"] == 1


def test_price_translated_reads_the_regime_off_its_two_prices(two_point, calls):
    for n in (-0.5, 10.0, 99.0):
        price_translated(two_point, 0.05, n)
    assert calls["boundary_growth"] == 0
    # below n0 both games are priced, past it only the shifted one
    assert calls["optimal_price"] == 2 + 2 + 1


def test_translate_command_prices_each_game_once(two_point, tmp_path, calls):
    path = tmp_path / "two_point.json"
    path.write_text(save_spec(two_point))
    cfg = RunConfig(command="translate", game_path=str(path), rate=0.05, shift=10.0)
    assert run(cfg, stdout=io.StringIO()) == 0
    assert calls["optimal_price"] == 2


@pytest.mark.parametrize("k", [2, 5, 12, 28, 64])
def test_grid_argmax_evaluates_at_most_five_sqrt_n_points(monkeypatch, k):
    # points per call: the sizes of the log1p arrays over the K outcomes;
    # the whole grid is 100 000
    game = random_game(np.random.default_rng(6000 + k), k, k)
    stats = compute_stats(game)
    u_mid = 0.5 * (stats.fair_price + stats.expectation)
    real_log1p = np.log1p
    sizes = []

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real_log1p(x, *args, **kwargs)

    monkeypatch.setattr(np, "log1p", counted)
    grid_argmax_growth(game, u_mid, 100_000)
    monkeypatch.undo()
    assert sum(sizes) / k <= 5 * math.isqrt(100_000) + 2
