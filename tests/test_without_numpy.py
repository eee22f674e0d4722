"""numpy is an optional accelerator: without it every solver runs its loops,
with the same results, and with no fewer exact evaluations. The grid argmax, which
never uses numpy, is checked here against a plain scan of the whole grid.

This file imports no numpy, so it runs where numpy is not installed.
"""

import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import growthprice
from growthprice import Game, compute_stats, grid_argmax_growth, oracle

# Run in a child process as `python -c CHILD blocked|free`. It prices,
# thresholds, translates, sweeps, verifies and checks the invariance of games
# of 40, 64 and 256 outcomes, and prints each result's repr with the
# first-order evaluations, on either kernel, the boundary_growth calls and
# the exact log growth evaluations it made, as JSON.
CHILD = r"""
import json, math, random, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from collections import Counter
import growthprice.solver as solver
import growthprice.translation as translation
from growthprice import (
    Game, asymptotic_sweep, check_invariance, compute_stats, optimal_price,
    price_translated, threshold_shift, verify,
)

counts = Counter()
loop, vector = solver._first_order_sum, solver._array_first_order_sum
growth, log_growth = translation.boundary_growth, solver._log_growth

def counted(evaluate):
    def evaluation(*args, **kwargs):
        counts["first_order"] += 1
        return evaluate(*args, **kwargs)
    return evaluation

def counted_growth(game, n):
    counts["boundary_growth"] += 1
    return growth(game, n)

# every first-order evaluation, on either kernel
solver._first_order_sum = counted(loop)
solver._array_first_order_sum = counted(vector)
translation.boundary_growth = counted_growth

def counted_log_growth(outcomes, u, t):
    counts["log_growth"] += 1
    return log_growth(outcomes, u, t)

solver._log_growth = counted_log_growth

results, kept = [], []
for k in (40, 64, 256):
    rng = random.Random(k)
    weights = [rng.uniform(0.05, 1.0) for _ in range(k)]
    total = math.fsum(weights)
    pairs = [(10.0 ** rng.uniform(-1.0, 2.0), w / total) for w in weights]
    log_b0 = math.log(compute_stats(Game.from_pairs(pairs)).boundary_growth)
    for r in (0.3 * log_b0, 1e-6 * log_b0):
        game = Game.from_pairs(pairs)
        calls = [
            lambda: optimal_price(game, r),
            lambda: threshold_shift(game, r),
            lambda: price_translated(game, r, 3.0),
            lambda: asymptotic_sweep(game, r, [0.0, 10.0, 1e3]),
            lambda: verify(game),
            # as `translate` reports it, at the game's kept price
            lambda: check_invariance(game, optimal_price(game, r).optimal_price, 3.0),
        ]
        for call in calls:
            counts.clear()
            results.append([
                repr(call()), counts["first_order"], counts["boundary_growth"],
                counts["log_growth"],
            ])
        kept.append("_vector" in vars(game))
print(json.dumps({
    "results": results,
    "kept": kept,
    "numpy": sys.modules.get("numpy") is not None,
    "imports": solver._import_numpy.cache_info().misses,
}))
"""


def _run_child(mode: str) -> dict:
    src = str(Path(growthprice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, mode], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_wide_games_solve_alike_with_numpy_blocked():
    blocked = _run_child("blocked")
    assert not blocked["numpy"]
    assert not any(blocked["kept"])
    assert blocked["imports"] == 1  # tried once, not once per game or solve
    free = _run_child("free")
    # where numpy is installed, the free run priced on it
    installed = importlib.util.find_spec("numpy") is not None
    assert free["numpy"] == installed
    assert all(free["kept"]) == installed
    assert free["imports"] == 1
    assert [row[0] for row in blocked["results"]] == [row[0] for row in free["results"]]
    # numpy's values steer Newton on the wide games and certify nothing, so
    # they spare exact boundary and log growth evaluations, and add none.
    for i, (numpy_row, loop_row) in enumerate(zip(free["results"], blocked["results"])):
        assert numpy_row[2] <= loop_row[2] and numpy_row[3] <= loop_row[3], i
    # The rows count work: first-order evaluations for the price, the sweep,
    # verify and the invariance check, boundary growth for the threshold.
    # price_translated's shift of 3 passes n0 on some games, whose shifted
    # price is then the full-investment closed form.
    for i, (_, first_order, boundary, _) in enumerate(blocked["results"]):
        if i % 6 != 2:
            assert (boundary if i % 6 == 1 else first_order) > 0, i


@pytest.mark.parametrize("grid_points", [1, 2, 7, 2001])
@pytest.mark.parametrize("k", [2, 12, 64])
def test_grid_argmax_matches_a_full_scan(k, grid_points, monkeypatch):
    # The first argmax of the log growth over every grid point, each value
    # 0.0 plus w * log1p(t * ((a - u)/u)) in outcome order; the search must
    # return it and evaluate only grid points, each once, to the same bits.
    rng = random.Random(7000 + k)
    real_log_growth = oracle._log_growth
    for s in (1e-9, 0.3, 0.7, 1.0 - 1e-9):
        weights = [rng.uniform(0.05, 1.0) for _ in range(k)]
        total = math.fsum(weights)
        game = Game.from_pairs(
            (10.0 ** rng.uniform(-1.0, 2.0), w / total) for w in weights
        )
        stats = compute_stats(game)
        u = stats.fair_price + s * (stats.expectation - stats.fair_price)
        cap = min(1.0, (1.0 - 1e-9) * u / (u - stats.ess_inf))
        grid = [cap * (i + 1) / (grid_points + 1) for i in range(grid_points)]
        scan = []
        for t in grid:
            value = 0.0
            for o in game.outcomes:
                value += o.weight * math.log1p(t * ((o.payout - u) / u))
            scan.append(value)
        first = max(range(grid_points), key=scan.__getitem__)
        calls = []

        def spy(terms, t):
            calls.append((t, real_log_growth(terms, t)))
            return calls[-1][1]

        monkeypatch.setattr(oracle, "_log_growth", spy)
        got = grid_argmax_growth(game, u, grid_points)
        monkeypatch.undo()
        assert got == grid[first]
        index = {t: i for i, t in enumerate(grid)}
        assert len(index) == grid_points
        assert len({t for t, _ in calls}) == len(calls)
        for t, value in calls:
            assert value == scan[index[t]]
