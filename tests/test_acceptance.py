"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -s` or in captured output on failure) and
then asserts, so the suite doubles as a human-readable checklist.
"""

import io
import json
import math

import pytest

from conftest import admissible_price, random_game, random_two_point
from growthprice import (
    Regime,
    ThresholdStatus,
    compute_stats,
    grid_argmax_growth,
    optimal_price,
    pre_optimal_proportion,
    price_translated,
    save_spec,
    simulate_wealth,
    threshold_shift,
    translate,
    two_point_closed_form,
)
from growthprice.cli import RunConfig, run
from growthprice.translation import asymptotic_sweep, check_invariance

np = pytest.importorskip("numpy")

RATE = 0.05


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_fixture_pricing(two_point):
    solution = optimal_price(two_point, RATE)
    expected_price = 10.0 - 9.0 * math.sqrt(1.0 - math.exp(-0.1))
    u = solution.optimal_price
    expected_proportion = (10.0 - u) * u / ((19.0 - u) * (u - 1.0))
    ok = (
        abs(u - expected_price) <= 1e-9 * expected_price
        and round(u, 3) == 7.224
        and solution.regime is Regime.INTERIOR
        and abs(solution.proportion - expected_proportion) <= 1e-9 * expected_proportion
    )
    report(1, "fixture optimal price at r=0.05", ok, f"price={u:.12f}")


def test_criterion_02_fixture_threshold(two_point):
    result = threshold_shift(two_point, RATE)
    expected = 9.0 * math.exp(RATE) / math.sqrt(math.exp(2 * RATE) - 1.0) - 10.0
    ok = (
        result.regime_note is ThresholdStatus.FOUND
        and abs(result.n0 - expected) <= 1e-6 * expected
    )
    report(2, "regime-switch shift at r=0.05", ok, f"n0={result.n0:.9f}")


def test_criterion_03_large_shift_price(two_point, tmp_path):
    solution = price_translated(two_point, RATE, 99.0)
    expected = math.sqrt(11800.0) / math.exp(RATE)
    value_ok = abs(solution.optimal_price - expected) <= 1e-9 * expected

    spec = tmp_path / "two_point.json"
    spec.write_text(save_spec(two_point))
    out = io.StringIO()
    code = run(
        RunConfig(command="translate", game_path=str(spec), rate=RATE, shift=99.0),
        stdout=out,
        stderr=io.StringIO(),
    )
    payload = json.loads(out.getvalue())
    discounted = payload["discounted_expectation"]
    report_ok = (
        code == 0
        and round(discounted, 3) == 103.684
        and abs(discounted - 109.0 / math.exp(RATE)) <= 1e-9 * discounted
    )
    report(
        3,
        "shift-99 price and discounted expectation",
        value_ok and report_ok,
        f"price={solution.optimal_price:.9f}, discounted={discounted:.9f}",
    )


def test_criterion_04_price_additivity(two_point):
    base = optimal_price(two_point, RATE).optimal_price
    worst = 0.0
    for n in (-0.5, 1.0, 5.0, 10.0, 19.0):
        shifted = price_translated(two_point, RATE, n).optimal_price
        worst = max(worst, abs(shifted - (base + n)))
    report(4, "price shifts additively below threshold", worst <= 1e-6, f"worst={worst:.3e}")


def test_criterion_05_invariance_suite():
    rng = np.random.default_rng(20260810)
    failures = 0
    worst_ratio = 0.0
    worst_growth = 0.0
    for _ in range(500):
        game = random_game(rng)
        stats = compute_stats(game)
        u = admissible_price(stats, rng)
        n = float(rng.uniform(-stats.ess_inf + 1e-3, 100.0))
        invariance = check_invariance(game, u, n)
        ratio_rel = invariance.ratio_residual / max(1.0, invariance.ratio_original)
        growth_rel = invariance.growth_residual / invariance.growth_original
        worst_ratio = max(worst_ratio, ratio_rel)
        worst_growth = max(worst_growth, growth_rel)
        if ratio_rel > 1e-8 or growth_rel > 1e-8:
            failures += 1
    report(
        5,
        "ratio/growth invariance on 500 random games",
        failures == 0,
        f"worst ratio={worst_ratio:.3e}, worst growth={worst_growth:.3e}",
    )


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(6060)
    grid_points = 100_000
    failures = 0
    for _ in range(1000):
        tp = random_two_point(rng)
        game = tp.to_game()
        stats = compute_stats(game)
        u_cf = tp.low + float(rng.uniform(0.05, 0.95)) * (tp.expectation - tp.low)
        solution = pre_optimal_proportion(game, u_cf)
        t_cf, g_cf = two_point_closed_form(tp, u_cf)
        if abs(solution.proportion - t_cf) > 1e-9 * t_cf:
            failures += 1
        if abs(solution.growth - g_cf) > 1e-9 * g_cf:
            failures += 1
        u_grid = stats.fair_price + float(rng.uniform(0.05, 0.95)) * (
            stats.expectation - stats.fair_price
        )
        root = pre_optimal_proportion(game, u_grid).proportion
        argmax = grid_argmax_growth(game, u_grid, grid_points)
        cap = min(1.0, (1.0 - 1e-9) * u_grid / (u_grid - stats.ess_inf))
        step = cap / (grid_points + 1)
        if abs(argmax - root) > step + 1e-12:
            failures += 1
    report(6, "solver vs closed form and grid argmax on 1000 games", failures == 0)


def test_criterion_07_boundary_and_monotonicity():
    rng = np.random.default_rng(7070)
    failures = 0
    worst_boundary = 0.0
    for _ in range(100):
        game = random_game(rng)
        stats = compute_stats(game)
        boundary_gap = abs(pre_optimal_proportion(game, stats.fair_price).proportion - 1.0)
        worst_boundary = max(worst_boundary, boundary_gap)
        if boundary_gap > 1e-9:
            failures += 1
        span = stats.expectation - stats.lower_price_bound
        prices = [stats.lower_price_bound + (i / 51.0) * span for i in range(1, 51)]
        solutions = [pre_optimal_proportion(game, u) for u in prices]
        proportions = [s.proportion for s in solutions]
        growths = [s.growth for s in solutions]
        if not all(b < a for a, b in zip(proportions, proportions[1:])):
            failures += 1
        if not all(b < a for a, b in zip(growths, growths[1:])):
            failures += 1
    report(
        7,
        "root equals 1 at fair price; root and growth decrease in price",
        failures == 0,
        f"worst boundary gap={worst_boundary:.3e}",
    )


def test_criterion_08_asymptotics(two_point):
    rows = asymptotic_sweep(two_point, RATE, [float(2**k) for k in range(15)])
    gaps = [row.gap for row in rows]
    boundaries = [row.boundary_growth for row in rows]
    final_ratio_error = abs(rows[-1].price_ratio - math.exp(-RATE))
    ok = (
        all(b < a for a, b in zip(gaps, gaps[1:]))
        and gaps[-1] < 0.01
        and all(b < a for a, b in zip(boundaries, boundaries[1:]))
        and boundaries[-1] < 1.001
        and final_ratio_error < 5e-4
    )
    report(
        8,
        "gap and boundary growth shrink; price ratio approaches discount",
        ok,
        f"final gap={gaps[-1]:.3e}, final boundary={boundaries[-1]:.9f},"
        f" ratio error={final_ratio_error:.3e}",
    )


def test_criterion_09_monte_carlo(two_point):
    pricing = optimal_price(two_point, RATE)
    sim = simulate_wealth(
        two_point,
        pricing.optimal_price,
        pricing.proportion,
        periods=10_000,
        paths=100,
        seed=1234,
    )
    within_band = abs(sim.mean_log_growth - RATE) <= 3.0 * sim.std_error
    idle = simulate_wealth(
        two_point, pricing.optimal_price, 0.0, periods=100, paths=10, seed=1234
    )
    ok = within_band and idle.mean_log_growth == 0.0 and idle.std_error == 0.0
    report(
        9,
        "simulated log growth matches the rate; zero proportion is exact",
        ok,
        f"mean={sim.mean_log_growth:.6f}, 3*SE={3 * sim.std_error:.2e}",
    )


def test_criterion_10_shift_derivative():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(20):
        game = random_game(rng)
        stats = compute_stats(game)
        u = admissible_price(stats, rng, lo_frac=0.1, hi_frac=0.9)
        n = float(rng.uniform(-stats.ess_inf + 0.1, 100.0))
        h = 1e-4 * (u + n)

        def root_at(shift: float) -> float:
            return pre_optimal_proportion(translate(game, shift), u + shift).proportion

        derivative = (root_at(n + h) - root_at(n - h)) / (2.0 * h)
        expected = root_at(n) / (u + n)
        worst = max(worst, abs(derivative - expected) / abs(expected))
    report(
        10,
        "central difference of the shifted root matches root/(u+n)",
        worst <= 1e-3,
        f"worst relative error={worst:.3e}",
    )
