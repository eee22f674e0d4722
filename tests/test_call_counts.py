"""Ceilings on the validation, game-building, repricing and first-order work
of the solvers, on the binomial draws of the Monte Carlo, and on the points
the grid argmax evaluates.

Counts repeat exactly from run to run, unlike wall times, so these are the
regression gates for per-call overhead.
"""

import io
import math
from collections import Counter

import pytest

from conftest import random_game
from fingerprint import counting

import growthprice.games
import growthprice.kernels
import growthprice.oracle
import growthprice.solver
import growthprice.translation
from growthprice import (
    DomainError,
    Game,
    compute_stats,
    grid_argmax_growth,
    optimal_price,
    pre_optimal_proportion,
    price_translated,
    save_spec,
    simulate_wealth,
    threshold_shift,
    translate,
)
from growthprice.cli import RunConfig, run

np = pytest.importorskip("numpy")

COUNTED = {
    "validate": growthprice.games,
    "translate": growthprice.games,
    "optimal_price": growthprice.solver,
    "_solve_price": growthprice.solver,
    "_bisect": growthprice.solver,
    "_first_order_sum": growthprice.kernels,
    "boundary_growth": growthprice.translation,
    "_binomial": growthprice.oracle,
    "_log_growth": growthprice.oracle,
}


@pytest.fixture
def calls():
    """Count calls to each COUNTED function, wherever looked up."""
    units = {name: (home, name) for name, home in COUNTED.items()}
    with counting(Counter(), units) as counts:
        yield counts


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
        # 4 joint steps, 2 outer certificate evaluations (the probes on
        # either side of the joint root, which is not evaluated itself) and
        # 2 replayed midpoints; 20 with the joint root evaluated, 31 without
        # the joint steps
        (lambda g: optimal_price(g, 0.05), 18),
    ],
    ids=["proportion", "price"],
)
def test_first_order_evaluations_at_the_default_max_iter(
    two_point, calls, solve, evaluations
):
    solve(two_point)
    assert calls["_first_order_sum"] == evaluations


def test_only_the_price_bisection_replays_its_proportions(two_point, calls):
    # the outer bisection, and one inner bisection for each of its two
    # evaluations; the 2 inner solves at the probes take their proportion
    # from the certificates. Every solve replayed made 9.
    optimal_price(two_point, 0.05)
    assert calls["_bisect"] == 3


@pytest.mark.parametrize("r, steps", [(0.2, 5), (0.05, 4), (1e-4, 3)])
@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_the_joint_newton_steps_of_a_price(monkeypatch, r, steps, scale):
    # Each joint step is one first-order evaluation with the slope, and the
    # steps do not depend on the payout scale. From the joint root the
    # certificates take 2 outer evaluations at r = 0.05, where nested Newton
    # from the tangent or small-rate start took 6.
    joint, seen = growthprice.solver._joint_newton, []

    def counted(first_order_sum, *args):
        def kernel(*point, **kwargs):
            seen.append(point)
            return first_order_sum(*point, **kwargs)

        return joint(kernel, *args)

    monkeypatch.setattr(growthprice.solver, "_joint_newton", counted)
    optimal_price(Game.from_pairs([(scale, 0.5), (19.0 * scale, 0.5)]), r)
    assert len(seen) == steps


def test_a_joint_step_that_leaves_the_proportions_is_halved(calls):
    # From the chord t = 0.86 the first joint step would take t below 0;
    # halved once it lands at t = 0.30, and four more steps reach the root.
    # Without the halving the joint Newton gave up there and nested Newton
    # ran from its start: 44 first-order evaluations in place of 15.
    game = Game.from_pairs([(2.5, 0.875), (18.0, 0.125)])
    assert repr(optimal_price(game, 0.05).optimal_price) == "3.207217684446309"
    assert calls["_first_order_sum"] == 15


@pytest.mark.parametrize(
    "delta, evaluations",
    [(1e-4, 11), (1e-7, 25), (1e-10, 36)],
)
def test_a_proportion_near_the_expectation_probes_outward(
    two_point, calls, delta, evaluations
):
    # The first-order sum reads 0 on a stretch below the root that Newton
    # reaches from above, so the first probe below reads 0 too and certifies
    # no positive point; one probe a side made 32, 38 and 40 evaluations.
    pre_optimal_proportion(two_point, 10.0 * (1.0 - delta))
    assert calls["_first_order_sum"] == evaluations


@pytest.mark.parametrize(
    "r, evaluations",
    [(0.2, 19), (1e-4, 29), (1e-6, 69), (1e-8, 85), (1e-10, 150), (1e-12, 280)],
)
def test_first_order_evaluations_of_a_price_across_rates(
    two_point, calls, r, evaluations
):
    # the joint steps included, the joint root itself not evaluated. With it
    # evaluated, 21, 31, 62, 89, 158 and 292: at r = 1e-6 the joint root is
    # about 1e-9 off, so the probes from it start wide of the root, where one
    # Newton step from it had closed in. Without the joint steps nested
    # Newton made 35, 39, 68, 97, 163 and 301, and with every solve replayed
    # and one probe a side 42, 44, 103, 157, 228 and 364
    optimal_price(two_point, r)
    assert calls["_first_order_sum"] == evaluations


def test_newton_falls_back_to_the_midpoint_of_its_bracket(calls):
    # Newton steps here leave the bracket that the residuals' signs have
    # closed in while one end is still the search's own, and Newton goes on
    # from the bracket's midpoint; from below + above in its place it made 87
    game = Game.from_pairs(
        [
            (0.31544601333302646, 0.28127514620049043),
            (1.6236423946968355, 0.26884844574005395),
            (2.708636850207945, 0.0913847176434288),
            (3.2208101131495437, 0.1804912758207288),
            (67.17287225476265, 0.17800041459529808),
        ]
    )
    pre_optimal_proportion(game, 13.001018304609065)
    assert calls["_first_order_sum"] == 9


def test_a_singular_joint_jacobian_steps_in_t_alone(calls):
    # The joint Jacobian's determinant is not positive on the way, and the
    # joint Newton takes a Newton step in t at fixed u there. Where it gave
    # up instead, the price bisected plain: 218 evaluations, and 62 while a
    # nested Newton in u took over. Had the step in t counted as convergence
    # in u, 260.
    payouts = (0.2959179789029522, 0.3930126534257426, 0.4024520678344659)
    weights = (0.03782452482439821, 0.5847897679149227, 0.32870714237161697)
    game = Game.from_pairs(
        zip(payouts + (23.214980394306593,), weights + (0.048678564889062116,))
    )
    optimal_price(game, 0.030909817666472668)
    assert calls["_first_order_sum"] == 27


def test_a_price_whose_later_start_fails_runs_the_other(calls):
    # At 1e-3 of its log boundary, the joint Newton gives up from the later
    # of the price's two starts and reaches the root from the other; from
    # the later start alone the price bisected plain, with 207 evaluations
    game = random_game(np.random.default_rng(6), 2, 8)
    optimal_price(game, 1e-3 * math.log(compute_stats(game).boundary_growth))
    assert calls["_first_order_sum"] == 41


@pytest.mark.parametrize(
    "delta, steps",
    # steering passes of log B and its slope, the tangent's own included;
    # without the tangent start, from the asymptote alone, 14, 17, 20 and 24
    # on the two-point fixture and 13, 16, 19 and 23 on the three-point.
    # Newton steers on log B, so the start moves only these passes:
    # boundary_growth is called 4 times either way.
    [(1e-2, 4), (1e-4, 3), (1e-6, 3), (1e-9, 2)],
)
@pytest.mark.parametrize("fixture", ["two_point", "three_point"])
def test_a_threshold_near_the_boundary_starts_from_the_tangent(
    request, calls, monkeypatch, fixture, delta, steps
):
    game = request.getfixturevalue(fixture)
    r = (1.0 - delta) * math.log(compute_stats(game).boundary_growth)
    shift_slope, passes = growthprice.kernels._shift_slope, []

    def counted(game):
        log_slope = shift_slope(game)

        def steer(n):
            passes.append(n)
            return log_slope(n)

        return steer

    monkeypatch.setattr(growthprice.kernels, "_shift_slope", counted)
    calls.clear()
    assert threshold_shift(game, r).n0 > 0.0
    assert (len(passes), calls["boundary_growth"]) == (steps, 4)


def test_threshold_shift_makes_at_most_20_boundary_growth_calls(two_point, calls):
    # the doubling, the probes from Newton's root and the midpoints between
    # them; Newton steers on log B and calls none. Certifying at every Newton
    # step made 10, and bisection through every midpoint 44
    assert threshold_shift(two_point, 0.05).n0 == 19.174901671237876
    assert calls["boundary_growth"] == 5


@pytest.mark.parametrize("k", [2, 5, 64])
@pytest.mark.parametrize(
    "periods, paths", [(1, 1), (1, 10**5), (10**5, 1), (10**6, 10**6)]
)
def test_draws_at_most_one_binomial_per_outcome_but_the_last(
    calls, k, periods, paths
):
    game = random_game(np.random.default_rng(6100 + k), k, k)
    simulate_wealth(game, compute_stats(game).expectation, 0.5, periods, paths, 3)
    assert 1 <= calls["_binomial"] <= k - 1


def test_a_game_is_validated_once_across_calls(two_point, calls):
    for _ in range(3):
        optimal_price(two_point, 0.05)
        threshold_shift(two_point, 0.05)
    assert calls["validate"] == 1


@pytest.mark.parametrize(
    "pairs, n, validations",
    [
        ([(1.0, 0.5), (19.0, 0.5)], 10.0, 0),
        ([(1.0, 0.5), (19.0, 0.5)], -0.5, 0),
        # rounding merges the two smaller payouts, so Game builds and
        # validates the shifted game
        ([(1.0, 0.3), (1.0 + 2.0**-52, 0.6), (5.0, 0.1)], 1.0, 1),
    ],
    ids=["above", "below", "merging"],
)
def test_price_translated_validates_only_a_merged_shifted_game(
    calls, pairs, n, validations
):
    # a shifted game whose payouts stay apart inherits its parent's validity
    game = Game.from_pairs(pairs)
    compute_stats(game)
    calls.clear()
    price_translated(game, 0.05, n)
    assert calls["validate"] == validations


def test_a_wide_game_builds_its_arrays_once(calls):
    game = random_game(np.random.default_rng(256), 256, 256)
    threshold_shift(game, 0.05)
    assert "_vector" not in vars(game)  # a threshold builds no arrays
    optimal_price(game, 0.05)
    kept = vars(game)["_vector"]
    optimal_price(game, 0.06)
    threshold_shift(game, 0.06)
    assert calls["_solve_price"] == 2
    assert vars(game)["_vector"] is kept


def test_each_wide_game_builds_its_own_columns_once(monkeypatch):
    # On a game that no price solve has touched, the shifted game's price
    # builds the shifted game's two columns and the game's price its own: 4
    # builds. Another shift builds only its new shifted game's two, and a
    # later threshold on the game steers on the game's own, and builds none.
    builds, shifted = [], []
    translate = growthprice.translation.translate

    def spy(game, n):
        shifted.append(translate(game, n))
        return shifted[-1]

    class CountedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, column):
            builds.append(len(column))
            return np.array(column)

    monkeypatch.setattr(growthprice.kernels, "_import_numpy", CountedNumpy)
    monkeypatch.setattr(growthprice.translation, "translate", spy)
    game = random_game(np.random.default_rng(256), 256, 256)
    price_translated(game, 0.05, 1.0)
    assert builds == [256] * 4
    kept = vars(game)["_vector"]
    assert vars(shifted[0])["_vector"][1] is not kept[1]
    price_translated(game, 0.05, 2.0)
    assert builds == [256] * 6 and "_vector" in vars(shifted[1])
    threshold_shift(game, 0.05)
    assert len(builds) == 6 and vars(game)["_vector"] is kept


def test_price_translated_reads_the_regime_off_its_two_prices(two_point, calls):
    for n in (-0.5, 10.0, 99.0):
        price_translated(two_point, 0.05, n)
    assert calls["boundary_growth"] == 0
    # below n0 both games are priced, past it only the shifted one; the
    # base keeps its price, and each shifted game is solved and dropped
    assert calls["optimal_price"] == 1 + 1 + 0
    assert calls["_solve_price"] == 2 + 1 + 1


def test_translate_command_prices_each_game_once(two_point, tmp_path, calls):
    # the command asks for the original price twice, and the game keeps it
    path = tmp_path / "two_point.json"
    path.write_text(save_spec(two_point))
    cfg = RunConfig(command="translate", game_path=str(path), rate=0.05, shift=10.0)
    assert run(cfg, stdout=io.StringIO()) == 0
    assert calls["_solve_price"] == 2


def test_price_translated_reuses_the_price_its_caller_computed(two_point, calls):
    optimal_price(translate(Game(*two_point), 10.0), 0.05)
    shifted_alone = calls["_first_order_sum"]
    calls.clear()
    base = optimal_price(two_point, 0.05)
    shifted = price_translated(two_point, 0.05, 10.0)
    # the base price is kept, and the shifted joint Newton starts from its
    # root mapped by the invariance, so it takes 2 evaluations fewer than
    # from the cold starts
    assert calls["_first_order_sum"] == 18 + shifted_alone - 2
    assert calls["_solve_price"] == 2
    assert repr(base) == repr(optimal_price(Game(*two_point), 0.05))
    assert repr(shifted) == repr(price_translated(Game(*two_point), 0.05, 10.0))


@pytest.mark.parametrize(
    "first, second",
    [
        ((0.05, {}), (0.06, {})),
        ((0.05, {}), (0.05, {"tol": 1e-10})),
        ((0.05, {}), (0.05, {"max_iter": 100})),
        ((1.0, {}), (1, {})),
        ((0.05, {}), (np.float64(0.05), {})),
    ],
    ids=["rate", "tol", "max_iter", "int_rate", "numpy_rate"],
)
def test_other_arguments_solve_again(two_point, calls, first, second):
    optimal_price(two_point, first[0], **first[1])
    kept = set(vars(two_point))
    got = optimal_price(two_point, second[0], **second[1])
    assert calls["_solve_price"] == 2
    assert repr(got) == repr(optimal_price(Game(*two_point), second[0], **second[1]))
    # the new result replaced the old one
    assert set(vars(two_point)) == kept
    assert optimal_price(two_point, second[0], **second[1]) is got
    assert calls["_solve_price"] == 3


def test_a_refused_call_keeps_the_last_price(two_point, calls):
    first = optimal_price(two_point, 0.05)
    with pytest.raises(DomainError, match="^max_iter="):
        optimal_price(two_point, 0.05, max_iter=0)
    assert optimal_price(two_point, 0.05) is first
    assert calls["_solve_price"] == 2


@pytest.mark.parametrize("k", [2, 5, 12, 28, 64])
def test_grid_argmax_evaluates_at_most_five_sqrt_n_points(calls, k):
    # one _log_growth call per point; the whole grid is 100 000
    game = random_game(np.random.default_rng(6000 + k), k, k)
    stats = compute_stats(game)
    u_mid = 0.5 * (stats.fair_price + stats.expectation)
    grid_argmax_growth(game, u_mid, 100_000)
    assert calls["_log_growth"] <= 5 * math.isqrt(100_000) + 2


def test_grid_argmax_median_evaluations_at_most_30(calls):
    # a Fibonacci search whose every probe pair proves a cut makes one
    # evaluation per cut, about log_phi(10**5) = 24 (24 on each of these
    # games), against 10**5 for the whole grid
    rng = np.random.default_rng(6200)
    evaluations = []
    for _ in range(25):
        game = random_game(rng, 2, 64)
        stats = compute_stats(game)
        u = stats.fair_price + float(rng.uniform(0.05, 0.95)) * (
            stats.expectation - stats.fair_price
        )
        calls.clear()
        grid_argmax_growth(game, u, 100_000)
        evaluations.append(calls["_log_growth"])
    assert sorted(evaluations)[len(evaluations) // 2] <= 30
