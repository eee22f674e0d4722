"""Oracle routes: closed forms, grid argmax, seeded wealth simulation."""

import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import random_game, random_two_point
from growthprice import oracle
from growthprice import (
    DomainError,
    Game,
    TwoPointGame,
    compute_stats,
    game_from_nodes,
    grid_argmax_growth,
    growth_rate,
    optimal_price,
    pre_optimal_proportion,
    simulate_wealth,
    translate,
    two_point_closed_form,
    verify,
)

np = pytest.importorskip("numpy")


class TestTwoPointGame:
    def test_expectation_and_game_match(self):
        tp = TwoPointGame(high=19.0, low=1.0, p_high=0.5)
        assert tp.expectation == 10.0
        assert tp.to_game() == Game.from_pairs([(19.0, 0.5), (1.0, 0.5)])

    def test_bad_parameters_rejected(self):
        with pytest.raises(DomainError):
            TwoPointGame(high=1.0, low=2.0, p_high=0.5)
        with pytest.raises(DomainError):
            TwoPointGame(high=2.0, low=-1.0, p_high=0.5)
        with pytest.raises(DomainError):
            TwoPointGame(high=2.0, low=1.0, p_high=1.0)


class TestClosedForm:
    def test_quoted_values_at_u5(self):
        tp = TwoPointGame(high=19.0, low=1.0, p_high=0.5)
        proportion, growth = two_point_closed_form(tp, 5.0)
        assert math.isclose(proportion, 25.0 / 56.0, rel_tol=1e-12)
        assert math.isclose(growth, 9.0 / math.sqrt(56.0), rel_tol=1e-12)

    def test_proportion_is_one_at_fair_price(self):
        tp = TwoPointGame(high=19.0, low=1.0, p_high=0.5)
        proportion, _ = two_point_closed_form(tp, 1.9)
        assert abs(proportion - 1.0) <= 1e-12

    def test_growth_ignores_shift_exactly(self):
        tp = TwoPointGame(high=19.0, low=1.0, p_high=0.5)
        _, growth_zero = two_point_closed_form(tp, 5.0, 0.0)
        _, growth_fifty = two_point_closed_form(tp, 5.0, 50.0)
        assert growth_zero == growth_fifty

    def test_domain_errors(self):
        tp = TwoPointGame(high=19.0, low=1.0, p_high=0.5)
        with pytest.raises(DomainError):
            two_point_closed_form(tp, 0.5)
        with pytest.raises(DomainError):
            two_point_closed_form(tp, 12.0)
        with pytest.raises(DomainError):
            two_point_closed_form(tp, 5.0, -1.0)


def reference_grid(game, u, grid_points):
    """The full grid, its log growth and its first argmax, by a plain scan
    with math.log1p: each value is 0.0 plus w * log1p(t * ((a - u)/u)) for
    each outcome in order. numpy forms the grid, the products and the
    running sums, each the same IEEE operation in the same order as a
    per-point loop; math.log1p runs on every element."""
    stats = compute_stats(game)
    cap = min(1.0, (1.0 - 1e-9) * u / (u - stats.ess_inf))
    ts = cap * np.arange(1, grid_points + 1, dtype=float) / (grid_points + 1)
    log_growth = np.zeros(grid_points)
    for o in game.outcomes:
        ratio = (o.payout - u) / u
        logs = np.fromiter(map(math.log1p, (ratio * ts).tolist()), float, grid_points)
        log_growth += o.weight * logs
    first = int(np.argmax(log_growth))
    return ts.tolist(), log_growth.tolist(), float(ts[first])


def evaluated_points(monkeypatch, game, u, grid_points):
    """grid_argmax_growth's result and the (t, value) of every point it
    evaluated, in order."""
    real_log_growth = oracle._log_growth
    calls = []

    def spy(terms, t):
        value = real_log_growth(terms, t)
        calls.append((t, value))
        return value

    monkeypatch.setattr(oracle, "_log_growth", spy)
    got = grid_argmax_growth(game, u, grid_points)
    monkeypatch.undo()
    return got, calls


def assert_grid_argmax_matches_reference(monkeypatch, game, u, grid_points):
    """grid_argmax_growth returns the reference argmax, and every point it
    evaluates is a grid point, evaluated once, to the reference value bit
    for bit. Returns the number of points evaluated."""
    got, calls = evaluated_points(monkeypatch, game, u, grid_points)
    ts, log_growth, argmax = reference_grid(game, u, grid_points)
    assert got == argmax
    index = {t: i for i, t in enumerate(ts)}
    assert len(index) == grid_points
    for t, value in calls:
        assert value == log_growth[index[t]]
    assert len({t for t, _ in calls}) == len(calls)
    return len(calls)


def scaled(game, c):
    return Game.from_pairs((o.payout * c, o.weight) for o in game.outcomes)


class TestGridArgmax:
    @pytest.mark.parametrize("k", [2, 3, 5, 12, 28, 64])
    def test_bit_identical_to_the_full_grid(self, k, monkeypatch):
        rng = np.random.default_rng(4000 + k)
        for _ in range(5):
            game = random_game(rng, k, k)
            stats = compute_stats(game)
            u = stats.fair_price + float(rng.uniform(0.05, 0.95)) * (
                stats.expectation - stats.fair_price
            )
            assert_grid_argmax_matches_reference(monkeypatch, game, u, 20_001)

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    @pytest.mark.parametrize("k", [2, 12, 64])
    def test_bit_identical_at_extreme_payout_scales(self, k, c, monkeypatch):
        rng = np.random.default_rng(4100 + k)
        for _ in range(3):
            game = scaled(random_game(rng, k, k), c)
            stats = compute_stats(game)
            u = stats.fair_price + float(rng.uniform(0.05, 0.95)) * (
                stats.expectation - stats.fair_price
            )
            assert_grid_argmax_matches_reference(monkeypatch, game, u, 20_001)

    @pytest.mark.parametrize("k", [2, 12, 64])
    @pytest.mark.parametrize(
        "s", [1e-9, 1.0 - 1e-9], ids=["argmax_near_cap", "argmax_near_zero"]
    )
    def test_bit_identical_at_the_ends_of_the_price_range(
        self, k, s, monkeypatch
    ):
        rng = np.random.default_rng(4200 + k)
        for _ in range(3):
            game = random_game(rng, k, k)
            stats = compute_stats(game)
            u = stats.fair_price + s * (stats.expectation - stats.fair_price)
            assert_grid_argmax_matches_reference(monkeypatch, game, u, 100_000)

    @pytest.mark.parametrize("grid_points", [1, 2, 7, 20_001])
    @pytest.mark.parametrize("k", [2, 5, 28])
    def test_bit_identical_on_small_and_odd_grids(
        self, k, grid_points, monkeypatch
    ):
        rng = np.random.default_rng(4300 + k)
        for _ in range(3):
            game = random_game(rng, k, k)
            stats = compute_stats(game)
            u = stats.fair_price + float(rng.uniform(0.05, 0.95)) * (
                stats.expectation - stats.fair_price
            )
            assert_grid_argmax_matches_reference(monkeypatch, game, u, grid_points)

    def test_whole_grid_where_eta_proves_nothing(self, monkeypatch):
        # (a - u)/u overflows, so every grid value is inf and eta is NaN;
        # no pair cuts, every point is evaluated and the first is the argmax
        game = Game.from_pairs([(1e-300, 0.5), (1e300, 0.5)])
        evaluated = assert_grid_argmax_matches_reference(
            monkeypatch, game, 4e-300, 1000
        )
        assert evaluated == 1000
        assert grid_argmax_growth(game, 4e-300, 1000) == 1.0 / 1001

    @pytest.mark.parametrize("fixture", ["two_point", "three_point"])
    def test_fixtures_at_a_million_points(self, fixture, request, monkeypatch):
        # verify's grid and price: the search evaluates at most 35 points
        # (29 on both), against 10**6 for the whole grid
        game = request.getfixturevalue(fixture)
        stats = compute_stats(game)
        u_mid = 0.5 * (stats.fair_price + stats.expectation)
        evaluated = assert_grid_argmax_matches_reference(
            monkeypatch, game, u_mid, 1_000_000
        )
        assert evaluated <= 35

    @pytest.mark.parametrize("u", [0.1, 2.5, 4.9])
    def test_grid_points_follow_the_cap_where_it_binds(self, u, monkeypatch):
        # ess_inf/u is below 1e-9, so the cap (1 - 1e-9) u/(u - ess_inf) lies
        # below 1 and scales every grid point
        game = Game.from_pairs([(1e-12, 0.5), (10.0, 0.5)])
        cap = (1.0 - 1e-9) * u / (u - 1e-12)
        assert cap < 1.0
        grid = {cap * (i + 1) / 1002 for i in range(1001)}
        got, calls = evaluated_points(monkeypatch, game, u, 1001)
        assert got in grid
        assert {t for t, _ in calls} <= grid

    def test_a_near_tie_cuts_nothing(self, two_point, monkeypatch):
        # Values within eta of a nearly flat concave curve, as the bound
        # allows: noise rising from -0.95 eta to 0.95 eta, and eta at point
        # 3, the first maximum. Every two points differ by less than 4 eta,
        # so no pair proves a cut, but the values other than point 3 rise:
        # a cut on f(m1) < f(m2) alone, at any probes 3 < m1 < m2, would
        # drop point 3.
        u, n = 5.5, 30
        cap = min(1.0, (1.0 - 1e-9) * u / (u - 1.0))
        t_last = cap * n / (n + 1)
        spread = 0.0
        for o in two_point.outcomes:
            x = t_last * ((o.payout - u) / u)
            spread += o.weight * (abs(math.log1p(x)) + abs(x) / (1.0 + x))
        eta = 2.0 * (2 + 8) * 2.0**-53 * spread
        noise = [0.95 * eta * (2.0 * i / (n - 1) - 1.0) for i in range(n)]
        noise[3] = eta
        values = [-1e-4 * eta * (i - 14.5) ** 2 + noise[i] for i in range(n)]
        index = {cap * (i + 1) / (n + 1): i for i in range(n)}
        assert max(values) - min(values) < 4.0 * eta
        rest = values[:3] + values[4:]
        assert all(map(float.__lt__, rest, rest[1:]))
        assert max(range(n), key=values.__getitem__) == 3
        monkeypatch.setattr(oracle, "_log_growth", lambda terms, t: values[index[t]])
        assert grid_argmax_growth(two_point, u, n) == cap * 4 / (n + 1)

    def test_flat_tops_bit_identical_to_the_full_grid(self, monkeypatch):
        # payouts 1 and 1 + d, d near 1e-7.5: about 200 of the 10**5 points
        # lie within 4 eta of the maximum, so probes deep in the search tie.
        # Expectation and fair price lie a few ulps apart, and a price drawn
        # between them may round onto either.
        rng = np.random.default_rng(4400)
        games = 0
        while games < 30:
            d = 10.0 ** float(rng.uniform(-7.8, -7.0))
            p = float(rng.uniform(0.2, 0.8))
            game = Game.from_pairs([(1.0, p), (1.0 + d, 1.0 - p)])
            stats = compute_stats(game)
            u = stats.fair_price + float(rng.uniform(0.2, 0.8)) * (
                stats.expectation - stats.fair_price
            )
            if stats.fair_price < u < stats.expectation:
                assert_grid_argmax_matches_reference(monkeypatch, game, u, 100_000)
                games += 1

    def test_matches_closed_form_root(self, two_point):
        u = 7.2236
        expected = (10.0 - u) * u / ((19.0 - u) * (u - 1.0))
        got = grid_argmax_growth(two_point, u, 1_000_000)
        step = 1.0 / 1_000_001
        assert abs(got - expected) <= step + 1e-12

    def test_argmax_near_zero_close_to_expectation(self, two_point):
        u = 9.99
        expected = (10.0 - u) * u / ((19.0 - u) * (u - 1.0))
        got = grid_argmax_growth(two_point, u, 1_000_000)
        step = 1.0 / 1_000_001
        assert got < 0.01
        assert abs(got - expected) <= step + 1e-12

    def test_argmax_just_below_cap_near_fair_price(self, two_point):
        u = 1.91
        expected = (10.0 - u) * u / ((19.0 - u) * (u - 1.0))
        got = grid_argmax_growth(two_point, u, 1_000_000)
        step = 1.0 / 1_000_001
        assert expected < 1.0
        assert abs(got - expected) <= step + 1e-12

    def test_within_one_step_of_solver_root_on_random_games(self):
        rng = np.random.default_rng(808)
        grid_points = 100_000
        for _ in range(20):
            game = random_game(rng)
            stats = compute_stats(game)
            u = stats.fair_price + float(rng.uniform(0.05, 0.95)) * (
                stats.expectation - stats.fair_price
            )
            root = pre_optimal_proportion(game, u).proportion
            got = grid_argmax_growth(game, u, grid_points)
            cap = min(1.0, (1.0 - 1e-9) * u / (u - stats.ess_inf))
            step = cap / (grid_points + 1)
            assert abs(got - root) <= step + 1e-12

    def test_domain_errors(self, two_point):
        with pytest.raises(DomainError):
            grid_argmax_growth(two_point, 7.0, 0)
        with pytest.raises(DomainError):
            grid_argmax_growth(two_point, 1.5, 100)
        with pytest.raises(DomainError):
            grid_argmax_growth(two_point, 10.5, 100)

    @pytest.mark.parametrize("grid_points", [2.5, True])
    def test_grid_points_that_are_not_integers_refused(self, two_point, grid_points):
        # 2.5 ran a 3-point grid and True a 1-point grid
        with pytest.raises(DomainError, match=r"must be an integer$"):
            grid_argmax_growth(two_point, 8.0, grid_points)


class TestSimulateWealth:
    def test_zero_proportion_exact(self, two_point):
        result = simulate_wealth(two_point, 7.0, 0.0, periods=100, paths=10, seed=5)
        assert result.mean_log_growth == 0.0
        assert result.std_error == 0.0

    def test_same_seed_bit_identical(self, two_point):
        a = simulate_wealth(two_point, 7.0, 0.25, periods=200, paths=20, seed=99)
        b = simulate_wealth(two_point, 7.0, 0.25, periods=200, paths=20, seed=99)
        assert a == b

    def test_different_seeds_differ(self, two_point):
        a = simulate_wealth(two_point, 7.0, 0.25, periods=200, paths=20, seed=1)
        b = simulate_wealth(two_point, 7.0, 0.25, periods=200, paths=20, seed=2)
        assert a.mean_log_growth != b.mean_log_growth

    def test_mean_tracks_analytic_growth_across_seeds(self, two_point):
        # the sample mean should land within 3 standard errors almost always
        u = 7.2236
        root = pre_optimal_proportion(two_point, u)
        target = math.log(root.growth)
        hits = 0
        trials = 40
        for seed in range(trials):
            sim = simulate_wealth(two_point, u, root.proportion, periods=50, paths=40, seed=seed)
            if abs(sim.mean_log_growth - target) <= 3.0 * sim.std_error:
                hits += 1
        assert hits >= math.ceil(0.95 * trials)

    def test_mean_matches_weighted_log_factors(self, two_point):
        # long-run mean must sit near the exact weighted mean of log factors
        u, t = 5.0, 0.25
        exact = math.fsum(
            o.weight * math.log1p(t * (o.payout - u) / u) for o in two_point.outcomes
        )
        sim = simulate_wealth(two_point, u, t, periods=500, paths=100, seed=31)
        assert abs(sim.mean_log_growth - exact) <= 4.0 * sim.std_error

    def test_domain_errors(self, two_point):
        with pytest.raises(DomainError):
            simulate_wealth(two_point, 0.0, 0.5, periods=10, paths=10, seed=0)
        with pytest.raises(DomainError):
            simulate_wealth(two_point, 7.0, 1.5, periods=10, paths=10, seed=0)
        with pytest.raises(DomainError):
            simulate_wealth(two_point, 7.0, -0.1, periods=10, paths=10, seed=0)
        with pytest.raises(DomainError):
            simulate_wealth(two_point, 7.0, 0.5, periods=0, paths=10, seed=0)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "must be nonnegative"),  # ran as seed 2**64 - 1
            (2**64, "must be below 2\\*\\*64"),  # ran as seed 0
            (2.7, "must be an integer"),  # ran as seed 2
            (True, "must be an integer"),  # ran as seed 1
        ],
    )
    def test_seed_outside_the_generator_refused(self, two_point, seed, message):
        with pytest.raises(DomainError, match=rf"^seed={seed!r} {message}$"):
            simulate_wealth(two_point, 7.0, 0.5, periods=10, paths=2, seed=seed)

    def test_largest_seed_and_numpy_integers_accepted(self, two_point):
        top = simulate_wealth(two_point, 7.0, 0.5, periods=10, paths=2, seed=2**64 - 1)
        assert top.seed == 2**64 - 1
        same = simulate_wealth(
            two_point, 7.0, 0.5, periods=np.int64(10), paths=2, seed=np.uint64(2**64 - 1)
        )
        assert same == top and type(same.seed) is int

    @pytest.mark.parametrize("u", [math.inf, math.nan])
    def test_non_finite_price_refused(self, two_point, u):
        # an infinite price gave a NaN mean and standard error
        with pytest.raises(DomainError, match=r"must be positive and finite$"):
            simulate_wealth(two_point, u, 0.5, 10, 2, 1)

    @pytest.mark.parametrize(
        "periods, paths", [(True, 10), (10, True), (10.0, 10), (10, 2.0)]
    )
    def test_periods_and_paths_that_are_not_integers_refused(
        self, two_point, periods, paths
    ):
        # True ran as 1, and a float ended in a TypeError from range()
        with pytest.raises(DomainError, match=r"must be an integer$"):
            simulate_wealth(two_point, 7.0, 0.5, periods=periods, paths=paths, seed=0)

    def test_full_investment_above_all_payouts_is_admissible(self, two_point):
        # u above the largest payout still gives positive wealth factors
        result = simulate_wealth(two_point, 19.5, 1.0, periods=50, paths=10, seed=0)
        assert math.isfinite(result.mean_log_growth)
        assert result.mean_log_growth < 0.0


class TestDrawCounts:
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        k=st.integers(2, 64),
        periods=st.integers(1, 2000),
        paths=st.integers(1, 50),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_only_the_number_of_draws_matters(self, k, periods, paths, seed):
        game = random_game(np.random.default_rng(seed % 1000), k, k)
        args = (game, compute_stats(game).expectation, 0.4)
        split = simulate_wealth(*args, periods=periods, paths=paths, seed=seed)
        whole = simulate_wealth(*args, periods=periods * paths, paths=1, seed=seed)
        assert split.mean_log_growth == whole.mean_log_growth
        assert split.std_error == whole.std_error

    def test_std_error_is_stable_under_a_large_common_offset(self, monkeypatch):
        # log factors all near log(2e6) with spreads near 1e-6: a one-pass
        # sum-of-squares variance cancels almost every digit here
        game = Game.from_pairs([(1e6, 0.3), (1e6 + 1.0, 0.3), (1e6 + 3.0, 0.4)])
        u, t, periods, paths, seed = 0.5, 1.0, 300, 20, 77
        real = oracle._multinomial
        drawn = []

        def recorded(*args):
            drawn.append(real(*args))
            return drawn[-1]

        monkeypatch.setattr(oracle, "_multinomial", recorded)
        sim = simulate_wealth(game, u, t, periods=periods, paths=paths, seed=seed)
        [counts] = drawn
        factors = [math.log1p(t * (o.payout - u) / u) for o in game.outcomes]
        n = periods * paths
        mean = math.fsum(c * lf for c, lf in zip(counts, factors)) / n
        var = math.fsum(c * (lf - mean) ** 2 for c, lf in zip(counts, factors)) / (n - 1)
        assert math.isclose(sim.mean_log_growth, mean, rel_tol=1e-12)
        assert math.isclose(sim.std_error, math.sqrt(var / n), rel_tol=1e-12)
        idle = simulate_wealth(game, u, 0.0, periods=periods, paths=paths, seed=seed)
        assert idle.mean_log_growth == 0.0 and idle.std_error == 0.0


class TestOracleAgainstSolver:
    def test_closed_form_tracks_solver_everywhere(self):
        rng = np.random.default_rng(909)
        for _ in range(100):
            tp = random_two_point(rng)
            game = tp.to_game()
            u = tp.low + float(rng.uniform(0.05, 0.95)) * (tp.expectation - tp.low)
            n = float(rng.uniform(-tp.low + 1e-3, 50.0))
            shifted = pre_optimal_proportion(translate(game, n), u + n)
            t_cf, g_cf = two_point_closed_form(tp, u, n)
            assert abs(shifted.proportion - t_cf) <= 1e-9 * t_cf
            assert abs(shifted.growth - g_cf) <= 1e-9 * g_cf


class TestContinuousPayoff:
    def test_gauss_legendre_prices_converge_to_the_uniform_price(self):
        # The payoff uniform on [1, 19] at r = 0.05, against its price from
        # the closed forms: the price of its N-node Gauss-Legendre game
        # falls geometrically in error up to 8 nodes, then stays within the
        # solver's tolerance (relative errors 3.8e-3, 9.8e-6 and 1.5e-10 at
        # 2, 4 and 8 nodes, 2.4e-13 and 7.1e-13 at 16 and 32).
        exact = reference.uniform_price(1.0, 19.0, 0.05)
        errors = {}
        for nodes in (2, 4, 8, 16, 32):
            x, w = np.polynomial.legendre.leggauss(nodes)
            game = game_from_nodes((10.0 + 9.0 * x).tolist(), w.tolist())
            price = Decimal(optimal_price(game, 0.05).optimal_price)
            errors[nodes] = float(abs(price - exact) / exact)
        assert errors[2] >= 100.0 * errors[4] >= 1e4 * errors[8] > 0.0
        assert max(errors[16], errors[32]) <= 1e-11

    def test_gauss_legendre_roots_find_the_triangular_lower_price_bound(self):
        # The density 2(x - 1)/18**2 on [1, 19] vanishes at its infimum, so
        # h_xi = 2/18 is finite and its lower price bound is 1 + 9 = 10. A
        # finite game has mass at its smallest node and no such bound. At
        # u = 5, below it, the continuous first-order sum is positive at the
        # cap, and the N-node root over its own cap tends to 1: 1 less the
        # ratio is 3.5e-2, 3.4e-3, 2.6e-4, 1.7e-5 and 1.1e-6 at 4 to 64
        # nodes. At u = 11.5, above it, the root settles at 0.7890 (0.7204 of
        # the continuous cap 23/21): 2.9e-3 from 4 to 8 nodes, 2.0e-6 from 8
        # to 16, then within the solver's tolerance.
        ratios, roots = [], []
        for nodes in (4, 8, 16, 32, 64):
            x, w = np.polynomial.legendre.leggauss(nodes)
            payouts = 10.0 + 9.0 * x
            game = game_from_nodes(payouts.tolist(), (w * (payouts - 1.0)).tolist())
            xi = compute_stats(game).ess_inf
            below = pre_optimal_proportion(game, 5.0).proportion
            ratios.append(1.0 - below / (5.0 / (5.0 - xi)))
            roots.append(pre_optimal_proportion(game, 11.5).proportion)
        assert all(8.0 * b <= a for a, b in zip(ratios, ratios[1:]))
        assert 0.0 < ratios[-1] <= 2e-6
        steps = [abs(b - a) for a, b in zip(roots, roots[1:])]
        assert steps[0] >= 100.0 * steps[1] and max(steps[2:]) <= 1e-11
        assert roots[-1] <= 0.75 * 11.5 / (11.5 - 1.0)


class TestVerify:
    def test_negative_seed_refused(self, two_point):
        # the stream would have run it as seed 2**64 - 1
        with pytest.raises(DomainError, match=r"^seed=-1 must be nonnegative$"):
            verify(two_point, seed=-1)

    def test_fractional_seed_refused(self, two_point):
        with pytest.raises(DomainError, match=r"^seed=2.5 must be an integer$"):
            verify(two_point, seed=2.5)

    @pytest.mark.parametrize("z", [-6.0, -4.5, 4.5, 6.0])
    def test_monte_carlo_band_is_five_standard_errors(
        self, three_point, monkeypatch, z
    ):
        # a mean 4.5 SE off passes, although a 3*SE band would fail it, and
        # one 6 SE off fails; the other checks hold either way
        real = oracle.simulate_wealth

        def off_target(game, u, t, **kwargs):
            sim = real(game, u, t, **kwargs)
            target = math.log(growth_rate(game, u, t))
            return sim._replace(mean_log_growth=target + z * sim.std_error)

        monkeypatch.setattr(oracle, "simulate_wealth", off_target)
        checks = {check.name: check for check in verify(three_point, seed=8704)}
        assert " 5*SE " in checks["monte_carlo_consistency"].detail
        assert {name: check.passed for name, check in checks.items()} == {
            "closed_form_agreement": True,
            "grid_argmax_within_one_step": True,
            "monte_carlo_consistency": abs(z) < 5.0,
            "zero_proportion_exact": True,
        }

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("fixture", ["two_point", "three_point"])
    def test_every_check_passes_on_the_fixtures(self, fixture, seed, request):
        checks = verify(request.getfixturevalue(fixture), seed=seed)
        assert [check.name for check in checks] == [
            "closed_form_agreement",
            "grid_argmax_within_one_step",
            "monte_carlo_consistency",
            "zero_proportion_exact",
        ]
        assert all(check.passed for check in checks), checks

    def test_same_seed_same_checks(self, two_point):
        assert verify(two_point, seed=7) == verify(Game(*two_point), seed=7)
        assert verify(two_point, seed=7) != verify(two_point, seed=8)
