"""Oracle routes: closed forms, grid argmax, seeded wealth simulation."""

import math
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_game, random_two_point
from growthprice import oracle
from growthprice import (
    DomainError,
    Game,
    TwoPointGame,
    compute_stats,
    grid_argmax_growth,
    growth_rate,
    pre_optimal_proportion,
    simulate_wealth,
    translate,
    two_point_closed_form,
    verify,
)


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
    """The full grid, its log growth and its first argmax, one temporary
    array per operation."""
    stats = compute_stats(game)
    cap = min(1.0, (1.0 - 1e-9) * u / (u - stats.ess_inf))
    ts = cap * np.arange(1, grid_points + 1, dtype=np.float64) / (grid_points + 1)
    log_growth = np.zeros_like(ts)
    for o in game.outcomes:
        log_growth += o.weight * np.log1p(ts * ((o.payout - u) / u))
    return ts, log_growth, float(ts[int(np.argmax(log_growth))])


def assert_grid_argmax_matches_reference(monkeypatch, game, u, grid_points):
    """grid_argmax_growth returns the reference argmax, and every value it
    evaluates, in the coarse pass and in the window, is bit-equal to the
    reference value at the same grid point. Returns the number of points
    in the window."""
    real_log_growth = oracle._log_growth
    calls = []

    def spy(game, u, ts):
        values = real_log_growth(game, u, ts)
        calls.append((ts.copy(), values.copy()))
        return values

    monkeypatch.setattr(oracle, "_log_growth", spy)
    got = grid_argmax_growth(game, u, grid_points)
    monkeypatch.undo()
    ts, log_growth, argmax = reference_grid(game, u, grid_points)
    assert got == argmax
    assert len(calls) == 2
    for points, values in calls:
        index = np.searchsorted(ts, points)
        assert np.array_equal(ts[index].view(np.uint64), points.view(np.uint64))
        assert np.array_equal(log_growth[index].view(np.uint64), values.view(np.uint64))
    window, _ = calls[-1]
    start = int(np.searchsorted(ts, window[0]))
    assert np.array_equal(ts[start : start + window.size], window)
    assert window[0] <= got <= window[-1]
    return window.size


def scaled(game, c):
    return Game.from_pairs((o.payout * c, o.weight) for o in game.outcomes)


_MASK64 = (1 << 64) - 1


def stream_output(seed, i):
    """Output i of the counter-based splitmix64 stream: the splitmix64
    finalizer of seed + (i + 1) * gamma, on Python integers."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def bucket_edges(game):
    cum = list(accumulate(o.weight for o in game.outcomes))
    cum[-1] = 1.0
    return cum


def scalar_counts(cum, periods, paths, seed):
    """Draws per bucket from the scalar stream and a linear scan; path j
    makes draws j * periods to (j + 1) * periods - 1."""
    counts = [0] * len(cum)
    for j in range(paths):
        for i in range(j * periods, (j + 1) * periods):
            x = (stream_output(seed & _MASK64, i) >> 11) * 2.0**-53
            k = 0
            while x >= cum[k]:
                k += 1
            counts[k] += 1
    return counts


class TestGridArgmax:
    @pytest.mark.parametrize("k", [2, 3, 5, 12, 28, 64])
    def test_window_bit_identical_to_the_full_grid(self, k, monkeypatch):
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
    def test_window_bit_identical_at_extreme_payout_scales(self, k, c, monkeypatch):
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
    def test_window_bit_identical_at_the_ends_of_the_price_range(
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
    def test_window_bit_identical_on_small_and_odd_grids(
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
        # the window is the whole grid and its first point the argmax
        game = Game.from_pairs([(1e-300, 0.5), (1e300, 0.5)])
        window = assert_grid_argmax_matches_reference(monkeypatch, game, 4e-300, 1000)
        assert window == 1000
        assert grid_argmax_growth(game, 4e-300, 1000) == 1.0 / 1001

    def test_two_point_window_at_a_million_points(self, two_point, monkeypatch):
        # verify's grid: 1000 coarse points and a window of at most
        # 2 * 1000 - 1, against 10**6 for the whole grid
        window = assert_grid_argmax_matches_reference(
            monkeypatch, two_point, 5.5, 1_000_000
        )
        assert window <= 1999

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


class TestDrawStream:
    @pytest.mark.parametrize(
        "k, periods, paths, seed",
        [
            (2, 200, 50, 7),
            (64, 20, 30, 11),
            (2, 1, 300, 3),
            (64, 1, 1, 5),
            (7, 40, 25, 2**63 + 12345),
            (5, 2, oracle._BLOCK_DRAWS + 37, 2**64 - 1),
            (6, 10**5, 1, 2**64 - 1),
            (12, 1001, 37, 0),
            (3, 7, 3, 2**63 + 12345),
            (2, 1, 1, 2**64 - 1),
            (4, 3, oracle._BLOCK_DRAWS + 37, 8),
        ],
    )
    def test_counts_equal_the_scalar_stream(self, k, periods, paths, seed):
        cum = bucket_edges(random_game(np.random.default_rng(k), k, k))
        got = oracle._draw_counts(cum, periods * paths, seed & _MASK64)
        assert got == scalar_counts(cum, periods, paths, seed)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(
        k=st.integers(2, 64),
        periods=st.integers(1, 3000),
        paths=st.integers(1, 50),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_counts_equal_the_scalar_stream_for_any_shape(self, k, periods, paths, seed):
        cum = bucket_edges(random_game(np.random.default_rng(seed % 1000), k, k))
        assert oracle._draw_counts(cum, periods * paths, seed) == scalar_counts(
            cum, periods, paths, seed
        )

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

    @pytest.mark.parametrize(
        "start, stop", [(0, 1), (0, 100), (2**40 - 3, 2**40 + 50)]
    )
    def test_stream_wraps_silently_at_the_largest_seed(self, start, stop):
        # seed + (i + 1) * gamma and both products wrap mod 2**64; with a
        # Python or int64 integer in the arithmetic, numpy before NEP 50
        # would compute in float64, and numpy scalar arithmetic warns on wrap
        seed = 2**64 - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = oracle._stream(seed, start, stop)
        assert got.dtype == np.uint64
        assert got.tolist() == [stream_output(seed, i) for i in range(start, stop)]

    @pytest.mark.parametrize("block_draws", [1, 10**9])
    def test_block_size_does_not_change_the_result(self, monkeypatch, block_draws):
        game = random_game(np.random.default_rng(66), 6, 6)
        args = (game, compute_stats(game).expectation, 0.3)
        expected = simulate_wealth(*args, periods=45, paths=9, seed=2**63 + 1)
        monkeypatch.setattr(oracle, "_BLOCK_DRAWS", block_draws)
        assert simulate_wealth(*args, periods=45, paths=9, seed=2**63 + 1) == expected

    def test_std_error_is_stable_under_a_large_common_offset(self):
        # log factors all near log(2e6) with spreads near 1e-6: a one-pass
        # sum-of-squares variance cancels almost every digit here
        game = Game.from_pairs([(1e6, 0.3), (1e6 + 1.0, 0.3), (1e6 + 3.0, 0.4)])
        u, t, periods, paths, seed = 0.5, 1.0, 300, 20, 77
        sim = simulate_wealth(game, u, t, periods=periods, paths=paths, seed=seed)
        counts = scalar_counts(bucket_edges(game), periods, paths, seed)
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


class TestVerify:
    def test_negative_seed_refused(self, two_point):
        # numpy's default_rng refuses it too, but with a ValueError
        with pytest.raises(DomainError, match=r"^seed=-1 must be nonnegative$"):
            verify(two_point, seed=-1)

    def test_fractional_seed_refused(self, two_point):
        # numpy's SeedSequence ended it in a TypeError
        with pytest.raises(DomainError, match=r"^seed=2.5 must be an integer$"):
            verify(two_point, seed=2.5)

    def test_monte_carlo_band_passes_seed_8704(self, three_point):
        # 200 x 100 draws put this seed's mean 3.12 SE below the log growth,
        # outside a 3*SE band, although the solver is correct
        checks = {check.name: check for check in verify(three_point, seed=8704)}
        check = checks["monte_carlo_consistency"]
        assert check.passed, check.detail
        assert " 5*SE " in check.detail

    @pytest.mark.parametrize("z", [-6.0, 6.0])
    def test_monte_carlo_band_fails_a_mean_six_standard_errors_off(
        self, three_point, monkeypatch, z
    ):
        real = oracle.simulate_wealth

        def off_target(game, u, t, **kwargs):
            sim = real(game, u, t, **kwargs)
            target = math.log(growth_rate(game, u, t))
            return sim._replace(mean_log_growth=target + z * sim.std_error)

        monkeypatch.setattr(oracle, "simulate_wealth", off_target)
        checks = {check.name: check.passed for check in verify(three_point, seed=8704)}
        assert checks == {
            "closed_form_agreement": True,
            "grid_argmax_within_one_step": True,
            "monte_carlo_consistency": False,
            "zero_proportion_exact": True,
        }
