"""Properties over generated games: payout-scale equivariance of every solver,
one regime boundary shared by all of them, additive prices below the threshold
shift, monotone prices in the rate and the shift, cap tests at the smallest
payout that refuse exactly what a per-term scan refuses, first-order sums that
are weakly decreasing in t as evaluated, proportion, price and threshold
solves from sign certificates that replay plain bisection bit for bit, the
joint Newton's Jacobian from exact identities that match direct sums, shifted
prices that keep their bits from any warm start, canonical records built as a
reference canonicalizer builds them, an exact spec round trip, and shifted
games that equal the games built from their shifted outcomes."""

import math
import struct
import sys
from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import growthprice.kernels
import growthprice.solver
import growthprice.translation
from growthprice import (
    DomainError,
    Game,
    GrowthPriceError,
    InternalConsistencyError,
    Outcome,
    Regime,
    boundary_growth,
    compute_stats,
    growth_rate,
    load_spec,
    optimal_price,
    pre_optimal_proportion,
    price_translated,
    save_spec,
    threshold_shift,
    translate,
    validate,
)
from growthprice.kernels import _first_order_kernel, _first_order_sum
from growthprice.solver import (
    _CAP_MARGIN,
    _PRICE_MARGIN,
    _bisect,
    _price_slopes,
    _solve_price,
    _solve_proportion,
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


def _clustered(a0: int, ulps: list[int], high: int) -> Game:
    # Payouts a few ulps above the smallest, where every denominator and
    # wealth factor rounds near zero together at the cap.
    low = 0.1 * a0
    payouts = {low + k * math.ulp(low) for k in ulps} | {low + 0.1 * high}
    return Game.from_pairs((a, 1.0 / len(payouts)) for a in payouts)


# games, plus games whose smaller payouts sit within 8 ulps of each other
cap_games = games | st.builds(
    _clustered,
    st.integers(1, 1000),
    st.lists(st.integers(0, 8), min_size=1, max_size=5),
    st.integers(1, 1000),
)


def _scaled(game: Game, c: float) -> Game:
    return Game.from_pairs((c * o.payout, o.weight) for o in game.outcomes)


# 2-64 outcomes, payouts on a 0.1 grid in [0.1, 1000] with integer weights,
unscaled_wide_games = st.lists(
    st.tuples(st.integers(1, 10_000), st.integers(1, 20)),
    min_size=2,
    max_size=64,
    unique_by=lambda pair: pair[0],
).map(_game)
# and at every payout scale the solvers support.
wide_games = st.builds(_scaled, unscaled_wide_games, st.sampled_from((1.0, *SCALES)))


def _near_cap(game: Game, fraction: float) -> tuple[float, float, list[float]]:
    """A price u in (ess_inf, expectation), its cap u/(u - ess_inf), and
    proportions at the cap, its float neighbours and cap * (1 +- 1e-15)."""
    stats = compute_stats(game)
    u = stats.ess_inf + fraction * (stats.expectation - stats.ess_inf)
    cap = u / (u - stats.ess_inf)
    near = [math.nextafter(cap, 0.0), cap, math.nextafter(cap, math.inf)]
    return u, cap, [*near, cap * (1.0 - 1e-15), cap * (1.0 + 1e-15)]


def _per_term_first_order_sum(game: Game, u: float, t: float) -> float:
    terms = []
    for o in game.outcomes:
        denom = (o.payout - u) * t + u
        if not denom > 0.0:
            return -math.inf
        terms.append(o.weight * (o.payout - u) / denom)
    return math.fsum(terms)


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


def _reference_canonical(records) -> tuple[Outcome, ...]:
    """Game's canonical records as built through Outcome's own __new__, with
    the payout read by a lambda: the reference that the record builder must
    match bit for bit."""
    merged: dict[float, float] = {}
    apart: list[Outcome] = []
    for o in records:
        if o.weight >= 0.0:
            merged[o.payout] = merged.get(o.payout, 0.0) + o.weight
        else:
            apart.append(o)
    canon = [Outcome(a, w) for a, w in merged.items() if w != 0.0] + apart
    canon.sort(key=lambda o: o.payout)
    return tuple(canon)


def _bits(records) -> list:
    """Each record's type, and its fields' types and bytes."""
    return [
        (type(o), type(o[0]), type(o[1]), struct.pack("<dd", *o)) for o in records
    ]


# duplicate payouts, int and float alike, and zero, negative and NaN weights
raw_pairs = st.lists(
    st.tuples(
        st.sampled_from((0.5, 1, 1.0, 2.0, -0.0, 0.0, 3))
        | st.floats(-1e3, 1e3, allow_nan=False),
        st.sampled_from((0.0, -0.0, 0.25, 1, -0.25, -1, math.nan))
        | st.floats(-1.0, 1.0, allow_nan=False),
    ),
    max_size=12,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pairs=raw_pairs, label=st.none() | st.text(max_size=3))
def test_records_are_built_as_the_reference_canonical_form_builds_them(pairs, label):
    # Each record is built once, from a plain pair; the merge, the drop of
    # zero weights, the negative and NaN weights kept apart and the stable
    # sort on the payout must give the reference's records bit for bit.
    records = [Outcome(a, w) for a, w in pairs]
    floats = [Outcome(float(a), float(w)) for a, w in pairs]
    for got, want in (
        (Game.from_pairs(pairs, label), _reference_canonical(floats)),
        (Game(records, label), _reference_canonical(records)),
        (Game(pairs, label), _reference_canonical(records)),
    ):
        assert _bits(got.outcomes) == _bits(want)
        assert all(type(o) is Outcome for o in got.outcomes)
        assert got.label == label


def _verdict(fn, game: Game) -> str:
    try:
        return repr(fn(game))
    except GrowthPriceError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    game=st.builds(_scaled, cap_games, st.sampled_from((1.0, *SCALES, 1e305))),
    label=st.none() | st.text(max_size=3),
)
def test_translate_equals_the_game_built_from_the_shifted_outcomes(game, label):
    # translate skips the merge, the sort and the validation where the
    # shifted payouts stay finite and strictly increasing; the game must be
    # the one Game builds, with the same statistics, and a shift that merges
    # payouts or overflows the largest must validate or raise as Game's does.
    game = game._replace(label=label)
    xi = compute_stats(game).ess_inf
    top = game.outcomes[-1].payout
    shifts = [
        0.0,
        5e-324,
        math.ulp(xi),
        math.nextafter(-xi, 0.0),
        -0.5 * xi,
        3,
        3.0 * top,
        1e15 * xi,  # merges the payouts nearest the infimum on some games
        1e17 * top,  # merges every payout
        sys.float_info.max,  # overflows the largest payout from 1e292 up
    ]
    for n in filter(math.isfinite, shifts):
        got = translate(game, n)
        expected = Game(
            tuple(Outcome(o.payout + n, o.weight) for o in game.outcomes),
            label=game.label,
        )
        assert type(got) is Game, n
        assert got == expected and got.label == expected.label, n
        assert [tuple(map(type, o)) for o in got.outcomes] == [
            tuple(map(type, o)) for o in expected.outcomes
        ], n
        assert _verdict(compute_stats, got) == _verdict(compute_stats, expected), n
        assert repr(validate(got)) == repr(validate(expected)), n


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


@settings(derandomize=True, deadline=None, max_examples=80)
@given(game=cap_games, fraction=st.floats(0.01, 0.99))
def test_first_order_kernels_refuse_exactly_what_a_per_term_scan_refuses(game, fraction):
    u, _, proportions = _near_cap(game, fraction)
    with patch.object(growthprice.kernels, "_VECTOR_MIN_OUTCOMES", 1):
        vector = _first_order_kernel(game)
    for t in proportions:
        expected = _per_term_first_order_sum(game, u, t)
        assert _first_order_sum(game.outcomes, u, t) == expected, t
        assert vector(u, t) == expected, t


def _kernels(game: Game):
    """The loop and the numpy first-order kernels of game."""
    with patch.object(growthprice.kernels, "_VECTOR_MIN_OUTCOMES", 1):
        vector = _first_order_kernel(game)
    return partial(_first_order_sum, game.outcomes), vector


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    game=wide_games | cap_games,
    fraction=st.floats(0.01, 0.99),
    pair=st.tuples(st.floats(0.0, 1.2), st.floats(0.0, 1.2)),
)
def test_first_order_sums_are_weakly_decreasing_in_t(game, fraction, pair):
    # The lemma that lets _solve_proportion skip certified midpoints: checked
    # on runs of adjacent floats around the root and two random proportions,
    # at the cap, and past it, where both kernels return -inf.
    u, cap, near = _near_cap(game, fraction)
    root = pre_optimal_proportion(game, u).proportion
    t1, t2 = sorted(share * cap for share in pair)
    ts = {0.0, *near, 2.0 * cap}
    for t in (root, t1, t2):
        below = above = t
        for _ in range(4):
            ts |= {below, above}
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
    ts = sorted(ts)
    for kernel in _kernels(game):
        values = [kernel(u, t) for t in ts]
        for t, a, b in zip(ts[1:], values, values[1:]):
            assert b <= a, t
        assert values[-1] == -math.inf
        assert [kernel(u, t, slope=True)[0] for t in ts] == values


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    game=wide_games,
    low=st.sampled_from(("ess_inf", "fair_price")),
    fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    tol=st.sampled_from((0.0, 1e-12, 1e-6)),
    max_iter=st.sampled_from((1, 3, 200)),
    start=st.just(math.nan) | st.floats(0.0, 1.5),
    vector=st.booleans(),
)
def test_certified_proportion_solve_replays_plain_bisection(
    game, low, fraction, tol, max_iter, start, vector
):
    # Newton from any warm start, or from the bracket midpoint, ends in the
    # same (t, residual, steps) as bisection that evaluates every midpoint.
    stats = compute_stats(game)
    low = getattr(stats, low)
    u = low + fraction * (stats.expectation - low)
    assume(low < u < stats.expectation)
    loop, numpy_kernel = _kernels(game)
    kernel = numpy_kernel if vector else loop
    hi = u / (u - stats.ess_inf) * (1.0 - _CAP_MARGIN)
    plain = _bisect(partial(kernel, u), 0.0, hi, tol, max_iter)
    certified = _solve_proportion(kernel, stats.ess_inf, u, tol, max_iter, start * hi)
    assert repr(certified) == repr(plain)


def _with_tiny_infimum_mass(game: Game, mass: float) -> Game:
    # the smallest payout keeps only `mass` of its weight
    first, *rest = game.outcomes
    pairs = [(first.payout, mass * first.weight), *((o.payout, o.weight) for o in rest)]
    total = math.fsum(weight for _, weight in pairs)
    return Game.from_pairs((a, weight / total) for a, weight in pairs)


def _has_pricing_bracket(game: Game) -> bool:
    # optimal_price refuses a game whose fair price lies within the bracket's
    # margins of its expectation
    stats = compute_stats(game)
    return stats.fair_price * (1.0 + _PRICE_MARGIN) < stats.expectation * (
        1.0 - _PRICE_MARGIN
    )


def _outcome(solve, *args, **kwargs) -> str:
    try:
        return repr(solve(*args, **kwargs))
    except (DomainError, InternalConsistencyError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    game=wide_games
    | st.builds(_scaled, cap_games, st.sampled_from(SCALES))
    | st.builds(_with_tiny_infimum_mass, wide_games, st.sampled_from((1e-9, 1e-6))),
    fraction=st.floats(0.02, 1.0 - 1e-9) | st.sampled_from((1.0 - 1e-9, 1.0 - 1e-12)),
    # 1e-4 and 1e-2 make _price_band refuse: eta above 1e-6, and tol past
    # the bracket bound
    tol=st.sampled_from((0.0, 1e-12, 1e-6, 1e-4, 1e-2)),
    max_iter=st.sampled_from((200, 1, 3, 17)),
)
def test_certified_price_and_threshold_replay_plain_bisection(
    game, fraction, tol, max_iter
):
    # Newton and its probes, with every certificate they hand _bisect, end in
    # the same result, bit for bit, as bisection through every midpoint.
    r = fraction * math.log(boundary_growth(game, 0.0))
    assume(r > 1e-15)
    for solve in (optimal_price, threshold_shift):
        certified = _outcome(solve, game, r, tol=tol, max_iter=max_iter)
        # on a fresh game, which keeps no price from the certified solve
        with patch.object(growthprice.solver, "_NEWTON_STEPS", 0):
            plain = _outcome(solve, Game(*game), r, tol=tol, max_iter=max_iter)
        assert certified == plain, solve.__name__


def _price_threshold_and_shift(game: Game, r: float) -> list[str]:
    n0 = threshold_shift(game, r).n0
    n = 0.5 * (compute_stats(game).expectation if n0 is None else n0)
    return [
        _outcome(optimal_price, game, r),
        _outcome(threshold_shift, game, r),
        _outcome(price_translated, game, r, n),
    ]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    game=st.builds(_scaled, unscaled_wide_games, st.sampled_from((1e-200, 1.0, 1e200))),
    fraction=st.floats(0.01, 1.0 - 1e-9) | st.sampled_from((1e-9, 1.0 - 1e-12, 1.5)),
)
def test_the_joint_start_moves_no_bit(game, fraction):
    # The joint root only starts the certificate search. With the joint
    # Newton giving up from every start, the shifted price's warm start
    # among them, so that the price bisects plain, every price, threshold
    # and shifted price keeps its bits.
    def gives_up(first_order_sum, game, lo, hi, u, t, r, eta):
        return None

    r = fraction * math.log(boundary_growth(game, 0.0))
    assume(r > 1e-15)
    joint = _price_threshold_and_shift(game, r)
    with patch.object(growthprice.solver, "_joint_newton", gives_up):
        assert _price_threshold_and_shift(Game(*game), r) == joint


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    game=st.builds(_scaled, unscaled_wide_games, st.sampled_from((1e-200, 1.0, 1e200))),
    fraction=st.floats(0.01, 0.99),
    share=st.floats(-0.9, 0.9),
    moves=st.tuples(
        st.sampled_from((0.0, 1e-15, -1e-9)) | st.floats(-0.9, 1.0),
        st.sampled_from((0.0, 1e-15, -1e-9)) | st.floats(-0.9, 1.0),
    ),
)
def test_a_moved_warm_start_moves_no_shifted_bit(game, fraction, share, moves):
    # price_translated starts the shifted game's joint Newton at the base
    # root mapped by the invariance. Moved off it in u and t, by rounding or
    # out of the bracket and the capped proportions, where the cold starts
    # take over, the start must leave the shifted price's bits as they are.
    r = fraction * math.log(boundary_growth(game, 0.0))
    assume(r > 1e-15)
    n0 = threshold_shift(game, r).n0
    n = share * (compute_stats(game).ess_inf if share < 0.0 else n0)
    warm = _outcome(price_translated, game, r, n)
    handed = []

    def moved(shifted, r, tol, max_iter, start=None):
        if start is not None:
            handed.append(start)
            start = tuple(x * (1.0 + move) for x, move in zip(start, moves))
        return _solve_price(shifted, r, tol, max_iter, start)

    with patch.object(growthprice.translation, "_solve_price", moved):
        assert _outcome(price_translated, Game(*game), r, n) == warm
    # both games price in the interior here, so the start was handed in
    assert len(handed) == 1


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    game=wide_games
    | st.builds(_with_tiny_infimum_mass, wide_games, st.sampled_from((1e-9, 1e-6))),
    fraction=st.floats(0.01, 0.99),
)
def test_joint_jacobian_identities_match_direct_sums(game, fraction):
    # _joint_newton takes dg/du = -sum p a/d**2 and dL/du =
    # sum p ((1 - t)/d - 1/u), d = u + t (a - u), from the kernel's (g, g_t)
    # by the identities of _price_slopes, which take sum p as 1. At the
    # price's root (u, t), where g is near 0, and at a proportion 1e-3 below
    # it, each must match its direct sum to rounding and to the game's slack
    # |sum p - 1|. With x = a - u and tau = t|x|/d, each per-term value, of g,
    # g_t or either direct sum, is within 9 eps (1 + tau) of its size, the
    # second factor for the cancellation in d; the derivative adds up to k eps
    # of its size in order, and fsum and the identities' own products a few
    # eps. So with S the sum of
    # p (1 + |x|/d + x**2/d**2 + u a/d**2 + |1 - t| u/d)(1 + tau), both
    # differ from their direct sums by at most (slack + (k + 16) eps S)/u.
    eps = 2.0**-53
    r = fraction * math.log(boundary_growth(game, 0.0))
    assume(r > 1e-15 and _has_pricing_bracket(game))
    price = optimal_price(game, r)
    u, root = price.optimal_price, price.proportion
    kernel, k = _first_order_kernel(game), len(game.outcomes)
    slack = abs(math.fsum(w for _, w in game._pairs) - 1.0)
    for t in (root, root * (1.0 - 1e-3)):
        g, g_t = kernel(u, t, slope=True)
        g_u, l_u = _price_slopes(u, t, g, g_t)
        dg, dl, sizes = [], [], []
        for a, w in game._pairs:
            x = a - u
            d = x * t + u
            dg.append(w * a / d / d)
            dl.append(w * ((1.0 - t) / d - 1.0 / u))
            size = 1.0 + abs(x) / d + (x / d) ** 2 + u / d * (a / d + abs(1.0 - t))
            sizes.append(w * size * (1.0 + t * abs(x) / d))
        bound = (slack + (k + 16) * eps * math.fsum(sizes)) / u
        assert abs(g_u + math.fsum(dg)) <= bound, (u, t)
        assert abs(l_u - math.fsum(dl)) <= bound, (u, t)
        assert bound < 1e-10 * min(abs(g_u), abs(l_u)), (u, t)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(game=cap_games, fraction=st.floats(0.01, 0.99))
def test_growth_rate_refuses_exactly_what_a_per_term_scan_refuses(game, fraction):
    u, cap, proportions = _near_cap(game, fraction)
    for t in proportions:
        factors = [t * (o.payout - u) / u for o in game.outcomes]
        refused = not t < cap or any(not x > -1.0 for x in factors)
        try:
            growth = growth_rate(game, u, t)
        except DomainError:
            assert refused, t
        else:
            assert not refused, t
            assert growth == math.exp(
                math.fsum(o.weight * math.log1p(x) for o, x in zip(game.outcomes, factors))
            )


@settings(derandomize=True, deadline=None, max_examples=15)
@given(game=games)
def test_optimal_price_is_strictly_decreasing_in_the_rate(game):
    log_b0 = math.log(boundary_growth(game, 0.0))
    rates = [k / 10 * log_b0 for k in range(1, 10)] + [0.999 * log_b0]
    prices = [optimal_price(game, r) for r in rates]
    assert all(p.regime is Regime.INTERIOR for p in prices)
    for a, b in zip(prices, prices[1:]):
        assert a.optimal_price > b.optimal_price, b.rate


@settings(derandomize=True, deadline=None, max_examples=15)
@given(game=games, fraction=st.floats(0.1, 0.9))
def test_shifted_price_is_strictly_increasing_in_the_shift(game, fraction):
    # The grid runs from -0.9 ess_inf to 3 n0, across the regime switch at n0.
    r = fraction * math.log(boundary_growth(game, 0.0))
    n0 = threshold_shift(game, r).n0
    low = -0.9 * compute_stats(game).ess_inf
    shifts = [low + k / 12 * (3.0 * n0 - low) for k in range(13)]
    prices = [price_translated(game, r, n).optimal_price for n in shifts]
    for n, a, b in zip(shifts[1:], prices, prices[1:]):
        assert a < b, n
