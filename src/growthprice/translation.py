"""Behavior of games under parallel payout shifts.

Shifting every payout by n (admissible for n > -ess_inf) leaves two
quantities unchanged for any fixed price u inside the admissible interval:
the ratio of the raw optimal proportion to its price, and the growth rate at
that proportion. Optimal prices shift additively with n as long as exp(rate)
stays below the boundary growth of both the original and the shifted game;
past a threshold shift the pricing regime switches to full investment, and
for large shifts the optimal price approaches the shifted expectation
discounted by exp(rate).
"""

from __future__ import annotations

import math
from enum import Enum
from operator import sub
from typing import NamedTuple, Sequence

from .errors import DomainError, InternalConsistencyError
from .games import (
    Game,
    _harmonic,
    _log_moment,
    _shifted_payouts,
    compute_stats,
    translate,
)
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    PricingSolution,
    Regime,
    _EPS,
    _bisect,
    _full_investment,
    _growth_target,
    _kept_boundary_growth,
    _log_newton,
    _newton_certificates,
    _relative_spread,
    _require_bisect_args,
    _shift_slope,
    optimal_price,
    pre_optimal_proportion,
)

# Relative agreement required between pricing the shifted game directly and
# shifting the original optimal price. Converged solves agree to about 3e-12
# relative at every payout scale.
TRANSLATION_CHECK_TOL = 1e-9

# Threshold search: initial upper bound factor.
_SEARCH_START_FACTOR = 10.0


class TranslationReport(NamedTuple):
    """Both sides of the shift-invariance identities at one (u, n) pair."""

    shift: float
    ratio_original: float
    ratio_translated: float
    ratio_residual: float
    growth_original: float
    growth_translated: float
    growth_residual: float


def check_invariance(
    game: Game,
    u: float,
    n: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TranslationReport:
    """Compare the original game at price u with the game shifted by n at
    price u + n.

    Both raw (uncapped) roots are solved independently; the report stores
    both sides of the proportion-to-price ratio and of the growth rate at
    the root, along with their absolute residuals.
    """
    base = pre_optimal_proportion(game, u, tol=tol, max_iter=max_iter)
    shifted = pre_optimal_proportion(
        translate(game, n), u + n, tol=tol, max_iter=max_iter
    )
    ratio_original = base.proportion / u
    ratio_translated = shifted.proportion / (u + n)
    return TranslationReport(
        shift=n,
        ratio_original=ratio_original,
        ratio_translated=ratio_translated,
        ratio_residual=abs(ratio_translated - ratio_original),
        growth_original=base.growth,
        growth_translated=shifted.growth,
        growth_residual=abs(shifted.growth - base.growth),
    )


def boundary_growth(game: Game, n: float) -> float:
    """Growth rate of the shifted game at its fair price with full investment.

    Equals compute_stats(translate(game, n)).boundary_growth bit for bit,
    without building the shifted game unless rounding merges its payouts:
    it makes translate's shift check and the statistics' own sums, on the
    arrays that a price solve kept on a wide game (solver's
    _kept_boundary_growth) and in a loop elsewhere. Strictly decreasing in
    n with limit 1.
    """
    growth = _kept_boundary_growth(game, n)
    if growth is not None:
        return growth
    payouts = _shifted_payouts(game, n)
    if payouts is None:
        # Rounding merged adjacent payouts, the largest overflowed or the
        # smallest left the normal floats: the shifted game is not these
        # outcomes, so build and validate it.
        return compute_stats(translate(game, n)).boundary_growth
    weights = game._columns[1]
    return _harmonic(payouts, weights) * math.exp(_log_moment(payouts, weights))


class ThresholdStatus(Enum):
    """Whether a regime-switch shift exists at the given rate."""

    FOUND = "found"
    ALREADY_FULL_INVESTMENT_AT_ZERO_SHIFT = "already_full_investment_at_zero_shift"


class ThresholdResult(NamedTuple):
    """Shift at which pricing switches to the full-investment regime.

    n0 and residual are None when the unshifted game already prices in the
    full-investment regime; otherwise residual is the absolute mismatch of
    the boundary growth against exp(rate) at n0.
    """

    rate: float
    n0: float | None
    residual: float | None
    regime_note: ThresholdStatus


def threshold_shift(
    game: Game,
    r: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ThresholdResult:
    """Solve boundary_growth(game, n0) = exp(r) for the regime-switch shift.

    The boundary growth is strictly decreasing in the shift, so
    solver._bisect, with floor ess_inf, finds the root on [0, n_hi], with
    n_hi found by doubling from 10 * expectation, so tol is relative to the
    payout scale. The exact B drops below exp(r) long before a shift that
    merges every payout, so a doubling that reaches one raises
    InternalConsistencyError. The doubling ends there at the latest: an
    infinite shift merges every payout. When exp(r) already exceeds the
    unshifted boundary growth there is nothing to solve and the status says
    so.

    The bisection is replayed from the sign certificates of
    solver._newton_certificates (the lemma in the solver module docstring).
    Newton runs on log B(n) - r, with the slope of solver._shift_slope. On
    a wide game that an earlier price solve left arrays on, its numpy log B
    steers Newton and only the probes and the bisection evaluate B (the
    steer and certify rule in the solver module docstring); nothing here
    builds arrays. It starts from the large-shift asymptote
    n0 ~ sigma/sqrt(2 expm1(r)) - E - 2 mu3/(3 sigma**2), with central
    moments sigma**2 and mu3 (solver._relative_spread), or from the tangent
    of log B at n = 0 where that lies further out: near the boundary the
    asymptote is negative and the tangent close. Where log B is convex, as
    its large-shift decay sigma**2/(2 m**2) is, Newton from below n0 climbs
    to it without overshooting.

    eta bounds the error of log boundary_growth as evaluated, with
    eps = 2**-53 and Lambda the largest |log(a_i + n)| over [0, n_hi]. Each
    shifted payout is within eps of a + n, which moves its log by at most
    1.01 eps; the log is faithful (2 eps) and the product with p adds eps,
    so each term of the log moment is within eps (3.01 |log(a + n)| + 1.01)
    and their fsum within eps (4.02 Lambda + 1.01). The harmonic sum has
    positive terms, each within 2.01 eps, and fsum adds eps: 3.01 eps.
    exp (faithful) adds 2.01 eps and the product 1.01 eps, so the log of the
    result is within eps (4.02 Lambda + 7.04) of log B(n). Where rounding
    merges m payouts, boundary_growth validates the shifted game, which sums
    their weights with up to m - 1 more roundings: eps ((m + 3) Lambda +
    m + 6.04). A shift in [0, n_hi] moves each payout by at most
    eps (a_max + n_hi) in rounding, so it merges none where every gap
    between adjacent payouts exceeds 4 eps (a_max + n_hi), the 4 covering
    the roundings of that test. There c = 8 covers the bound, elsewhere
    c = k + 8, with k outcomes, covers both, and eta = c eps (1 + Lambda).
    """
    target = _growth_target(r)
    _require_bisect_args(tol, max_iter)
    stats = compute_stats(game)
    b0 = stats.boundary_growth
    if _full_investment(stats, target):
        if target == b0:
            return ThresholdResult(
                rate=r, n0=0.0, residual=0.0, regime_note=ThresholdStatus.FOUND
            )
        return ThresholdResult(
            rate=r,
            n0=None,
            residual=None,
            regime_note=ThresholdStatus.ALREADY_FULL_INVESTMENT_AT_ZERO_SHIFT,
        )
    outcomes = game._pairs
    hi = _SEARCH_START_FACTOR * stats.expectation
    while boundary_growth(game, hi) >= target:
        hi *= 2.0
        if outcomes[0][0] + hi == outcomes[-1][0] + hi:
            raise InternalConsistencyError(
                f"boundary growth failed to drop below exp(r)={target!r} for shifts"
                f" up to {hi!r}; the weights sum to {math.fsum(game._columns[1])!r}"
            )
    mean = stats.expectation
    shift_slope = _shift_slope(game)

    def excess(n: float, slope: bool = False) -> float | tuple[float, float, float]:
        res = boundary_growth(game, n) - target
        return _log_newton(res, shift_slope(n)[0], target, eta) if slope else res

    def steer(n: float) -> tuple[float, float, float]:
        slope, log_b = shift_slope(n)
        return _log_newton(math.expm1(log_b - r) * target, slope, target, eta)

    var, mu3 = _relative_spread(game, mean, third=True)
    start = math.nan
    if var > 0.0:
        start = mean * (
            math.sqrt(var / (2.0 * math.expm1(r))) - 1.0 - 2.0 * mu3 / (3.0 * var)
        )
    # the later of the tangent at n = 0 and the asymptote, where each is a number
    slope, log_b0 = shift_slope(0.0)
    if slope < 0.0:
        start = max((r - math.log(b0)) / slope, start)
    largest_log = max(
        abs(math.log(outcomes[0][0])), abs(math.log(outcomes[-1][0] + hi))
    )
    width = 4.0 * _EPS * (outcomes[-1][0] + hi)
    merges = min(map(sub, game._columns[0][1:], game._columns[0])) <= width
    eta = ((len(outcomes) if merges else 0) + 8) * _EPS * (1.0 + largest_log)
    steered = None if math.isnan(log_b0) else steer
    pos, _, neg, _ = _newton_certificates(
        excess, 0.0, hi, start, 3.0 * eta * target, steer=steered
    )
    n0, res, _ = _bisect(
        excess, 0.0, hi, tol, max_iter, floor=stats.ess_inf, pos=pos, neg=neg
    )
    return ThresholdResult(
        rate=r, n0=n0, residual=abs(res), regime_note=ThresholdStatus.FOUND
    )


def price_translated(
    game: Game,
    r: float,
    n: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PricingSolution:
    """Optimal price of the game shifted by n at rate r.

    Whenever the original and the shifted game both price in the interior
    regime, the result must equal the original optimal price plus n; the
    two routes are compared to TRANSLATION_CHECK_TOL relative, and a
    mismatch raises InternalConsistencyError, whose message says when either
    solve stopped short of tol at max_iter. The original price is
    optimal_price(game, r, tol=tol, max_iter=max_iter), which the game keeps:
    a caller that has just priced the game with these arguments, or prices
    it after this call, pays for one solve. The shifted game is built anew,
    so its price is always solved, on a wide game's kept arrays plus n
    (solver._first_order_kernel).
    """
    target = _growth_target(r)
    solution = optimal_price(translate(game, n), r, tol=tol, max_iter=max_iter)
    if solution.regime is Regime.FULL_INVESTMENT:
        return solution
    base = optimal_price(game, r, tol=tol, max_iter=max_iter)
    if base.regime is Regime.INTERIOR:
        expected = base.optimal_price + n
        gap = abs(solution.optimal_price - expected)
        if gap > TRANSLATION_CHECK_TOL * abs(expected):
            message = (
                f"shifted optimal price {solution.optimal_price!r} disagrees"
                f" with original-plus-shift {expected!r} beyond relative"
                f" {TRANSLATION_CHECK_TOL}"
            )
            res = (solution.growth_check - target, base.growth_check - target)
            if max(map(abs, res)) > tol:
                message += (
                    "; the solves stopped before tolerance: growth residuals"
                    f" {res[0]!r} shifted, {res[1]!r} original, max_iter={max_iter}"
                )
            raise InternalConsistencyError(message)
    return solution


class AsymptoticRow(NamedTuple):
    """Large-shift tracking quantities for one shift value.

    gap: shifted expectation minus shifted fair price (drops to 0).
    boundary_growth: regime boundary of the shifted game (drops to 1).
    price_ratio: shifted optimal price over shifted expectation (tends to
    exp(-rate)).
    monotone_witness: shifted fair price minus the shift (increases toward
    the unshifted expectation).
    """

    shift: float
    gap: float
    boundary_growth: float
    price_ratio: float
    monotone_witness: float


def asymptotic_sweep(
    game: Game,
    r: float,
    shifts: Sequence[float],
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[AsymptoticRow]:
    """Track the large-shift quantities along a nonempty, strictly
    increasing list of shifts, one row per shift in input order.

    No trend is asserted here; the sweep command and the test suite check
    the expected monotonicity and limits.
    """
    _growth_target(r)
    values = [float(n) for n in shifts]
    if not values:
        raise DomainError("shifts must list at least one shift")
    for prev, nxt in zip(values, values[1:]):
        if not nxt > prev:
            raise DomainError(
                f"shifts must be strictly increasing, got {prev!r} before {nxt!r}"
            )
    rows: list[AsymptoticRow] = []
    for n in values:
        shifted = translate(game, n)
        stats = compute_stats(shifted)
        pricing = optimal_price(shifted, r, tol=tol, max_iter=max_iter)
        rows.append(
            AsymptoticRow(
                shift=n,
                gap=stats.expectation - stats.fair_price,
                boundary_growth=stats.boundary_growth,
                price_ratio=pricing.optimal_price / stats.expectation,
                monotone_witness=stats.fair_price - n,
            )
        )
    return rows
