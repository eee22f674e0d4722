"""Log-optimal proportion of investment and growth-based pricing.

At price u and proportion t, one period multiplies wealth by
``a*t/u - t + 1`` where ``a`` is the drawn payout. The raw (uncapped)
optimal proportion is the unique root in t of the first-order condition

    sum_i p_i * (a_i - u) / ((a_i - u)*t + u) = 0,

which is strictly decreasing in t and positive at t=0 whenever u is below
the expectation. The growth rate at (u, t) is the geometric mean wealth
factor ``exp(sum_i p_i * log(a_i*t/u - t + 1))``.

For prices above the fair price 1/H the raw root lies in (0, 1) and is the
no-borrowing optimum; at or below the fair price the optimum is full
investment (t = 1). The optimal price at a riskless rate r equates the best
achievable growth rate with exp(r).

Every root, here and in translation.py, is the root _bisect returns: each
curve is strictly decreasing, so bisection converges on it unconditionally.
_bisect returns the last midpoint of its search, the residual there and the
number of bisection steps it took, and stops when any of these holds: the
bracket [lo, hi] is no wider than tol * max(floor, hi) and the residual is
at most tol in absolute value; the bracket can no longer be split; or it
has taken max_iter steps. The floor is 0 for proportions and prices, whose
widths are relative, and ess_inf for the threshold shift, whose root may lie
near 0. _bisect refuses max_iter below 1 and tol outside [0, inf), and so
does every solver, even where the regime gives the answer in closed form.
Everything here is a pure function of immutable inputs and is safe to call
concurrently.

The proportion bisection is replayed rather than run. Each term
p*(a - u)/((a - u)*t + u) is made of IEEE operations that round
monotonically and are not fused, so as evaluated it is weakly decreasing in
t; math.fsum rounds the exact sum of the terms correctly, so the evaluated
first-order sum is weakly decreasing in t too, and the -inf past the cap
keeps that. A midpoint at or below a point where the sum was found
positive therefore takes the same branch as that point, and so does one at
or above a point where it was found non-positive. _solve_proportion finds
the root by safeguarded Newton (Brent 1973, ch. 4; rtsafe in Numerical
Recipes), warm-started in optimal_price from the previous trial price,
probes the sign just either side of it, and hands the two closest such
certificates to _bisect. _bisect then evaluates only the few midpoints
between them, and where it needs a residual, and returns what plain
bisection returns, bit for bit, in the same number of steps. The price and
threshold curves are not provably monotone as evaluated, so their
bisections evaluate every midpoint.

The first-order sum has two kernels, chosen once per solve from the number
of outcomes, each of which returns the derivative in t next to the sum
when asked. Below _VECTOR_MIN_OUTCOMES a plain loop over the outcomes is
fastest; from there up, numpy forms the terms from arrays of the game's
payouts and weights, which pays off because the per-call overhead of numpy
no longer dominates. A single evaluation outside a solve always takes the
loop. Both kernels form every term with the same IEEE operations in the
same order and add them with math.fsum, which rounds the exact sum
correctly, so they return the same sum and no result depends on which
kernel ran; the derivative only steers Newton. Growth rates keep
math.log1p per term on both widths, since numpy's transcendental functions
need not round like the C library's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

from .errors import DomainError
from .games import Game, Outcome, compute_stats

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200

# Relative gap kept below the proportion cap u/(u - ess_inf), where the
# first-order sum diverges for games with mass at the infimum.
_CAP_MARGIN = 1e-13
# Relative gap kept inside the (fair_price, expectation) pricing bracket.
_PRICE_MARGIN = 1e-12
# Outcome count from which the first-order sum runs on numpy arrays. A solve
# makes about as many evaluations with the derivative (Newton) as without
# (probes and bisection). On payouts 1..k with equal weights, best of 9 with
# the two kernels alternating in one process, one evaluation at u = 15,
# t = 0.5 took 7.4 us looped against 5.1 us on numpy at 40 outcomes for the
# sum alone, and 7.0 against 7.4 with the derivative; at 48, 9.1 against 5.8
# and 8.6 against 8.4. Whole optimal_price solves took 1.87 ms looped against
# 1.84 ms at 32 outcomes, 2.13 against 1.94 at 40 and 2.43 against 2.17 at
# 48 (best of 15; Python 3.11, numpy 2.4, 2 vCPUs). They cross between 32 and
# 48, and both kernels return the same float. One kernel and call alone:
#   PYTHONPATH=src python -m timeit -r 9 -s "import growthprice.solver as s;
#   s._VECTOR_MIN_OUTCOMES = 1; k = 40; f = s._first_order_kernel(
#   s.Game.from_pairs((1.0 + i, 1 / k) for i in range(k)))"
#   "f(15.0, 0.5, slope=True)"
# with 10**9 in place of 1 for the loop.
_VECTOR_MIN_OUTCOMES = 40
# Newton on the first-order sum stops once its step is at most _NEWTON_RTOL
# of the proportion, or after _NEWTON_MAX_STEPS evaluations; the sign is then
# probed at _PROBE_GAP on either side of the root it found. Newton converges
# quadratically, so a step of 1e-9 leaves an error far inside the probe gap.
_NEWTON_RTOL = 1e-9
_NEWTON_MAX_STEPS = 60
_PROBE_GAP = 1e-14
# Below this max_iter the proportion is found by plain bisection. Newton and
# its probes cost about 8 first-order evaluations per solve, and plain
# bisection max_iter. Over 60 random games (half of them two-point) a
# proportion solve made 7.9 with certificates; an optimal_price made 49.1
# with them against 49 without at max_iter 7, and 55.0 against 64 at 8.
_NEWTON_MIN_ITER = 8


@dataclass(frozen=True)
class ProportionSolution:
    """Result of solving for the proportion of investment at one price.

    `residual` is the value of the first-order sum at the returned
    proportion; for uncapped roots it is within the solver tolerance, for
    regime-capped solutions (proportion 1) it is merely diagnostic.
    """

    price: float
    proportion: float
    growth: float
    residual: float
    iterations: int


class Regime(Enum):
    """Which branch of the pricing optimum applies."""

    INTERIOR = "interior"
    FULL_INVESTMENT = "full_investment"


@dataclass(frozen=True)
class PricingSolution:
    """Optimal price of a game at a riskless rate.

    `growth_check` is the growth rate recomputed at (optimal_price,
    proportion); it must equal exp(rate) up to solver tolerance.
    """

    rate: float
    optimal_price: float
    regime: Regime
    proportion: float
    growth_check: float


def _first_order_sum(
    outcomes: tuple[Outcome, ...], u: float, t: float, slope: bool = False
) -> float | tuple[float, float]:
    """sum_i p_i (a_i - u) / ((a_i - u) t + u); -inf past the cap. With
    slope, the pair of that sum and its derivative in t,
    -sum_i p_i (a_i - u)**2 / ((a_i - u) t + u)**2, which is -inf past the cap
    too. For t >= 0 each rounded denominator is non-decreasing in the payout,
    so the smallest payout's is the least, and it is positive exactly when
    all of them are."""
    if not (outcomes[0].payout - u) * t + u > 0.0:
        return (-math.inf, -math.inf) if slope else -math.inf
    terms = []
    derivative = 0.0
    for o in outcomes:
        x = o.payout - u
        d = x * t + u
        term = o.weight * x / d
        terms.append(term)
        derivative -= term * x / d
    total = math.fsum(terms)
    return (total, derivative) if slope else total


def _first_order_kernel(game: Game) -> Callable[..., float | tuple[float, float]]:
    """The first-order sum of game as a function of (u, t, slope=False).

    Equal, bit for bit, to _first_order_sum(game.outcomes, u, t), and with
    slope its derivative is equal to rounding.
    """
    if len(game.outcomes) < _VECTOR_MIN_OUTCOMES:
        return partial(_first_order_sum, game.outcomes)
    import numpy as np

    lowest = game.outcomes[0].payout
    payouts = np.array([o.payout for o in game.outcomes])
    weights = np.array([o.weight for o in game.outcomes])

    def first_order_sum(
        u: float, t: float, slope: bool = False
    ) -> float | tuple[float, float]:
        if not (lowest - u) * t + u > 0.0:
            return (-math.inf, -math.inf) if slope else -math.inf
        x = payouts - u
        d = x * t + u
        terms = weights * x / d
        total = math.fsum(terms.tolist())
        return (total, -float((terms * x / d).sum())) if slope else total

    return first_order_sum


def _log_growth(outcomes: tuple[Outcome, ...], u: float, t: float) -> float:
    return math.fsum(
        o.weight * math.log1p(t * (o.payout - u) / u) for o in outcomes
    )


def _require_bisect_args(tol: float, max_iter: int) -> None:
    """Refuse a tolerance or evaluation cap that _bisect cannot honour."""
    if not max_iter >= 1:
        raise DomainError(f"max_iter={max_iter!r} must be at least 1")
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol={tol!r} must satisfy 0 <= tol < inf")


def _bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_iter: int,
    floor: float = 0.0,
    pos: float = -math.inf,
    neg: float = math.inf,
) -> tuple[float, float, int]:
    """Bisect a decreasing f on [lo, hi] for its root.

    Returns (x, f(x), steps) for the last midpoint, under the stopping rule
    in the module docstring. pos and neg are sign certificates: points where
    f was found positive and non-positive. For an f that is weakly decreasing
    as evaluated, every midpoint at or below pos takes the lo branch and
    every one at or above neg the hi branch, so f is evaluated there only
    when the width test needs the residual or the search ends on it. With the
    default certificates every midpoint is evaluated.
    """
    _require_bisect_args(tol, max_iter)
    x = 0.5 * (lo + hi)
    res = f(x) if pos < x < neg else None
    steps = 1
    while steps < max_iter:
        if (x <= pos) if res is None else (res > 0.0):
            lo = x
        else:
            hi = x
        if hi - lo <= tol * (hi if hi > floor else floor):
            if res is None:
                res = f(x)
            if abs(res) <= tol:
                break
        nxt = 0.5 * (lo + hi)
        if nxt == lo or nxt == hi:
            break
        x = nxt
        res = f(x) if pos < x < neg else None
        steps += 1
    if res is None:
        res = f(x)
    return x, res, steps


def _solve_proportion(
    first_order_sum: Callable[..., float | tuple[float, float]],
    xi: float,
    u: float,
    tol: float,
    max_iter: int,
    start: float = math.nan,
) -> tuple[float, float, int]:
    """Bisect the first-order sum over (0, u/(u - xi)), from certificates.

    The sum is positive at 0 for u below the expectation and strictly
    decreasing, so [0, cap) brackets the unique root. Safeguarded Newton,
    from start when it lies inside the bracket and from its midpoint
    otherwise, finds the root first. Every point it evaluates, and one probe
    at t*(1 -+ _PROBE_GAP) on each side not yet certified that closely, is a
    sign certificate for _bisect, which then returns what plain bisection
    returns, bit for bit, from a handful of evaluations. Below
    _NEWTON_MIN_ITER steps that handful costs more than the steps, so
    _bisect runs without certificates.
    """
    hi = u / (u - xi) * (1.0 - _CAP_MARGIN)
    f = partial(first_order_sum, u)
    if max_iter < _NEWTON_MIN_ITER:
        return _bisect(f, 0.0, hi, tol, max_iter)
    pos, neg = -math.inf, math.inf
    t = start if 0.0 < start < hi else 0.5 * hi
    for _ in range(_NEWTON_MAX_STEPS):
        s, ds = f(t, slope=True)
        if s > 0.0:
            pos = t
        elif s <= 0.0:
            neg = t
        step = s / ds if ds < 0.0 else math.nan
        t -= step
        if abs(step) <= _NEWTON_RTOL * t:
            break
        lo, up = max(pos, 0.0), min(neg, hi)
        if not lo < t < up:
            t = 0.5 * (lo + up)
    for probe in (t * (1.0 - _PROBE_GAP), t * (1.0 + _PROBE_GAP)):
        if pos < probe < neg:
            s = f(probe)
            if s > 0.0:
                pos = probe
            elif s <= 0.0:
                neg = probe
    return _bisect(f, 0.0, hi, tol, max_iter, pos=pos, neg=neg)


def proportion_residual(game: Game, u: float, t: float) -> float:
    """Value of the first-order sum at (u, t).

    Strictly decreasing in t on [0, u/(u - ess_inf)) and equal to
    (expectation - u)/u at t = 0. The price must exceed the essential
    infimum and t must stay below the cap so every denominator is positive.
    """
    stats = compute_stats(game)
    if not u > stats.ess_inf:
        raise DomainError(f"price u={u!r} must exceed ess_inf = {stats.ess_inf!r}")
    cap = u / (u - stats.ess_inf)
    if not (0.0 <= t < cap):
        raise DomainError(
            f"proportion t={t!r} outside [0, u/(u - ess_inf)) = [0, {cap!r})"
        )
    return _first_order_sum(game.outcomes, u, t)


def pre_optimal_proportion(
    game: Game,
    u: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ProportionSolution:
    """Solve for the raw (uncapped) optimal proportion at price u.

    The root exceeds 1 for prices below the fair price, which corresponds to
    investing borrowed money; use optimal_proportion for the no-borrowing
    optimum. Admissible prices lie strictly between the lower price bound
    and the expectation.
    """
    stats = compute_stats(game)
    if not (stats.lower_price_bound < u < stats.expectation):
        raise DomainError(
            f"price u={u!r} outside the admissible interval"
            f" (ess_inf + 1/h_xi, expectation) ="
            f" ({stats.lower_price_bound!r}, {stats.expectation!r})"
        )
    t, res, iterations = _solve_proportion(
        _first_order_kernel(game), stats.ess_inf, u, tol, max_iter
    )
    growth = math.exp(_log_growth(game.outcomes, u, t))
    return ProportionSolution(
        price=u, proportion=t, growth=growth, residual=res, iterations=iterations
    )


def growth_rate(game: Game, u: float, t: float) -> float:
    """Geometric mean per-period wealth factor at price u and proportion t.

    Every factor a*t/u - t + 1 must be strictly positive; for u > 0 and
    t >= 0 it is non-decreasing in a, so only the smallest payout's is tested.
    """
    stats = compute_stats(game)
    if not u > 0.0:
        raise DomainError(f"price u={u!r} must be strictly positive")
    if not t >= 0.0:
        raise DomainError(f"proportion t={t!r} must be nonnegative")
    if u > stats.ess_inf:
        cap = u / (u - stats.ess_inf)
        if not t < cap:
            raise DomainError(
                f"proportion t={t!r} must stay below u/(u - ess_inf) = {cap!r}"
            )
    x = t * (stats.ess_inf - u) / u
    if not x > -1.0:
        raise DomainError(
            f"wealth factor {1.0 + x!r} is not positive for payout"
            f" {stats.ess_inf!r} at u={u!r}, t={t!r}"
        )
    return math.exp(_log_growth(game.outcomes, u, t))


def optimal_proportion(
    game: Game,
    u: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ProportionSolution:
    """No-borrowing optimal proportion for any price in (0, expectation).

    Above the fair price this is the raw root, which lies in (0, 1); at or
    below the fair price the optimum is full investment with growth
    exp(log_moment)/u.
    """
    stats = compute_stats(game)
    if not (0.0 < u < stats.expectation):
        raise DomainError(
            f"price u={u!r} outside (0, expectation) ="
            f" (0, {stats.expectation!r})"
        )
    _require_bisect_args(tol, max_iter)
    if u > stats.fair_price:
        return pre_optimal_proportion(game, u, tol=tol, max_iter=max_iter)
    growth = math.exp(stats.log_moment) / u
    res = _first_order_sum(game.outcomes, u, 1.0)
    return ProportionSolution(
        price=u, proportion=1.0, growth=growth, residual=res, iterations=0
    )


def _growth_target(r: float) -> float:
    """exp(r), refused unless 1 < exp(r) < inf: below r of about 1.1e-16 it
    rounds to 1, where no answer depends on r, and from about 709.8 it
    overflows."""
    try:
        target = math.exp(r)
    except OverflowError:
        target = math.inf
    if not 1.0 < target < math.inf:
        raise DomainError(
            f"rate r={r!r} must be positive and small enough that"
            f" 1 < exp(r) < inf; exp(r) = {target!r}"
        )
    return target


def optimal_price(
    game: Game,
    r: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PricingSolution:
    """Price at which the best achievable growth rate equals exp(r).

    exp(r) is compared with GameStats.boundary_growth, not r with its log,
    so that every solver puts the regime boundary at the same rate. At or
    above it the optimum is full investment with price
    exp(log_moment - r); below it the strictly decreasing
    growth-versus-price curve is inverted by _bisect on
    (fair_price, expectation), with the proportion at each trial price from
    _solve_proportion, started from the previous trial price's proportion.
    """
    stats = compute_stats(game)
    target = _growth_target(r)
    _require_bisect_args(tol, max_iter)
    if target >= stats.boundary_growth:
        price = math.exp(stats.log_moment - r)
        growth = math.exp(stats.log_moment) / price if price > 0.0 else math.inf
        return PricingSolution(
            rate=r,
            optimal_price=price,
            regime=Regime.FULL_INVESTMENT,
            proportion=1.0,
            growth_check=growth,
        )
    outcomes = game.outcomes
    first_order_sum = _first_order_kernel(game)
    xi = stats.ess_inf
    t = growth = math.nan

    def excess_growth(price: float) -> float:
        # Keeps the proportion and growth of the last price evaluated, which
        # is the price _bisect returns; that proportion starts the next solve.
        nonlocal t, growth
        t, _, _ = _solve_proportion(first_order_sum, xi, price, tol, max_iter, t)
        growth = math.exp(_log_growth(outcomes, price, t))
        return growth - target

    price, _, _ = _bisect(
        excess_growth,
        stats.fair_price * (1.0 + _PRICE_MARGIN),
        stats.expectation * (1.0 - _PRICE_MARGIN),
        tol,
        max_iter,
    )
    return PricingSolution(
        rate=r,
        optimal_price=price,
        regime=Regime.INTERIOR,
        proportion=t,
        growth_check=growth,
    )
