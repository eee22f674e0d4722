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
at most tol in absolute value; the bracket can no longer be split; or it has
taken max_iter steps. The floor is 0 for proportions and prices, whose
widths are relative, and ess_inf for the threshold shift, whose root may lie
near 0. Every solver refuses max_iter below 1 and tol outside [0, inf)
before it evaluates anything, even where the regime gives the answer in
closed form, and _bisect takes them as checked. Everything here is a pure
function of immutable inputs and is safe to call concurrently. optimal_price
also keeps its last result on the game, in the instance dict beside the
cached statistics (Michie's memo function, 1968): one (arguments, result)
tuple, stored and read whole, so a concurrent call sees either no entry or a
complete one, and a hit returns the result a fresh game would.

Bisections are replayed rather than run, from sign certificates: points
whose sign every midpoint beyond them shares. The lemma behind them (Brent
1973, ch. 4): suppose that on the bracket f as evaluated is within eta of a
strictly decreasing exact F, |f~(x) - F(x)| <= eta. Then f~(p) > 2 eta
certifies every midpoint m <= p as positive, because
f~(m) >= F(m) - eta >= F(p) - eta >= f~(p) - 2 eta > 0, and likewise
f~(q) <= -2 eta certifies every m >= q as non-positive. Given the two
closest such certificates, _bisect evaluates only the midpoints between
them, and where it needs a residual, and returns what plain bisection
returns, bit for bit, in the same number of steps.

Only values that may be returned replay a bisection. Every evaluation that
_newton_certificates makes steers Newton or certifies a point and is never
returned, while _bisect's may be. A certificate of the price needs the
growth there only within the price's eta (_price_band), so at the price's
certificate evaluations the inner proportion solve skips its replay where
its own certificates already meet the tolerance rule's two tests, and
returns one of them. The price bisection's own evaluations replay theirs, so
every proportion and growth a solver returns is plain bisection's.

_newton_certificates finds the certificates of all three roots: safeguarded
Newton (rtsafe in Numerical Recipes), then a probe on each side of its root,
and further probes outward on a side the first left uncertified, keeping
every point whose residual lies beyond a band. Newton certifies its own
points only for the proportion, whose residual is exact and whose steps
alone ask it for the slope. The threshold's Newton steers on log B from
kernels._shift_slope at every width and on either kernel, and only its
probes and the bisection evaluate B. The price's certificates are probed
from the optimality system's root (_joint_newton), which has converged and
so is not evaluated again; where the joint Newton gives up from both of its
starts, the price bisects plain. For the proportion the band is 0, as the
lemma holds with eta = 0 and F the first-order sum as evaluated: the chain
needs F only weakly decreasing. Each term p*(a - u)/((a - u)*t + u) is made
of IEEE operations that round monotonically and are not fused, so as
evaluated it is weakly decreasing in t; math.fsum rounds the exact sum of
the terms correctly, so the evaluated first-order sum is weakly decreasing
in t too, and the -inf past the cap keeps that. The price and threshold
curves are not provably monotone as evaluated, so their band must clear 2
eta, with eta a proven bound on the rounding (and, for the price, on the
inner solve's optimality deficit) in the log of the growth; _price_band and
threshold_shift derive theirs. The price's probes start where the log growth
is about 4 eta from r, and the threshold's Newton steers on log B. Where eta
cannot be shown, the bisection runs without certificates.

Every per-outcome sum evaluated here, on the loop or on numpy arrays, is
reached through kernels.py, whose docstring says which kernel serves which
value.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

from . import kernels
from .errors import DomainError
from .games import Game, GameStats, compute_stats

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200

# Relative gap kept below the proportion cap u/(u - ess_inf), where the
# first-order sum diverges for games with mass at the infimum.
_CAP_MARGIN = 1e-13
# Relative gap kept inside the (fair_price, expectation) pricing bracket.
_PRICE_MARGIN = 1e-12
# Newton on any root makes at most _NEWTON_STEPS evaluations before its
# probes, and 0 leaves every search plain bisection. On the proportion it
# stops, and probes, at _PROBE_GAP of the proportion from its root. A side
# that its first probe leaves uncertified is probed on outward, each try
# _PROBE_GROWTH times as far out, until a certificate or the bracket. On the
# two-point fixture a first optimal_price made 383, 309, 289, 280 and 265
# first-order evaluations at r = 1e-12 with growth 2, 4, 8, 16 and 32, and
# 124, 99, 92, 85 and 89 at r = 1e-8. Per op, tests/fingerprint.py counts
# 21.35, 21.33, 21.39, 21.44 and 21.51 on solve_narrow (seed 6), and 21.94,
# 21.96, 21.96, 21.98 and 22.03 on solve_wide (seed 5), with the same output
# bits at every growth.
_NEWTON_STEPS = 30
_PROBE_GAP = 1e-14
_PROBE_GROWTH = 16.0
# Halvings of a joint (t, u) step that leaves the price bracket or the
# capped proportions, before the joint Newton gives up. tests/fingerprint.py
# counts 26.51, 22.25, 21.58 and 21.44 first-order evaluations per
# solve_narrow op (seed 6) with 0, 1, 2 and 3 halvings, and 21.44 with 4, 5
# or 10; seeds 7 and 8 still fall from 3 halvings (21.34, 21.43) to 4 (21.19,
# 21.29). solve_wide's counts, and the output bits of both, are the same at
# each of these halvings.
_JOINT_HALVINGS = 5
# Unit roundoff of binary64.
_EPS = 2.0**-53


class ProportionSolution(NamedTuple):
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


class PricingSolution(NamedTuple):
    """Optimal price of a game at a riskless rate.

    `growth_check` is the growth rate recomputed at (optimal_price,
    proportion); it must equal exp(rate) up to solver tolerance.
    """

    rate: float
    optimal_price: float
    regime: Regime
    proportion: float
    growth_check: float


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
    in the module docstring. pos and neg are sign certificates: points such
    that f as evaluated is positive at every midpoint at or below pos and
    non-positive at every one at or above neg (the lemma in the module
    docstring). Those midpoints take the lo and the hi branch unevaluated,
    and f is evaluated there only when the width test needs the residual or
    the search ends on it. With the default certificates every midpoint is
    evaluated. The solvers refuse tol and max_iter that it cannot honour
    before they call it.
    """
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


def _newton_certificates(
    f: Callable[..., float | tuple[float, float, float]],
    lo: float,
    hi: float,
    start: float,
    band: float,
    gap: float = math.nan,
    steer: Callable[[float], tuple[float, float, float]] | None = None,
) -> tuple[float, float, float, float]:
    """Sign certificates for _bisect on a decreasing residual f, each next to
    the residual there: (pos, f(pos), neg, f(neg)).

    Every call of f is a certificate evaluation, whose value the caller
    never returns. Without steer, each Newton step calls f(x, slope=True),
    the triple (residual, Newton step, gap) at x, and certifies its own
    point, as the proportion's solve asks. Given steer, as the threshold's
    solve always gives, Newton calls steer(x), an approximation of that
    triple whose points certify nothing. Every probe calls f(x), the
    residual alone. Safeguarded Newton from start, or from the midpoint
    where start is outside (lo, hi), brackets the root by the sign of each
    residual and stops once a step is within gap, or leaves a bracket whose
    ends it both reached: there rounding steers the step more than the
    curve does, and _bisect splits the bracket as cheaply. It then probes at
    its root -+ gap on each side not yet certified that closely, and on a
    side that its probe left uncertified probes on outward, at distances
    growing _PROBE_GROWTH-fold, until a probe reaches a certificate or
    leaves the bracket; a gap of 0, which would probe one point forever,
    probes nothing. Given a gap, as the price's solve gives with its joint
    root, start is taken for Newton's root: the probes start there, start
    is never evaluated, and f is called only at probes. A residual above
    band certifies its point positive, and one at or below -band
    non-positive; a missing certificate is an infinity with residual nan.
    With _NEWTON_STEPS at 0 and no gap nothing is certified.
    """
    pos, pos_res, neg, neg_res = -math.inf, math.nan, math.inf, math.nan
    below, above = lo, hi
    x = start if lo < start < hi else 0.5 * (lo + hi)
    certify = steer is None
    for _ in range(_NEWTON_STEPS if math.isnan(gap) else 0):
        res, step, gap = f(x, slope=True) if certify else steer(x)
        # x lies in (below, above), so each certificate is the closest yet
        if res > 0.0:
            below = x
            if certify and res > band:
                pos, pos_res = x, res
        else:
            above = x
            if certify and res <= -band:
                neg, neg_res = x, res
        x -= step
        if abs(step) <= gap:
            break
        if not below < x < above:
            if lo < below and above < hi:
                break
            x = 0.5 * (below + above)
    for distance in (-gap, gap):
        while distance:
            probe = x + distance
            # past a certificate on its side a probe certifies nothing new
            if not (pos < probe < neg and lo < probe < hi):
                break
            res = f(probe)
            if res > band:
                pos, pos_res = probe, res
            elif res <= -band:
                neg, neg_res = probe, res
            distance *= _PROBE_GROWTH
    return pos, pos_res, neg, neg_res


def _cap(u: float, xi: float) -> float:
    """The proportion cap u/(u - xi) at price u, less _CAP_MARGIN of it."""
    return u / (u - xi) * (1.0 - _CAP_MARGIN)


def _solve_proportion(
    first_order_sum: Callable[..., float | tuple[float, float]],
    xi: float,
    u: float,
    tol: float,
    max_iter: int,
    start: float = math.nan,
    replay: bool = True,
) -> tuple[float, float, int]:
    """Bisect the first-order sum over (0, u/(u - xi)), from certificates.

    The sum is positive at 0 for u below the expectation and strictly
    decreasing, so [0, cap) brackets the unique root. Every point that
    _newton_certificates evaluates from start, with band 0, certifies the
    sign of the midpoints beyond it for _bisect, which returns the same
    float whatever the start: Newton's steps take the residual with its
    step and gap, and the probes and _bisect the first-order sum alone.
    Without replay, where the certificates are at most tol*pos apart and one
    of them has a residual within tol, that one is returned with its
    residual and 0 steps instead: it meets the tolerance rule's two tests as
    a bisection's end does (the third ending in _price_band), though its
    bits depend on the start. Only optimal_price
    asks for that, at its certificate evaluations.
    """
    hi = _cap(u, xi)

    def residual(
        t: float, slope: bool = False
    ) -> float | tuple[float, float, float]:
        if not slope:
            return first_order_sum(u, t)
        s, ds = first_order_sum(u, t, slope=True)
        return s, (s / ds if ds < 0.0 else math.nan), _PROBE_GAP * t

    pos, pos_res, neg, neg_res = _newton_certificates(residual, 0.0, hi, start, 0.0)
    if not replay and neg - pos <= tol * pos:
        for t, res in ((pos, pos_res), (neg, neg_res)):
            if abs(res) <= tol:
                return t, res, 0
    return _bisect(residual, 0.0, hi, tol, max_iter, pos=pos, neg=neg)


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
    return kernels._first_order_sum(game._pairs, u, t)


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
    _require_bisect_args(tol, max_iter)
    t, res, iterations = _solve_proportion(
        partial(kernels._first_order_sum, game._pairs), stats.ess_inf, u, tol, max_iter
    )
    growth = math.exp(kernels._log_growth(game._pairs, u, t))
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
    return math.exp(kernels._log_growth(game._pairs, u, t))


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
    res = kernels._first_order_sum(game._pairs, u, 1.0)
    return ProportionSolution(
        price=u, proportion=1.0, growth=growth, residual=res, iterations=0
    )


def _full_investment(stats: GameStats, target: float) -> bool:
    """Whether exp(r) = target is at or above the one regime boundary."""
    return target >= stats.boundary_growth


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


def _price_band(
    game: Game,
    stats: GameStats,
    lo: float,
    hi: float,
    tol: float,
    max_iter: int,
) -> float:
    """eta for optimal_price's certificates on [lo, hi], or inf where it
    cannot be shown.

    The exact curve is log G*(u), the log of the best growth at u, which
    is strictly decreasing; as evaluated it is the log of
    exp(kernels._log_growth(u, t~)) at the proportion t~ that _solve_proportion
    returns. With eps = 2**-53, x_i = t~ (a_i - u)/u, y_i = x_i/(1 + x_i),
    S = sum p|y| and B = sum p y**2:

    - Balance. sum p y = t~ g(t~), with g the first-order sum, and y < 1
      where positive, so S <= 2 + t~|g(t~)|. Every t~ lies below the cap
      u/(u - ess_inf) by at least _CAP_MARGIN of it, so |y| <= Y =
      1.01/_CAP_MARGIN and B <= Y S. g as evaluated is within
      e = 6 eps (S + B)/t of g: each term is within eps (4.02 + 2.01|y|) of
      its own size, and fsum adds eps |g|.
    - Endings. Suppose every inner solve ends on its tolerance rule, on an
      unsplittable bracket or on close certificates. On the first,
      |g~(t~)| <= tol and the final bracket, which encloses g~'s sign
      change with t~ on it, is at most tol*t~/(1 - tol) wide; on the second
      it is one ulp wide, <= 2 eps t~, and |g(t~)| <= 2 eps B/t~ + 2e. The
      third is a certificate evaluation that skips the replay
      (_solve_proportion): certificates pos < neg with g~(pos) > 0 >=
      g~(neg) and neg - pos <= tol*pos, and t~ the one of them with
      |g~(t~)| <= tol. g~ is weakly decreasing as evaluated, so [pos, neg]
      encloses its sign change with t~ on it, and tol*pos <=
      tol*t~/(1 - tol): the first ending's two conditions word for word,
      and all that follows holds for it unchanged. With tol*K <= 1e-3, K
      the largest proportion bracket, this gives
      t~|g(t~)| <= 1e-3 + 14 eps (1 + Y) S, hence S <= 2.04.
    - Rounding. t~(a - u)/u is within 3.01 eps of x, which moves log1p by
      at most 1.01 * 3.01 eps |y|; log1p, exp (faithful) and the product
      with p add 2, 2 and 1 eps; fsum adds eps |sum|. Since
      sum p|log1p x| <= L + 2S with L <= Lambda = log boundary_growth, the
      log of the evaluated growth is within eps (2.01 + 4.03 Lambda +
      11.11 S) <= eps (4.1 Lambda + 25) of L(u, t~).
    - Deficit. L*(u) - L(u, t~) is at most the integral of |g| from t~ to
      the root t*. Past the point where g~ changes sign, |g| <= e over a
      length of at most e/|g'|, with |g'| = B/t**2, which adds
      e**2/|g'| <= 72 eps**2 (1 + B) since S**2 <= B. Before it the
      tolerance rule adds (tol + e) * tol*t~/(1 - tol) <=
      1.001 tol**2 K + 0.0137 tol, and an unsplittable end
      28 eps**2 (S + B). In all, at most 1.01 tol**2 K + 0.014 tol + 3e-17.

    eta is twice the sum, which covers the second-order terms dropped
    above. The bisections' endings hold when max_iter covers the most
    bisection steps an inner solve may need. Let
    v(u) = sum p (a - u)**2/u**2. Below
    t0 = min(cap/2, (E - u)/(8 u v)) the first-order sum stays above
    g(0)/2 = (E - u)/(2u), since it falls by at most 4v per unit t there,
    and each term is within 14.1 eps of its size, so g~ stays within
    14.1 eps sqrt(v) of g. Where (E - u)/u > 29 eps sqrt(v), which is least
    at hi, g~ is positive up to t0, so the point where it changes sign is
    at least t0 at every price, as (E - u) u/v is least at an end of the
    bracket. v is summed in plain floats, which overflow to inf where
    math.fsum would raise; t_min = t0/2 and 29 > 28.2 leave room for its
    rounding. Then log2(K/t_min) + 56 steps bring any inner bracket to
    adjacent floats. The endings also need the root below 1 inside the
    proportion bracket at hi, and tol*K <= 1e-3. Past eta = 1e-6 (a tol near
    1e-4) the band would certify little, and the search runs plain.

    optimal_price certifies a price where its residual growth - exp(r) lies
    beyond the band 3 eta exp(r). Where the log growth is within eta of a
    strictly decreasing curve, such a residual puts the growth beyond
    exp(r -+ 2 eta), the lemma's band in the log, with room for the
    rounding of the residual and of the band, as
    3 eta (1 - 3 * 2**-53) >= expm1(2 eta) for eta <= 0.1.
    """
    xi, mean = stats.ess_inf, stats.expectation
    top = _cap(lo, xi)
    cap_hi = hi / (hi - xi)
    v_lo, v_hi = (kernels._relative_spread(game, u)[0] for u in (lo, hi))
    if not (
        tol * top <= 1e-3
        and _cap(hi, xi) > 1.0
        and (mean - hi) / hi > 29.0 * _EPS * math.sqrt(v_hi)
        and v_lo > 0.0
        and v_hi > 0.0
    ):
        return math.inf
    t_min = 0.5 * min(
        0.5 * cap_hi, (mean - hi) / (8.0 * hi * v_hi), (mean - lo) / (8.0 * lo * v_lo)
    )
    if not (t_min > 0.0 and max_iter >= math.log2(top / t_min) + 56.0):
        return math.inf
    rounding = _EPS * (4.1 * math.log(stats.boundary_growth) + 25.0)
    deficit = 1.01 * tol * tol * top + 0.014 * tol + 3e-17
    eta = 2.0 * (rounding + deficit)
    return eta if eta <= 1e-6 else math.inf


def _price_slopes(u: float, t: float, g: float, g_t: float) -> tuple[float, float]:
    """(dg/du, dL/du) at (u, t) for the first-order sum g, g_t = dg/dt, and the
    log growth L. With x = a - u, d = u + t x, u/d = 1 - t x/d and sum p = 1:
    -u dg/du = sum p (x + u) u/d**2 = (1 - t g) + (1 - t)(g + t g_t), and
    u dL/du = sum p ((1 - t) u/d - 1) = -t (1 + (1 - t) g)."""
    g_u = -((1.0 - t * g) + (1.0 - t) * (g + t * g_t)) / u
    return g_u, -t / u * (1.0 + (1.0 - t) * g)


def _joint_newton(
    first_order_sum: Callable[..., tuple[float, float]],
    game: Game,
    lo: float,
    hi: float,
    u: float,
    t: float,
    r: float,
    eta: float,
) -> tuple[float, float, float] | None:
    """The root (u, t) of the optimality system (g, L - r) = 0 by Newton from
    the start (u, t), with dL/dt = g and _price_slopes, once a step moves u
    by at most sqrt(eta) of it, the next by about eta; with it the distance
    4 eta u/t at which the price's certificates are probed. Where g = 0 the
    log growth falls at |dL/du| = t/u, so that distance moves it by about
    4 eta, past the lemma's 2 eta. Where the Jacobian's determinant is not
    positive, the step is Newton's in t alone at fixed u, t - g/g_t, which is
    no step towards convergence in u. A step that leaves (lo, hi) or the
    capped proportions is halved, up to _JOINT_HALVINGS times. Where the
    start is outside them, a step still leaves them, or _NEWTON_STEPS pass,
    it gives up and returns None."""
    xi = compute_stats(game).ess_inf

    def inside(u: float, t: float) -> bool:
        return lo < u < hi and 0.0 < t < _cap(u, xi)

    if not inside(u, t):
        return None
    for _ in range(_NEWTON_STEPS):
        g, g_t = first_order_sum(u, t, slope=True)
        excess = kernels._steering_log_growth(game, u, t) - r
        g_u, l_u = _price_slopes(u, t, g, g_t)
        det = g_t * l_u - g_u * g
        if det > 0.0:
            du = (g_t * excess - g * g) / det
            dt = (g * l_u - g_u * excess) / det
        else:
            du, dt = 0.0, g / g_t
        for _ in range(_JOINT_HALVINGS + 1):
            if inside(u - du, t - dt):
                break
            du, dt = 0.5 * du, 0.5 * dt
        else:
            return None
        u, t = u - du, t - dt
        if det > 0.0 and abs(du) <= math.sqrt(eta) * u:
            return u, t, 4.0 * eta * u / t
    return None


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
    exp(log_moment - r), refused when it underflows the normal floats;
    below it the strictly decreasing growth-versus-price curve is inverted
    by _bisect on (fair_price, expectation), with the proportion at each
    trial price from _solve_proportion, started from the previous trial
    price's proportion. Only the bisection's own trial prices replay that
    solve (module docstring), so the growth returned is a function of the
    price alone.

    The bisection is replayed from the certificates of _newton_certificates,
    probed from the root of the optimality system (g, L - r) = 0 that
    _joint_newton finds by Newton in (u, t) jointly: that root is not
    evaluated, the probes start there, 4 eta u/t out, and its proportion
    starts the first inner solve. The joint Newton starts at the later of
    the tangent at the fair price, where the slope is -1/u, and the
    small-rate estimate E - sigma sqrt(2 r), which Newton climbs from below
    without overshooting where log G* is convex, as its small-rate form
    (E - u)**2/(2 sigma**2) is; where it gives up from there it runs once
    more from the other, each from the proportion's chord
    (E - u)/(E - fair_price). price_translated solves its shifted game
    through _solve_price with a warm start, tried first: the base game's
    root mapped by the paper's invariance, where Newton's first step
    converges; the cold starts follow where it gives up. No start moves a
    bit. eta, derived in _price_band, bounds the rounding of the log growth
    and the inner solve's optimality deficit; where it cannot be shown, or
    the joint Newton gives up from every start, the bisection runs plain. A
    fair price within _PRICE_MARGIN of the expectation leaves no bracket and
    is refused.

    The game keeps the last result, under its exact arguments compared by
    type and value (r=1 and r=1.0 give different rate fields), and returns
    it to a call with the same arguments without solving again. A call with
    other arguments replaces it; a call that raises leaves it in place.
    """
    key = (type(r), r, type(tol), tol, type(max_iter), max_iter)
    kept = game.__dict__.get("_price")
    if kept is not None and kept[0] == key:
        return kept[1]
    solution = _solve_price(game, r, tol, max_iter)
    game.__dict__["_price"] = (key, solution)
    return solution


def _solve_price(
    game: Game, r: float, tol: float, max_iter: int, warm: tuple | None = None
) -> PricingSolution:
    """optimal_price without the kept result, trying a warm (u, t) first."""
    stats = compute_stats(game)
    target = _growth_target(r)
    _require_bisect_args(tol, max_iter)
    if _full_investment(stats, target):
        price = math.exp(stats.log_moment - r)
        if price < sys.float_info.min:
            raise DomainError(
                f"full-investment price exp(log_moment - r) = {price!r} at"
                f" r={r!r} underflows the smallest normal float"
            )
        growth = math.exp(stats.log_moment) / price
        return PricingSolution(
            rate=r,
            optimal_price=price,
            regime=Regime.FULL_INVESTMENT,
            proportion=1.0,
            growth_check=growth,
        )
    first_order_sum = kernels._first_order_kernel(game)
    xi = stats.ess_inf
    t = growth = math.nan

    def excess_growth(price: float, replay: bool = True) -> float:
        # Keeps the proportion and growth of the last price evaluated, which
        # is the price _bisect returns; that proportion starts the next solve.
        nonlocal t, growth
        t, _, _ = _solve_proportion(
            first_order_sum, xi, price, tol, max_iter, t, replay=replay
        )
        growth = math.exp(kernels._log_growth(game._pairs, price, t))
        return growth - target

    lo = stats.fair_price * (1.0 + _PRICE_MARGIN)
    hi = stats.expectation * (1.0 - _PRICE_MARGIN)
    if not lo < hi:
        raise DomainError(
            f"no pricing bracket: fair_price {stats.fair_price!r} is within the"
            f" relative margin {_PRICE_MARGIN} of the expectation {stats.expectation!r}"
        )
    pos, neg = -math.inf, math.inf
    eta = _price_band(game, stats, lo, hi, tol, max_iter)
    if eta < math.inf:
        mean = stats.expectation
        tangent = lo * (1.0 + math.log(stats.boundary_growth) - r)
        spread, _ = kernels._relative_spread(game, mean)
        small_rate = mean * (1.0 - math.sqrt(2.0 * r * spread))
        band = 3.0 * eta * target  # clears 2 eta in the log: _price_band
        cold = sorted((tangent, small_rate), reverse=True)
        # each cold start takes the proportion's chord (E - u)/(E - fair_price)
        starts = [(u, (mean - u) / (mean - stats.fair_price)) for u in cold]
        for start in [warm, *starts] if warm else starts:
            root = _joint_newton(first_order_sum, game, lo, hi, *start, r, eta)
            if root is not None:
                u, t, gap = root
                pos, _, neg, _ = _newton_certificates(
                    partial(excess_growth, replay=False), lo, hi, u, band, gap
                )
                break
    price, _, _ = _bisect(excess_growth, lo, hi, tol, max_iter, pos=pos, neg=neg)
    return PricingSolution(
        rate=r,
        optimal_price=price,
        regime=Regime.INTERIOR,
        proportion=t,
        growth_check=growth,
    )
