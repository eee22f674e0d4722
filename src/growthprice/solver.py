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
concurrently. optimal_price also keeps its last result on the game, in the
instance dict beside the cached statistics (Michie's memo function, 1968):
one (arguments, result) tuple, stored and read whole, so a concurrent call
sees either no entry or a complete one, and a hit returns the result a fresh
game would.

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
_newton_certificates makes is a call f(x, slope=True), whose value steers
Newton or certifies a point and is never returned; _bisect makes only plain
calls f(x), whose value may be. A certificate of the price needs the growth
there only within the price's eta (_price_band), so at such a call the
inner proportion solve skips its replay where its own certificates already
meet the tolerance rule's two tests, and returns one of them. The price
bisection's own evaluations replay theirs, so every proportion and growth
a solver returns is plain bisection's.

_newton_certificates finds the certificates of all three roots: safeguarded
Newton (rtsafe in Numerical Recipes) on the residual, then a probe on each
side of its root, and further probes outward on a side the first left
uncertified, keeping every point whose residual lies beyond a band. The
price's certificates are probed from the optimality system's root
(_joint_newton), which has converged and so is not evaluated again; where
the joint Newton fails, nested Newton runs from its start as before.
For the proportion the band is 0, as the lemma holds with eta = 0 and F the
first-order sum as evaluated: the chain needs F only weakly decreasing. Each
term p*(a - u)/((a - u)*t + u) is made of IEEE operations that round
monotonically and are not fused, so as evaluated it is weakly decreasing in
t; math.fsum rounds the exact sum of the terms correctly, so the evaluated
first-order sum is weakly decreasing in t too, and the -inf past the cap
keeps that. The price and threshold curves are not provably monotone as
evaluated, so their band must clear 2 eta, with eta a proven bound on the
rounding (and, for the price, on the inner solve's optimality deficit) in
the log of the growth; _price_band and threshold_shift derive theirs, and
Newton runs on the log residual (_log_newton). Where eta cannot be shown,
the bisection runs without certificates.

The first-order sum has two kernels, each of which returns the derivative
in t next to the sum when asked: a plain loop, and numpy on arrays of the
game's payouts and weights. Only a price solve, which nests several
proportion solves, repays loading numpy, and it alone builds numpy state
(_first_order_kernel), which a game that translate shifted directly takes
from its parent. Games of fewer than _VECTOR_MIN_OUTCOMES outcomes, and
solves where numpy cannot be imported, take the loops: numpy only
accelerates, and only this module holds numpy code.

On kept arrays a value that certifies a sign or may be returned (the
first-order sum, the boundary growth) is exact: terms formed with the loop's
IEEE operations, math.log per term and math.fsum. The exact log growth stays
a loop on every game: per call the arrays lost at 40 and 64 outcomes and
gained under 10% at 256. A value that only steers Newton, a start or a band
test (the derivative, the joint Newton's log growth, log B and its slope in
_shift_slope, the relative spread) is numpy's np.log, np.log1p and pairwise
.sum(), which are not the C library's (on 200 000 random arguments each,
numpy 2.4.6, np.log differed from math.log for 154 and np.log1p from
math.log1p for 17 283). So no result depends on the kernel, though on a wide
game the count of exact evaluations may depend on numpy's build. Each
steering pass but the kernel's derivative reads the arrays through one gate,
_steering, which serves them only where every payout is below 1e100 times a
scale that the pass divides by, so that no product overflows and numpy warns
of nothing; the arrays meet only elementwise and in .sum(), so no BLAS call
is made.
"""

from __future__ import annotations

import math
import os
import sys
from enum import Enum
from functools import cache, partial
from typing import Callable, NamedTuple

from .errors import DomainError
from .games import Game, GameStats, _log_moment, _valid_ends, compute_stats

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200

# Relative gap kept below the proportion cap u/(u - ess_inf), where the
# first-order sum diverges for games with mass at the infimum.
_CAP_MARGIN = 1e-13
# Relative gap kept inside the (fair_price, expectation) pricing bracket.
_PRICE_MARGIN = 1e-12
# Outcome count from which a price solve runs the first-order sum on numpy
# arrays that the game keeps. On payouts 1..k with equal
# weights (Python 3.11, numpy 2.4, 2 vCPUs), one evaluation at u = 15,
# t = 0.5 with the derivative took 5.6-5.7 us looped against 5.6-6.3 us on
# numpy at 40 outcomes and 6.4-7.4 against 5.9-6.3 at 48 (two runs). Whole optimal_price solves at
# r = 0.05 took 0.26 ms looped against 0.28 at 32 outcomes, 0.32 against 0.30
# at 40 and 0.39 against 0.35 at 48; threshold_shift 0.12 against 0.13, 0.16
# against 0.16 and 0.18 against 0.18. They cross near 40. One kernel call:
#   PYTHONPATH=src python -m timeit -r 9 -s "import growthprice.solver as s;
#   s._VECTOR_MIN_OUTCOMES = 1; k = 40; f = s._first_order_kernel(
#   s.Game.from_pairs((1.0 + i, 1 / k) for i in range(k)))"
#   "f(15.0, 0.5, slope=True)"
# with 10**9 in place of 1 for the loop.
_VECTOR_MIN_OUTCOMES = 40
# Variables that set OpenBLAS's thread count, read once when numpy loads. The
# numpy kernel makes no BLAS call, but left to itself OpenBLAS starts a worker
# thread per CPU on load, and that worker spins for a while afterwards. On 2
# vCPUs (Python 3.11, numpy 2.4.6 with OpenBLAS 0.3.31) the import took a
# median of 141 ms with the worker and 78 ms without it (10 cold imports
# each), and a pure-Python loop run just after it sometimes took 3 times as
# long as usual. _import_numpy loads it on one thread unless one is set.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Newton on any root makes at most _NEWTON_STEPS evaluations before its
# probes, and 0 leaves every search plain bisection. On the proportion it
# stops, and probes, at _PROBE_GAP of the proportion from its root. A side
# that its first probe leaves uncertified is probed on outward, each try
# _PROBE_GROWTH times as far out, until a certificate or the bracket. On the
# two-point fixture optimal_price made 358 first-order evaluations at
# r = 1e-12 with one try a side, and 460, 326, 303, 292 and 278 at growth 2,
# 4, 8, 16 and 32; at r = 1e-8, 151 with one try and 89 at 16 against 93 at
# 32. The bench's solve_narrow mix made 27.05 per op at every growth. Those
# runs capped the tries at 12 a side; lifting the cap changed no count.
_NEWTON_STEPS = 30
_PROBE_GAP = 1e-14
_PROBE_GROWTH = 16.0
# Halvings of a joint (t, u) step that leaves the price bracket or the
# capped proportions, before the joint Newton gives up. Of the 1960 interior
# price solves in 1400 solve_narrow ops (seed 6), the joint step gave up in
# 59 with no halving, 9 with 1, 7 with 2, 5 with 3 or 4, and 4 with 5 to 10
# (24.83, 23.81, 23.76, 23.72 and 23.70 first-order evaluations per op).
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


def _first_order_sum(
    outcomes: tuple[tuple[float, float], ...], u: float, t: float, slope: bool = False
) -> float | tuple[float, float]:
    """sum_i p_i (a_i - u) / ((a_i - u) t + u) over the (payout, weight)
    pairs of outcomes, such as Game._pairs; -inf past the cap. With
    slope, the pair of that sum and its derivative in t,
    -sum_i p_i (a_i - u)**2 / ((a_i - u) t + u)**2, which is -inf past the cap
    too. For t >= 0 each rounded denominator is non-decreasing in the payout,
    so the smallest payout's is the least, and it is positive exactly when
    all of them are."""
    if not (outcomes[0][0] - u) * t + u > 0.0:
        return (-math.inf, -math.inf) if slope else -math.inf
    terms = []
    derivative = 0.0
    for a, w in outcomes:
        x = a - u
        d = x * t + u
        term = w * x / d
        terms.append(term)
        derivative -= term * x / d
    total = math.fsum(terms)
    return (total, derivative) if slope else total


@cache
def _import_numpy():
    """numpy, loaded with OpenBLAS on one thread if no thread count is set,
    or None where it cannot be imported; the import is tried once per
    process.

    The variable is set only for the import, so child processes do not
    inherit it; the loaded OpenBLAS keeps one thread for the whole process.
    """
    pin = "numpy" not in sys.modules and set(_BLAS_THREAD_VARS).isdisjoint(os.environ)
    if pin:
        os.environ[_BLAS_THREAD_VARS[0]] = "1"
    try:
        import numpy
    except ImportError:
        return None
    finally:
        if pin:
            os.environ.pop(_BLAS_THREAD_VARS[0], None)
    return numpy


def _first_order_kernel(game: Game) -> Callable[..., float | tuple[float, float]]:
    """The first-order sum of game as a function of (u, t, slope=False),
    equal, bit for bit, to _first_order_sum(game._pairs, u, t, slope), but
    for the derivative, which steers. Only _solve_price calls it.

    From _VECTOR_MIN_OUTCOMES outcomes up, where numpy can be imported, the
    game keeps its columns as arrays (payouts, weights), built once and
    stored whole: a game that translate shifted by n directly takes its
    parent's arrays, or the parent's columns as arrays, plus n, the add
    translate makes per payout, and any other game its own columns plus 0.
    A narrow game never loads numpy nor looks it up."""
    if len(game.outcomes) >= _VECTOR_MIN_OUTCOMES:
        kept = game.__dict__.get("_vector")
        if kept is None and (np := _import_numpy()) is not None:
            parent, n = game.__dict__.get("_shifted_from", (game, 0.0))
            a, w = parent.__dict__.get("_vector") or map(np.array, parent._columns)
            kept = game.__dict__["_vector"] = (a + n, w)
        if kept is not None:
            return partial(_array_first_order_sum, game._columns[0][0], *kept)
    return partial(_first_order_sum, game._pairs)


def _array_first_order_sum(
    lowest: float, payouts, weights, u: float, t: float, slope: bool = False
) -> float | tuple[float, float]:
    """_first_order_sum on numpy arrays of the payouts and weights, whose
    smallest payout is lowest, with numpy's sum of the derivative."""
    if not (lowest - u) * t + u > 0.0:
        return (-math.inf, -math.inf) if slope else -math.inf
    x = payouts - u
    d = x * t + u
    terms = weights * x / d
    total = math.fsum(terms.tolist())
    return (total, -float((terms * x / d).sum())) if slope else total


def _steering(game: Game, scale: float) -> tuple | None:
    """The arrays that a price solve kept on game, if any, where every payout
    is below 1e100 scale, or None: the gate in the module docstring."""
    if game._columns[0][-1] < 1e100 * scale:
        return game.__dict__.get("_vector")
    return None


def _shift_slope(game: Game) -> Callable[[float], tuple[float, float]]:
    """(d log B/dn, log B(n)) as a function of n, for B(n) =
    boundary_growth(game, n) = H exp(sum p log(a + n)) with H = sum p/(a + n).
    The slope is H - H2/H, H2 = sum p/(a + n)**2, both sums formed on the
    ratios (E + n)/(a + n) so that nothing overflows or underflows at any
    payout scale. numpy forms both where the gate passes at the smallest
    payout, so that no squared ratio overflows; elsewhere a loop forms the
    slope, and log B is nan. No arrays are built: loading numpy would cost
    more than it saves."""
    mean = compute_stats(game).expectation
    if (kept := _steering(game, game._columns[0][0])) is not None:
        payouts, weights = kept
        log = _import_numpy().log

        def steer(n: float) -> tuple[float, float]:
            m = mean + n
            shifted = payouts + n
            inv = m / shifted
            terms = weights * inv
            h, h2 = float(terms.sum()), float((terms * inv).sum())
            log_sum = float((weights * log(shifted)).sum())
            return (h - h2 / h) / m, math.log(h) - math.log(m) + log_sum

        return steer

    def log_slope(n: float) -> tuple[float, float]:
        # H - H2/H = (h - h2/h)/(E + n) on the ratios rho = (a + n)/(E + n)
        m = mean + n
        h = h2 = 0.0
        for a, w in game._pairs:
            inv = m / (a + n)
            h += w * inv
            h2 += w * inv * inv
        return (h - h2 / h) / m, math.nan

    return log_slope


def _kept_boundary_growth(game: Game, n: float) -> float | None:
    """translation.boundary_growth(game, n) on the arrays that a price solve
    kept on the game, bit for bit, or None where it kept none or the
    shifted payouts are no valid game's: their ends fail games._valid_ends,
    tested on floats first so that no array operation overflows, or two
    merged, as _shifted_payouts tests. Each shifted payout and quotient
    w/(a + n) is the loop's IEEE operation, each log is math.log's, and the
    sums are math.fsum's."""
    kept = game.__dict__.get("_vector")
    column = game._columns[0]
    if kept is None or not _valid_ends(column[0] + n, column[-1] + n):
        return None
    payouts, weights = kept
    shifted = payouts + n
    if not (shifted[:-1] < shifted[1:]).all():
        return None
    harmonic = math.fsum((weights / shifted).tolist())
    return harmonic * math.exp(_log_moment(shifted.tolist(), game._columns[1]))


def _log_growth(outcomes: tuple[tuple[float, float], ...], u: float, t: float) -> float:
    return math.fsum(w * math.log1p(t * (a - u) / u) for a, w in outcomes)


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
    evaluated.
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


def _newton_certificates(
    f: Callable[..., tuple[float, float, float]],
    lo: float,
    hi: float,
    start: float,
    band: float,
    gap: float = math.nan,
    steer: Callable[[float], tuple[float, float, float]] | None = None,
) -> tuple[float, float, float, float]:
    """Sign certificates for _bisect on a decreasing residual f, each next to
    the residual there: (pos, f(pos), neg, f(neg)).

    f(x, slope=True), the only call made of f, is the triple (residual, Newton
    step, gap) at x: each is a certificate evaluation, whose value the
    caller never returns. Given steer, Newton calls steer(x) in its place, an
    approximation of that triple whose points certify nothing, and only the
    probes call f. Safeguarded Newton from start, or from the midpoint
    where start is outside (lo, hi), brackets the root by the sign of each
    residual and stops once a step is within gap, or leaves a bracket whose
    ends it both evaluated: there rounding steers the step more than the
    curve does, and _bisect splits the bracket as cheaply. It then probes at
    its root -+ gap on each side not yet certified that closely, and on a
    side that its probe left uncertified probes on outward, at distances
    growing _PROBE_GROWTH-fold, until a probe reaches a certificate or
    leaves the bracket; a gap of 0, which would probe one point forever,
    probes nothing. Given a gap, start is taken for Newton's root: the
    probes start there, and start is never evaluated. A residual above band
    certifies its point positive, and one at or below -band non-positive; a
    missing certificate is an infinity with residual nan. With _NEWTON_STEPS
    at 0 and no gap nothing is certified.
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
            res = f(probe, slope=True)[0]
            if res > band:
                pos, pos_res = probe, res
            elif res <= -band:
                neg, neg_res = probe, res
            distance *= _PROBE_GROWTH
    return pos, pos_res, neg, neg_res


def _log_newton(
    res: float, slope: float, target: float, eta: float
) -> tuple[float, float, float]:
    """(res, Newton step, gap) for _newton_certificates from an outer
    residual res = growth - target and the slope of the log growth: Newton
    on log1p(res/target), stopping within 4 eta/|slope|, or at once where
    the slope is not negative. Callers pass the band 3 eta target: where the
    log growth is within eta of a strictly decreasing curve, a residual
    beyond it puts the growth beyond target*exp(+-2 eta), the lemma's band,
    with room for the rounding of res and of the band, as
    3 eta (1 - 3 * 2**-53) >= expm1(2 eta) for eta <= 0.1.
    """
    if not slope < 0.0:
        return res, 0.0, math.inf
    ratio = res / target
    step = math.log1p(ratio) / slope if ratio > -1.0 else math.nan
    return res, step, -4.0 * eta / slope


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
    float whatever the start. Without replay, where the certificates are
    at most tol*pos apart and one of them has a residual within tol, that
    one is returned with its residual and 0 steps instead: it meets the
    tolerance rule's two tests as a bisection's end does (the third ending
    in _price_band), though its bits depend on the start. Only optimal_price
    asks for that, at its certificate evaluations.
    """
    hi = _cap(u, xi)

    def residual(t: float, slope: bool) -> tuple[float, float, float]:
        s, ds = first_order_sum(u, t, slope=True)
        return s, (s / ds if ds < 0.0 else math.nan), _PROBE_GAP * t

    pos, pos_res, neg, neg_res = _newton_certificates(residual, 0.0, hi, start, 0.0)
    if not replay and neg - pos <= tol * pos:
        for t, res in ((pos, pos_res), (neg, neg_res)):
            if abs(res) <= tol:
                return t, res, 0
    f = partial(first_order_sum, u)
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
    return _first_order_sum(game._pairs, u, t)


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
        partial(_first_order_sum, game._pairs), stats.ess_inf, u, tol, max_iter
    )
    growth = math.exp(_log_growth(game._pairs, u, t))
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
    return math.exp(_log_growth(game._pairs, u, t))


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
    res = _first_order_sum(game._pairs, u, 1.0)
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


def _relative_spread(
    game: Game, u: float, third: bool = False
) -> float | tuple[float, float]:
    """sum p x**2 with x = (a - u)/u, added in plain float arithmetic, which
    overflows to inf where ** and math.fsum would raise; with third, the
    pair of it and sum p x**3. It steers and tests bands only: numpy adds
    the same products where the gate passes at u, and a loop adds them in
    outcome order elsewhere."""
    if (kept := _steering(game, u)) is not None:
        payouts, weights = kept
        x = (payouts - u) / u
        squares = weights * x * x
        spread = float(squares.sum())
        return (spread, float((squares * x).sum())) if third else spread
    spread = cubes = 0.0
    for a, w in game._pairs:
        x = (a - u) / u
        square = w * x * x
        spread += square
        cubes += square * x
    return (spread, cubes) if third else spread


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
    exp(_log_growth(u, t~)) at the proportion t~ that _solve_proportion
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
    """
    xi, mean = stats.ess_inf, stats.expectation
    top = _cap(lo, xi)
    cap_hi = hi / (hi - xi)
    v_lo, v_hi = _relative_spread(game, lo), _relative_spread(game, hi)
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
    return g_u, _envelope_slope(u, t, g)


def _envelope_slope(u: float, t: float, g: float) -> float:
    """dL/du at (u, t), g the first-order sum there (_price_slopes)."""
    return -t / u * (1.0 + (1.0 - t) * g)


def _joint_newton(
    first_order_sum: Callable[..., tuple[float, float]],
    game: Game,
    lo: float,
    hi: float,
    u: float,
    r: float,
    eta: float,
) -> tuple[float, float, float]:
    """The root (u, t) of the optimality system (g, L - r) = 0 by Newton from
    u and the proportion's chord (E - u)/(E - fair_price), with dL/dt = g and
    _price_slopes, once a step moves u by at most sqrt(eta) of it, the next
    by about eta; with it the distance 4 eta u/t at which the price's
    certificates are probed, the gap of _log_newton where g = 0. A step that
    leaves (lo, hi) or the capped proportions is halved, up to
    _JOINT_HALVINGS times. Where the start is outside them, a step still
    leaves them, the determinant is not positive, or _NEWTON_STEPS pass, it
    returns (u, nan, nan) with u as given."""
    stats = compute_stats(game)
    xi, mean = stats.ess_inf, stats.expectation

    def inside(u: float, t: float) -> bool:
        return lo < u < hi and 0.0 < t < _cap(u, xi)

    start, t, du = u, (mean - u) / (mean - stats.fair_price), math.inf
    if not inside(u, t):
        return start, math.nan, math.nan
    for _ in range(_NEWTON_STEPS):
        if abs(du) <= math.sqrt(eta) * u:
            return u, t, 4.0 * eta * u / t
        g, g_t = first_order_sum(u, t, slope=True)
        if (kept := _steering(game, u / t)) is not None:
            # numpy's log1p steers; the gate at u/t bounds t (a - u)/u
            x = t * (kept[0] - u) / u
            excess = float((kept[1] * _import_numpy().log1p(x)).sum()) - r
        else:
            excess = _log_growth(game._pairs, u, t) - r
        g_u, l_u = _price_slopes(u, t, g, g_t)
        det = g_t * l_u - g_u * g
        if not det > 0.0:
            break
        du = (g_t * excess - g * g) / det
        dt = (g * l_u - g_u * excess) / det
        for _ in range(_JOINT_HALVINGS + 1):
            if inside(u - du, t - dt):
                break
            du, dt = 0.5 * du, 0.5 * dt
        else:
            break
        u, t = u - du, t - dt
    return start, math.nan, math.nan


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

    The bisection is replayed from the certificates of _newton_certificates:
    Newton in u on log G - r with the envelope slope d log G*/du, dL/du at
    the inner root (_envelope_slope), from the inner solve's (t, g), with no
    pass over the outcomes. Where the joint Newton (_joint_newton) reaches
    the root of the optimality system, that root takes Newton's place: it
    is not evaluated, and the probes start there, 4 eta u/t out, and its
    proportion starts the first inner solve.
    Elsewhere Newton starts at the later of the tangent at the fair price,
    where the slope is -1/u, and the small-rate estimate
    E - sigma sqrt(2 r), which Newton climbs from below without overshooting
    where log G* is convex, as its small-rate form (E - u)**2/(2 sigma**2)
    is; the joint Newton starts there too. No start moves a bit. eta,
    derived in _price_band, bounds the rounding of the log growth and the
    inner solve's optimality deficit; where it cannot be shown the
    bisection runs plain. A fair price within _PRICE_MARGIN of the
    expectation leaves no bracket and is refused.

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


def _solve_price(game: Game, r: float, tol: float, max_iter: int) -> PricingSolution:
    """optimal_price without the kept result: joint root, certificates, replay."""
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
    outcomes = game._pairs
    first_order_sum = _first_order_kernel(game)
    xi = stats.ess_inf
    t = growth = math.nan

    def excess_growth(
        price: float, slope: bool = False
    ) -> float | tuple[float, float, float]:
        # Keeps the proportion and growth of the last price evaluated, which
        # is the price _bisect returns; that proportion starts the next solve.
        nonlocal t, growth
        t, g, _ = _solve_proportion(
            first_order_sum, xi, price, tol, max_iter, t, replay=not slope
        )
        growth = math.exp(_log_growth(outcomes, price, t))
        if not slope:
            return growth - target
        # the envelope slope, with sum p taken as 1
        return _log_newton(growth - target, _envelope_slope(price, t, g), target, eta)

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
        spread = _relative_spread(game, mean)
        start = max(
            lo * (1.0 + math.log(stats.boundary_growth) - r),
            mean * (1.0 - math.sqrt(2.0 * r * spread)),
        )
        start, t, gap = _joint_newton(first_order_sum, game, lo, hi, start, r, eta)
        pos, _, neg, _ = _newton_certificates(
            excess_growth, lo, hi, start, 3.0 * eta * target, gap
        )
    price, _, _ = _bisect(excess_growth, lo, hi, tol, max_iter, pos=pos, neg=neg)
    return PricingSolution(
        rate=r,
        optimal_price=price,
        regime=Regime.INTERIOR,
        proportion=t,
        growth_check=growth,
    )
