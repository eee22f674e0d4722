"""Every per-outcome sum that the solvers evaluate, on both kernels.

The first-order sum, the log growth, the boundary growth B(n) of a shifted
game, the threshold's steering slope and the relative spread are sums over a
game's outcomes. solver.py finds the roots and the price, and translation.py
the shifts, from the values here; oracle.py keeps its own copies, as it
shares no code with the solvers. B(n) sums with games._harmonic and
games._log_moment, which a game's statistics sum with too, so that it is the
shifted game's boundary growth bit for bit.

The sums have two kernels: a plain loop, and numpy on arrays of the game's
payouts and weights. The first-order kernel returns the derivative in t next
to the sum when asked. Only a price solve, which nests several proportion
solves, repays loading numpy, and it alone builds numpy state
(_first_order_kernel): a wide game's arrays are its own columns, built by
its first price solve and kept on that game alone, so a shifted game builds
its own, and a game's threshold steers only on arrays that its own price
solves built. Games of fewer than _VECTOR_MIN_OUTCOMES outcomes, and solves
where numpy cannot be imported, take the loops: numpy only accelerates, and
only this module holds numpy code.

On kept arrays a value that certifies a sign or may be returned (the
first-order sum, the boundary growth) is exact: terms formed with the loop's
IEEE operations, math.log per term and math.fsum. The exact log growth stays
a loop on every game: per call the arrays lost at 40 and 64 outcomes and
gained under 10% at 256. A value that only steers Newton, a start or a band
test (the derivative, the joint Newton's log growth, log B and its slope in
_shift_slope, the relative spread) is numpy's np.log, np.log1p and pairwise
.sum(), which are not the C library's (on 200 000 random arguments each,
numpy 2.4.6, np.log differed from math.log for 154 and np.log1p from
math.log1p for 17 283). A game's width picks a kernel, never a path: every
search steers and certifies the same way on either kernel, and only the
steering values differ. So no result depends on the kernel, though on a wide
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
from functools import cache, partial
from typing import Callable

from . import games
from .games import Game

# Outcome count from which a price solve runs the first-order sum on numpy
# arrays that the game keeps. On payouts 1..k with equal weights (Python
# 3.11, numpy 2.4, 2 vCPUs), one evaluation at u = 15, t = 0.5 with the
# derivative took 5.6-5.7 us looped against 5.6-6.3 us on numpy at 40
# outcomes and 6.4-7.4 against 5.9-6.3 at 48 (two runs). Whole optimal_price
# solves at r = 0.05 took 0.26 ms looped against 0.28 at 32 outcomes, 0.32
# against 0.30 at 40 and 0.39 against 0.35 at 48; threshold_shift 0.12
# against 0.13, 0.16 against 0.16 and 0.18 against 0.18. They cross near 40.
# One kernel call:
#   PYTHONPATH=src python -m timeit -r 9 -s "import growthprice.kernels as s;
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
    for the derivative, which steers. Only solver._solve_price calls it.

    From _VECTOR_MIN_OUTCOMES outcomes up, where numpy can be imported, the
    game keeps its own columns as arrays (payouts, weights), built by its
    first price solve and stored whole; a shifted game builds its own from
    its shifted columns, and no game reads or writes another's. A narrow
    game never loads numpy nor looks it up."""
    if len(game.outcomes) >= _VECTOR_MIN_OUTCOMES:
        kept = game.__dict__.get("_vector")
        if kept is None and (np := _import_numpy()) is not None:
            kept = game.__dict__["_vector"] = tuple(map(np.array, game._columns))
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


def _log_growth(outcomes: tuple[tuple[float, float], ...], u: float, t: float) -> float:
    """sum_i p_i log1p(t (a_i - u)/u), the exact log growth, over the
    (payout, weight) pairs of outcomes."""
    return math.fsum(w * math.log1p(t * (a - u) / u) for a, w in outcomes)


def _steering_log_growth(game: Game, u: float, t: float) -> float:
    """The log growth of game at (u, t) that steers the joint Newton: numpy's
    log1p and sum where the gate passes at u/t, which bounds t (a - u)/u,
    and _log_growth elsewhere."""
    if (kept := _steering(game, u / t)) is not None:
        x = t * (kept[0] - u) / u
        return float((kept[1] * _import_numpy().log1p(x)).sum())
    return _log_growth(game._pairs, u, t)


def _boundary_growth(game: Game, n: float) -> float | None:
    """B(n) = sum p/(a + n) exp(sum p log(a + n)), the boundary growth of
    game shifted by n, equal bit for bit to the statistics of
    translate(game, n); or None where the shifted payouts are no valid
    game's: their ends fail games._valid_ends or two merge, as
    games._shifted_payouts tests, which serves the loop and raises as it
    does. On the arrays that a price solve kept on the game the ends are
    tested on floats first, so that no array operation overflows, each
    shifted payout and quotient w/(a + n) is the loop's IEEE operation, and
    each log is math.log's, summed by math.fsum."""
    weights = game._columns[1]
    kept = game.__dict__.get("_vector")
    if kept is None:
        payouts = games._shifted_payouts(game, n)
        if payouts is None:
            return None
        harmonic = games._harmonic(payouts, weights)
    else:
        column = game._columns[0]
        if not games._valid_ends(column[0] + n, column[-1] + n):
            return None
        shifted = kept[0] + n
        if not (shifted[:-1] < shifted[1:]).all():
            return None
        harmonic = math.fsum((kept[1] / shifted).tolist())
        payouts = shifted.tolist()
    return harmonic * math.exp(games._log_moment(payouts, weights))


def _steering(game: Game, scale: float) -> tuple | None:
    """The arrays that a price solve kept on game, if any, where every payout
    is below 1e100 scale, or None: the gate in the module docstring."""
    if game._columns[0][-1] < 1e100 * scale:
        return game.__dict__.get("_vector")
    return None


def _shift_slope(game: Game) -> Callable[[float], tuple[float, float]]:
    """(d log B/dn, log B(n)) as a function of n, for B(n) =
    _boundary_growth(game, n) = H exp(sum p log(a + n)) with
    H = sum p/(a + n), finite on either kernel. With m = E + n,
    h = sum p m/(a + n) and h2 = sum p (m/(a + n))**2, formed on ratios so
    that nothing overflows or underflows at any payout scale, the slope is
    H - H2/H = (h - h2/h)/m and log B = log h - log m + sum p log(a + n).
    numpy forms the three sums where the gate passes at the smallest payout,
    so that no squared ratio overflows, and a loop elsewhere: the kernel
    changes the values, which only steer, and never the path. No arrays are
    built: loading numpy would cost more than it saves."""
    mean = games.compute_stats(game).expectation
    kept = _steering(game, game._columns[0][0])

    def log_slope(n: float) -> tuple[float, float]:
        m = mean + n
        if kept is not None:
            payouts, weights = kept
            shifted = payouts + n
            inv = m / shifted
            terms = weights * inv
            h, h2 = float(terms.sum()), float((terms * inv).sum())
            log_sum = float((weights * _import_numpy().log(shifted)).sum())
        else:
            h = h2 = log_sum = 0.0
            for a, w in game._pairs:
                inv = m / (a + n)
                h += w * inv
                h2 += w * inv * inv
                log_sum += w * math.log(a + n)
        return (h - h2 / h) / m, math.log(h) - math.log(m) + log_sum

    return log_slope


def _relative_spread(game: Game, u: float) -> tuple[float, float]:
    """(sum p x**2, sum p x**3) with x = (a - u)/u, added in plain float
    arithmetic, which overflows to inf where ** and math.fsum would raise.
    They steer and test bands only: numpy adds the same products where the
    gate passes at u, and a loop adds them in outcome order elsewhere."""
    if (kept := _steering(game, u)) is not None:
        payouts, weights = kept
        x = (payouts - u) / u
        squares = weights * x * x
        return float(squares.sum()), float((squares * x).sum())
    spread = cubes = 0.0
    for a, w in game._pairs:
        x = (a - u) / u
        square = w * x * x
        spread += square
        cubes += square * x
    return spread, cubes
