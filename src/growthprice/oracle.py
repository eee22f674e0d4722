"""Independent verification paths for the solver, and the harness that
runs them.

Three routes that never touch the bisection code: the closed-form solution
for two-point games, the argmax of the growth rate over a uniform grid, and
Monte Carlo simulation of per-period wealth growth. verify compares each of
them with the solver and reports one Check per property.

The grid argmax returns the first maximum, the smaller proportion, of the
log growth as evaluated at every grid point, but evaluates few of them.
The exact log growth F(t) = sum w log1p(t (a - u)/u) is strictly concave,
so once F(c) > F(j) for grid points j < c, no point at or left of j can
beat c, and likewise on the right. A coarse pass at every isqrt(N)-th
point finds its first maximum c. eta bounds the rounding error of any one
evaluation (see grid_argmax_growth), so a coarse point evaluated more than
4 eta below c proves that no grid point beyond it is the first maximum.
Only the window between the nearest such points on either side of c is
evaluated in full, about 3 sqrt(N) points in all, 948 of 100 000; where
eta proves nothing, the window is the whole grid.

The simulation draws from the counter-based splitmix64 stream (Steele, Lea
and Flood 2014), written out below so draws are bit-reproducible across
platforms and languages: draw i depends only on (seed, i), so a block of
draws is a handful of numpy uint64 operations with no state to carry. Draws
are numbered path-major, so path j owns draws [j * periods, (j + 1) *
periods). A guide table on their leading bits (Chen and Asau 1974) assigns
most draws to their outcome, and only an integer count of draws per outcome
is kept. The statistics are formed from those counts, so results do not
depend on block size, and working memory does not grow with periods * paths.

numpy is imported inside the functions that use it, so importing this
module (and the CLI, which imports it) does not load numpy.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import NamedTuple

from .errors import DomainError
from .games import Game, compute_stats
from .solver import DEFAULT_MAX_ITER, DEFAULT_TOL, pre_optimal_proportion


class _TwoPointFields(NamedTuple):
    high: float
    low: float
    p_high: float


class TwoPointGame(_TwoPointFields):
    """Payout `high` with probability `p_high`, else `low` (0 < low < high)."""

    __slots__ = ()

    def __new__(cls, high: float, low: float, p_high: float) -> "TwoPointGame":
        if not (0.0 < low < high and math.isfinite(high)):
            raise DomainError(
                f"payouts must satisfy 0 < low < high, got low={low!r},"
                f" high={high!r}"
            )
        if not 0.0 < p_high < 1.0:
            raise DomainError(f"p_high={p_high!r} must lie in (0, 1)")
        return super().__new__(cls, high, low, p_high)

    @classmethod
    def _make(cls, iterable) -> "TwoPointGame":
        # _replace builds through _make, so it validates too
        return cls(*iterable)

    @property
    def expectation(self) -> float:
        return self.p_high * self.high + (1.0 - self.p_high) * self.low

    def to_game(self, label: str | None = None) -> Game:
        return Game.from_pairs(
            [(self.high, self.p_high), (self.low, 1.0 - self.p_high)], label=label
        )


def two_point_closed_form(
    g: TwoPointGame, u: float, n: float = 0.0
) -> tuple[float, float]:
    """Closed-form raw proportion and growth for a two-point game shifted by n.

    The proportion refers to the game shifted by n at price u + n:

        t = (E - u) * (n + u) / ((high - u) * (u - low))

    The growth rate at that proportion,

        (high - low) * (p/(u - low))**p * ((1-p)/(high - u))**(1-p),

    involves no n at all. The price must lie strictly between `low` and the
    expectation, and the shift must exceed -low.
    """
    e = g.expectation
    if not g.low < u < e:
        raise DomainError(
            f"price u={u!r} must lie in (low, expectation) = ({g.low!r}, {e!r})"
        )
    if not n > -g.low:
        raise DomainError(f"shift n={n!r} must exceed -low = {-g.low!r}")
    proportion = (e - u) * (n + u) / ((g.high - u) * (u - g.low))
    p = g.p_high
    growth = (
        (g.high - g.low)
        * (p / (u - g.low)) ** p
        * ((1.0 - p) / (g.high - u)) ** (1.0 - p)
    )
    return proportion, growth


def _require_integer(name: str, value: object, low: int) -> int:
    """value as an int, refused unless it is an integer (not a bool) of at
    least low."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise DomainError(f"{name}={value!r} must be an integer") from None
    if not number >= low:
        raise DomainError(
            f"{name}={value!r} must be nonnegative"
            if low == 0
            else f"{name}={value!r} must be at least {low}"
        )
    return number


def _log_growth(game: Game, u: float, ts):
    """The log growth at each proportion of the float64 array ts, as
    sum w * log1p(ts * ((a - u) / u)) over the outcomes in order."""
    import numpy as np

    log_growth = np.zeros_like(ts)
    # One scratch buffer for every outcome's term; the operations and their
    # order are those of log_growth += w * log1p(ts * ((a - u) / u)).
    term = np.empty_like(ts)
    for o in game.outcomes:
        np.multiply(ts, (o.payout - u) / u, out=term)
        np.log1p(term, out=term)
        term *= o.weight
        log_growth += term
    return log_growth


def grid_argmax_growth(game: Game, u: float, grid_points: int) -> float:
    """Argmax of the growth rate over a uniform proportion grid, found from
    a coarse pass and a window that must hold it.

    Grid point i (0-based) of N = grid_points is cap * (i + 1)/(N + 1),
    cap = min(1, (1 - 1e-9) * u/(u - ess_inf)); ties resolve to the first
    maximum, the smaller proportion. Prices must lie in (fair_price,
    expectation), where the no-borrowing optimum is interior. The result is
    the first argmax of _log_growth over the whole grid, but only about
    3 sqrt(N) points are evaluated.

    Lemma. Let F(t) = sum w log1p(t (a - u)/u), with the weights and the
    ratios (a - u)/u as the floats used below, and F(i) its value at grid
    point i, which does not decrease with i. F is strictly concave, so if
    F(c) > F(j) for some j < c, then F(i) <= F(j) for every i <= j; the
    same holds to the right of c.

    Bound. eta bounds |f~(i) - F(i)|, f~ the log growth as evaluated. With
    eps = 2**-53, K outcomes and x = t (a - u)/u: rounding the product x
    moves log1p by at most 1.01 eps |x|/(1 + x), as 1 + x >= 1e-9 below the
    cap; log1p is within 4 ulp, 8 eps |log1p x|; the product with w adds
    eps; and the K sequential adds at most (K - 1) eps sum w |log1p x|. So
    f~(i) is within eps (K + 8.01) sum w (|log1p x| + 1.02 |x|/(1 + x)) of
    F(i). Both |log1p x| and |x|/(1 + x) increase with t on (0, cap), so
    the sum at the last grid point t_N covers every point, and

        eta = 2 (K + 8) eps sum w (|log1p x| + |x|/(1 + x)) at t_N,

    the 2 covering second-order terms and the roundings of eta and of the
    comparisons with it.

    Window. The coarse pass evaluates points s - 1, 2s - 1, ... and N - 1,
    s = isqrt(N), and c is its first argmax. j_a is the nearest coarse
    point left of c with f~(c) - f~(j_a) > 4 eta, or -1 if there is none,
    and j_b the nearest such point on the right, or N. Then
    F(c) - F(j_a) > 2 eta, so by the lemma any evaluation of a point
    i <= j_a is at most F(j_a) + eta < F(c) - eta, below any evaluation of
    c; the same holds for i >= j_b. So the first maximum of the full grid
    lies in (j_a, j_b), and only that window is evaluated. 4 eta rather
    than 2 eta keeps the proof free of any assumption that a point gets the
    same bits in a short array as in a long one. Where eta proves nothing,
    as when (a - u)/u overflows and eta is NaN, the window is the whole
    grid.
    """
    n = _require_integer("grid_points", grid_points, 1)
    import numpy as np

    stats = compute_stats(game)
    if not (stats.fair_price < u < stats.expectation):
        raise DomainError(
            f"price u={u!r} outside (fair_price, expectation) ="
            f" ({stats.fair_price!r}, {stats.expectation!r})"
        )
    cap = min(1.0, (1.0 - 1e-9) * u / (u - stats.ess_inf))
    # Points are numbered i + 1 = 1..n; point i is cap * (i + 1) / (n + 1).
    stride = math.isqrt(n)
    coarse = np.append(np.arange(stride, n, stride, dtype=np.float64), n)
    coarse_ts = cap * coarse / (n + 1)
    values = _log_growth(game, u, coarse_ts)
    c = int(np.argmax(values))

    t_last = float(coarse_ts[-1])
    spread = 0.0
    for o in game.outcomes:
        x = t_last * ((o.payout - u) / u)
        spread += o.weight * (abs(math.log1p(x)) + abs(x) / (1.0 + x))
    eta = 2.0 * (len(game.outcomes) + 8) * 2.0**-53 * spread

    # every comparison with a NaN eta is false
    below = values < values[c] - 4.0 * eta
    left = np.flatnonzero(below[:c])
    right = np.flatnonzero(below[c + 1 :])
    first = int(coarse[left[-1]]) + 1 if left.size else 1
    last = int(coarse[c + 1 + right[0]]) - 1 if right.size else n
    ts = cap * np.arange(first, last + 1, dtype=np.float64) / (n + 1)
    return float(ts[int(np.argmax(_log_growth(game, u, ts)))])


# splitmix64 constants, written out for cross-language reproducibility.
_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _require_seed(seed: object) -> int:
    """seed as an int, refused unless it is an integer in [0, 2**64)."""
    number = _require_integer("seed", seed, 0)
    if not number <= _MASK64:
        raise DomainError(f"seed={seed!r} must be below 2**64")
    return number


# Draws generated and counted together by _draw_counts, so memory stays
# fixed however many draws a call makes.
_BLOCK_DRAWS = 2**15
# Draws are sorted into 2**_GUIDE_BITS guide cells by their leading bits.
_GUIDE_BITS = 12


def _stream(seed: int, start: int, stop: int):
    """Outputs start..stop-1 of the stream, as a uint64 array: output i is
    mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64), mix64 the
    splitmix64 finalizer."""
    import numpy as np

    # Every operand is a uint64 array or np.uint64 scalar: numpy before
    # NEP 50 turns uint64 mixed with a Python or int64 integer into float64.
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= np.uint64(_SPLITMIX_GAMMA)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _guide_table(thresholds):
    """Bucket of the first draw of each guide cell, and whether the cell's
    last draw falls in a later bucket. The draws of cell c are the x with
    53-bit integer part in [c, c + 1) * 2**41; both ends are exact floats,
    and the bucket is monotone in x."""
    import numpy as np

    low_bits = 53 - _GUIDE_BITS
    first = np.arange(1 << _GUIDE_BITS, dtype=np.uint64) << np.uint64(low_bits)
    last = first + np.uint64((1 << low_bits) - 1)
    guide = np.searchsorted(thresholds, first * 2.0**-53, side="right")
    straddles = guide != np.searchsorted(thresholds, last * 2.0**-53, side="right")
    return guide, straddles


def _draw_counts(cum: list[float], n: int, seed: int) -> list[int]:
    """Draws per bucket of the cumulative weights `cum` (last entry 1.0)
    among the first n outputs of _stream(seed, ...)."""
    import numpy as np

    # Every draw lies below cum[-1] = 1.0, so `cum <= x` holds on a prefix
    # of cum even where rounding lifted an earlier sum above 1, and
    # searchsorted finds the bucket a linear scan would.
    thresholds = np.array(cum)
    guide, straddles = _guide_table(thresholds)
    cell_counts = np.zeros(1 << _GUIDE_BITS, dtype=np.int64)
    counts = np.zeros(len(cum), dtype=np.int64)

    for start in range(0, n, _BLOCK_DRAWS):
        out = _stream(seed, start, min(start + _BLOCK_DRAWS, n))
        cell = (out >> np.uint64(64 - _GUIDE_BITS)).view(np.int64)
        cell_counts += np.bincount(cell, minlength=1 << _GUIDE_BITS)
        x = (out[straddles[cell]] >> np.uint64(11)) * 2.0**-53
        counts += np.bincount(
            np.searchsorted(thresholds, x, side="right"), minlength=len(cum)
        )
    # every draw in a cell that no bucket edge splits falls in its guide bucket
    np.add.at(counts, guide[~straddles], cell_counts[~straddles])
    return counts.tolist()


class SimulationResult(NamedTuple):
    """Per-period log growth statistics over periods * paths draws."""

    mean_log_growth: float
    std_error: float
    paths: int
    periods_per_path: int
    seed: int


def simulate_wealth(
    game: Game,
    u: float,
    t: float,
    periods: int,
    paths: int,
    seed: int,
) -> SimulationResult:
    """Simulate per-period log wealth growth at price u and proportion t.

    Outcomes are drawn i.i.d. by inverse CDF over the payout-sorted
    cumulative weights; each period multiplies wealth by a*t/u - t + 1, so
    the per-period log growth is the log of that factor. Path j makes draws
    i = j * periods, ..., (j + 1) * periods - 1 of the stream

        x_i = (mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64) >> 11) * 2**-53

    with mix64 the splitmix64 finalizer, and each x falls in the first
    bucket k with x < cum[k]. So the counts, and the result, depend on
    periods * paths alone.

    _BLOCK_DRAWS draws are generated at once. Each goes to one of 4096
    guide cells by its top 12 bits; a cell whose first and last x fall in
    the same bucket adds its count there, and only draws in the cells that
    a bucket edge splits are searched for their bucket. So every draw is
    counted once in the bucket the scalar scan gives it. The mean and its
    standard error aggregate every draw from those counts with math.fsum,
    the variance in two passes, so the result does not depend on the block
    size. Identical arguments give bit-identical results. The seed must be
    an integer in [0, 2**64), periods and paths integers of at least 1, and
    u positive and finite.
    """
    compute_stats(game)
    if not 0.0 < u < math.inf:
        raise DomainError(f"price u={u!r} must be positive and finite")
    if not 0.0 <= t <= 1.0:
        # proportions in [0, 1] keep every wealth factor positive, since
        # u/(u - ess_inf) > 1 whenever the essential infimum is positive
        raise DomainError(
            f"proportion t={t!r} must lie in [0, 1]; borrowing is unsupported"
        )
    periods = _require_integer("periods", periods, 1)
    paths = _require_integer("paths", paths, 1)
    seed = _require_seed(seed)

    cum = list(accumulate(o.weight for o in game.outcomes))
    cum[-1] = 1.0  # guard the last bucket against rounding
    log_factors = [math.log1p(t * (o.payout - u) / u) for o in game.outcomes]
    n = periods * paths
    counts = _draw_counts(cum, n, seed)
    terms = list(zip(counts, log_factors))
    mean = math.fsum(c * lf for c, lf in terms) / n
    if n > 1:
        var = math.fsum(c * (lf - mean) ** 2 for c, lf in terms) / (n - 1)
        std_error = math.sqrt(var / n)
    else:
        std_error = 0.0
    return SimulationResult(
        mean_log_growth=mean,
        std_error=std_error,
        paths=paths,
        periods_per_path=periods,
        seed=seed,
    )


class Check(NamedTuple):
    """One verified property: its name, whether it held, and the evidence."""

    name: str
    passed: bool
    detail: str


def verify(
    game: Game,
    *,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[Check]:
    """Cross-check the solver against every oracle, one Check per property.

    The random two-point games are drawn from numpy's default_rng(seed), and
    both simulations use the same seed, an integer in [0, 2**64).
    """
    _require_seed(seed)
    import numpy as np

    rng = np.random.default_rng(seed)
    checks: list[Check] = []

    # Solver against the two-point closed form on random games.
    worst_t = 0.0
    worst_g = 0.0
    for _ in range(200):
        low = 10.0 ** rng.uniform(-1.0, 1.0)
        high = low * (1.0 + 10.0 ** rng.uniform(-0.5, 1.5))
        tp = TwoPointGame(high=high, low=low, p_high=float(rng.uniform(0.05, 0.95)))
        u = low + float(rng.uniform(0.05, 0.95)) * (tp.expectation - low)
        solution = pre_optimal_proportion(tp.to_game(), u, tol=tol, max_iter=max_iter)
        t_cf, g_cf = two_point_closed_form(tp, u)
        worst_t = max(worst_t, abs(solution.proportion - t_cf) / t_cf)
        worst_g = max(worst_g, abs(solution.growth - g_cf) / g_cf)
    checks.append(
        Check(
            "closed_form_agreement",
            worst_t <= 1e-9 and worst_g <= 1e-9,
            f"max relative error over 200 games: proportion {worst_t:.3e},"
            f" growth {worst_g:.3e}",
        )
    )

    # Grid argmax against the solver root on the supplied game.
    stats = compute_stats(game)
    u_mid = 0.5 * (stats.fair_price + stats.expectation)
    grid_points = 1_000_000
    root = pre_optimal_proportion(game, u_mid, tol=tol, max_iter=max_iter)
    argmax = grid_argmax_growth(game, u_mid, grid_points)
    cap = min(1.0, (1.0 - 1e-9) * u_mid / (u_mid - stats.ess_inf))
    step = cap / (grid_points + 1)
    gap = abs(argmax - root.proportion)
    checks.append(
        Check(
            "grid_argmax_within_one_step",
            gap <= step + 1e-15,
            f"argmax {argmax!r} vs root {root.proportion!r}, step {step:.3e}",
        )
    )

    # Monte Carlo mean against the analytic growth rate on the supplied game.
    # A correct solver misses a 5*SE band on about one seed in 1.7 million,
    # against one in 370 at 3*SE. 1e6 draws make the band sqrt(10) times
    # narrower than 1e5 did, so it tests the growth formula about 3x as
    # tightly, for a few milliseconds more.
    sim = simulate_wealth(
        game, u_mid, root.proportion, periods=200, paths=5000, seed=seed
    )
    target = math.log(root.growth)
    band = 5.0 * sim.std_error
    checks.append(
        Check(
            "monte_carlo_consistency",
            abs(sim.mean_log_growth - target) <= band,
            f"mean {sim.mean_log_growth!r} vs log growth {target!r},"
            f" 5*SE {band:.3e}",
        )
    )

    idle = simulate_wealth(game, u_mid, 0.0, periods=50, paths=10, seed=seed)
    checks.append(
        Check(
            "zero_proportion_exact",
            idle.mean_log_growth == 0.0 and idle.std_error == 0.0,
            f"mean {idle.mean_log_growth!r}, std_error {idle.std_error!r}",
        )
    )
    return checks
