"""Independent verification paths for the solver, and the harness that
runs them.

Three routes that never touch the bisection code: the closed-form solution
for two-point games, brute-force grid maximization of the growth rate, and
Monte Carlo simulation of per-period wealth growth. verify compares each of
them with the solver and reports one Check per property.

The simulation uses an xorshift64* generator seeded through the splitmix64
finalizer, written out below so draws are bit-reproducible across platforms
and languages. Each path derives its state from (seed, path index) alone
and draws its own stream. The simulator steps every path's state at once
as numpy uint64 arrays, in blocks of at most _BLOCK_DRAWS draws, and keeps
only an integer count of draws per outcome. The statistics are formed from
those counts, so results do not depend on block size, scheduling or path
order, and working memory does not grow with periods * paths.

numpy is imported inside the functions that use it, so importing this
module (and the CLI, which imports it) does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .errors import DomainError
from .games import Game, compute_stats
from .solver import DEFAULT_MAX_ITER, DEFAULT_TOL, pre_optimal_proportion


@dataclass(frozen=True)
class TwoPointGame:
    """Payout `high` with probability `p_high`, else `low` (0 < low < high)."""

    high: float
    low: float
    p_high: float

    def __post_init__(self) -> None:
        if not (0.0 < self.low < self.high and math.isfinite(self.high)):
            raise DomainError(
                f"payouts must satisfy 0 < low < high, got low={self.low!r},"
                f" high={self.high!r}"
            )
        if not 0.0 < self.p_high < 1.0:
            raise DomainError(f"p_high={self.p_high!r} must lie in (0, 1)")

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


def grid_argmax_growth(game: Game, u: float, grid_points: int) -> float:
    """Brute-force argmax of the growth rate over a uniform proportion grid.

    The grid places `grid_points` interior points on
    (0, min(1, (1 - 1e-9) * u/(u - ess_inf))); ties resolve to the smaller
    proportion. Prices must lie in (fair_price, expectation), where the
    no-borrowing optimum is interior.
    """
    import numpy as np

    if grid_points < 1:
        raise DomainError(f"grid_points={grid_points!r} must be at least 1")
    stats = compute_stats(game)
    if not (stats.fair_price < u < stats.expectation):
        raise DomainError(
            f"price u={u!r} outside (fair_price, expectation) ="
            f" ({stats.fair_price!r}, {stats.expectation!r})"
        )
    cap = min(1.0, (1.0 - 1e-9) * u / (u - stats.ess_inf))
    ts = cap * np.arange(1, grid_points + 1, dtype=np.float64) / (grid_points + 1)
    log_growth = np.zeros_like(ts)
    # One scratch buffer for every outcome's term; the operations and their
    # order are those of log_growth += w * log1p(ts * ((a - u) / u)).
    term = np.empty_like(ts)
    for o in game.outcomes:
        np.multiply(ts, (o.payout - u) / u, out=term)
        np.log1p(term, out=term)
        term *= o.weight
        log_growth += term
    return float(ts[int(np.argmax(log_growth))])


# 64-bit generator, written out for cross-language reproducibility.
_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 output finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _path_state(seed: int, path: int) -> int:
    """Nonzero xorshift64* state for one path, from (seed, path) only."""
    state = _mix64((seed + (path + 1) * _SPLITMIX_GAMMA) & _MASK64)
    return state or _SPLITMIX_GAMMA


# Draws per working block of simulate_wealth. Paths are stepped together in
# columns of at most this many, and a block holds as many periods of one
# column as fit, so memory stays fixed however many draws a call makes.
_BLOCK_DRAWS = 4096


def _draw_counts(cum: list[float], periods: int, paths: int, seed: int) -> list[int]:
    """Draws per bucket of the cumulative weights `cum` (last entry 1.0).

    Path j makes `periods` draws from the xorshift64* stream started at
    _path_state(seed, j); see simulate_wealth for the step.
    """
    import numpy as np

    # Every draw lies below cum[-1] = 1.0, so `cum <= x` holds on a prefix
    # of cum even where rounding lifted an earlier sum above 1, and
    # searchsorted finds the bucket a linear scan would.
    thresholds = np.array(cum)
    counts = np.zeros(len(cum), dtype=np.int64)
    width = min(paths, _BLOCK_DRAWS)
    rows = min(periods, max(1, _BLOCK_DRAWS // width))
    block = np.empty((rows, width), dtype=np.uint64)
    multiplier = np.uint64(0x2545F4914F6CDD1D)
    for first in range(0, paths, width):
        last = min(first + width, paths)
        state = np.array(
            [_path_state(seed, j) for j in range(first, last)], dtype=np.uint64
        )
        shifted = np.empty_like(state)
        for start in range(0, periods, rows):
            out = block[: min(rows, periods - start), : last - first]
            for row in out:
                np.right_shift(state, 12, out=shifted)
                state ^= shifted
                np.left_shift(state, 25, out=shifted)
                state ^= shifted
                np.right_shift(state, 27, out=shifted)
                state ^= shifted
                np.multiply(state, multiplier, out=row)
            out >>= 11
            x = out * 2.0**-53
            buckets = np.searchsorted(thresholds, x.ravel(), side="right")
            counts += np.bincount(buckets, minlength=len(cum))
    return counts.tolist()


@dataclass(frozen=True)
class SimulationResult:
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
    the per-period log growth is the log of that factor. Path j draws
    `periods` consecutive outputs of an xorshift64* stream started from
    _path_state(seed, j):

        s ^= s >> 12;  s ^= s << 25 (mod 2**64);  s ^= s >> 27
        out = s * 0x2545F4914F6CDD1D (mod 2**64);  x = (out >> 11) * 2**-53

    and each x falls in the first bucket k with x < cum[k]. Up to
    _BLOCK_DRAWS paths step together as numpy uint64 arrays, and each block
    of at most _BLOCK_DRAWS draws only adds to per-outcome draw counts. The mean and
    its standard error aggregate every period of every path from those
    counts with math.fsum, the variance in two passes, so the result does
    not depend on how draws are split into blocks. Identical arguments give
    bit-identical results.
    """
    compute_stats(game)
    if not u > 0.0:
        raise DomainError(f"price u={u!r} must be strictly positive")
    if not 0.0 <= t <= 1.0:
        # proportions in [0, 1] keep every wealth factor positive, since
        # u/(u - ess_inf) > 1 whenever the essential infimum is positive
        raise DomainError(
            f"proportion t={t!r} must lie in [0, 1]; borrowing is unsupported"
        )
    if periods < 1 or paths < 1:
        raise DomainError(
            f"periods={periods!r} and paths={paths!r} must both be at least 1"
        )
    seed = int(seed) & _MASK64

    cum = list(accumulate(o.weight for o in game.outcomes))
    cum[-1] = 1.0  # guard the last bucket against rounding
    log_factors = [math.log1p(t * (o.payout - u) / u) for o in game.outcomes]
    counts = _draw_counts(cum, periods, paths, seed)

    n = periods * paths
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


@dataclass(frozen=True)
class Check:
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
    both simulations use the same seed, which must be nonnegative.
    """
    if not seed >= 0:
        raise DomainError(f"seed={seed!r} must be nonnegative")
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
    grid_points = 100_000
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
    # against one in 370 at 3*SE, and 1e5 draws make the 5*SE band narrower
    # than the 3*SE band on 2e4 draws.
    sim = simulate_wealth(game, u_mid, root.proportion, periods=200, paths=500, seed=seed)
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
