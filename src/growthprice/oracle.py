"""Independent verification paths for the solver, and the harness that
runs them.

Three routes that never touch the bisection code: the closed-form solution
for two-point games, brute-force grid maximization of the growth rate, and
Monte Carlo simulation of per-period wealth growth. verify compares each of
them with the solver and reports one Check per property.

The simulation uses an xorshift64* generator seeded through the splitmix64
finalizer, written out below so draws are bit-reproducible across platforms
and languages. Each path derives its state from (seed, path index) alone
and draws its own stream. The simulator cuts each path's stream into lanes
of consecutive draws, as many as fill a row of _BLOCK_DRAWS states, and
starts each lane at its place in the stream by GF(2) matrix jump-ahead
(Haramoto et al. 2008). It steps every lane of a row at once as numpy
uint64 arrays, assigns most draws to their outcome through a guide table
on their leading bits (Chen and Asau 1974), and keeps only an integer count
of draws per outcome. The statistics are formed from those counts, so
results do not depend on row size, lanes or path order, and working memory
does not grow with periods * paths.

numpy is imported inside the functions that use it, so importing this
module (and the CLI, which imports it) does not load numpy.
"""

from __future__ import annotations

import math
import operator
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


def grid_argmax_growth(game: Game, u: float, grid_points: int) -> float:
    """Brute-force argmax of the growth rate over a uniform proportion grid.

    The grid places `grid_points` interior points on
    (0, min(1, (1 - 1e-9) * u/(u - ess_inf))); ties resolve to the smaller
    proportion. Prices must lie in (fair_price, expectation), where the
    no-borrowing optimum is interior.
    """
    grid_points = _require_integer("grid_points", grid_points, 1)
    import numpy as np

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


def _require_seed(seed: object) -> int:
    """seed as an int, refused unless it is an integer in [0, 2**64)."""
    number = _require_integer("seed", seed, 0)
    if not number <= _MASK64:
        raise DomainError(f"seed={seed!r} must be below 2**64")
    return number


def _path_state(seed: int, path: int) -> int:
    """Nonzero xorshift64* state for one path, from (seed, path) only."""
    state = _mix64((seed + (path + 1) * _SPLITMIX_GAMMA) & _MASK64)
    return state or _SPLITMIX_GAMMA


# States stepped together per row of simulate_wealth. Each path's stream is
# cut into as many lanes as fill a row, so memory stays fixed however many
# draws a call makes, and every numpy call works on a full row.
_BLOCK_DRAWS = 4096
_MULTIPLIER = 0x2545F4914F6CDD1D
# Draws are sorted into 2**_GUIDE_BITS guide cells by their leading bits.
_GUIDE_BITS = 12


def _xorshift_step(state, scratch) -> None:
    """Advance every xorshift64* state in the uint64 array `state` by one step."""
    import numpy as np

    np.right_shift(state, np.uint64(12), out=scratch)
    state ^= scratch
    np.left_shift(state, np.uint64(25), out=scratch)
    state ^= scratch
    np.right_shift(state, np.uint64(27), out=scratch)
    state ^= scratch


def _jump_columns(steps: int):
    """The 64 columns of T**steps, T the xorshift64* state update: column i
    is the state that unit vector i reaches after `steps` steps."""
    import numpy as np

    columns = np.uint64(1) << np.arange(64, dtype=np.uint64)
    scratch = np.empty_like(columns)
    for _ in range(steps):
        _xorshift_step(columns, scratch)
    return columns


def _byte_tables(columns):
    """Lookup tables of the GF(2) matrix with these 64 columns: entry
    [b, v] is the image of byte value v placed at bits 8b to 8b + 7."""
    import numpy as np

    tables = np.zeros((8, 256), dtype=np.uint64)
    by_byte = columns.reshape(8, 8)
    for i in range(8):
        np.bitwise_xor(
            tables[:, : 1 << i], by_byte[:, i : i + 1], out=tables[:, 1 << i : 2 << i]
        )
    return tables


def _gf2_apply(tables, states):
    """The matrix of `tables` applied to each uint64 in `states`: one gather
    per byte of the state, and the eight images XORed."""
    import numpy as np

    shifts = np.arange(0, 64, 8, dtype=np.uint64)
    digits = ((states[..., None] >> shifts) & np.uint64(0xFF)).view(np.int64)
    return np.bitwise_xor.reduce(tables[np.arange(8), digits], axis=-1)


def _lane_starts(states, lanes: int, stride: int):
    """T**(k*stride) applied to each of `states`, for lanes k = 0..lanes-1,
    as a (lanes, len(states)) array. The lanes double at each pass, and
    the jump matrix is squared between passes."""
    import numpy as np

    starts = np.empty((lanes, len(states)), dtype=np.uint64)
    starts[0] = states
    jump = _jump_columns(stride) if lanes > 1 else None
    done = 1
    while done < lanes:
        tables = _byte_tables(jump)
        n = min(done, lanes - done)
        starts[done : done + n] = _gf2_apply(tables, starts[:n])
        done += n
        if done < lanes:
            jump = _gf2_apply(tables, jump)
    return starts


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


def _draw_counts(cum: list[float], periods: int, paths: int, seed: int) -> list[int]:
    """Draws per bucket of the cumulative weights `cum` (last entry 1.0).

    Path j makes `periods` draws from the xorshift64* stream started at
    _path_state(seed, j); see simulate_wealth for the step and the lanes.
    """
    import numpy as np

    # Every draw lies below cum[-1] = 1.0, so `cum <= x` holds on a prefix
    # of cum even where rounding lifted an earlier sum above 1, and
    # searchsorted finds the bucket a linear scan would.
    thresholds = np.array(cum)
    guide, straddles = _guide_table(thresholds)
    cell_counts = np.zeros(1 << _GUIDE_BITS, dtype=np.int64)
    counts = np.zeros(len(cum), dtype=np.int64)

    multiplier = np.uint64(_MULTIPLIER)
    for first_path in range(0, paths, _BLOCK_DRAWS):
        column = range(first_path, min(first_path + _BLOCK_DRAWS, paths))
        lanes = min(periods, _BLOCK_DRAWS // len(column))
        stride = -(-periods // lanes)
        lanes = -(-periods // stride)
        state = _lane_starts(
            np.array([_path_state(seed, j) for j in column], dtype=np.uint64),
            lanes,
            stride,
        ).ravel()
        scratch = np.empty_like(state)
        out = np.empty_like(state)
        cells = np.empty_like(state)
        # the last lane of each path stops after `tail` draws
        tail = periods - (lanes - 1) * stride
        kept = len(state) - len(column)
        for step in range(stride):
            _xorshift_step(state, scratch)
            n = len(state) if step < tail else kept
            np.multiply(state[:n], multiplier, out=out[:n])
            np.right_shift(out[:n], np.uint64(64 - _GUIDE_BITS), out=cells[:n])
            cell = cells[:n].view(np.int64)
            cell_counts += np.bincount(cell, minlength=1 << _GUIDE_BITS)
            x = (out[:n][straddles[cell]] >> np.uint64(11)) * 2.0**-53
            counts += np.bincount(
                np.searchsorted(thresholds, x, side="right"), minlength=len(cum)
            )
    # every draw in a cell that no bucket edge splits falls in its guide bucket
    np.add.at(counts, guide[~straddles], cell_counts[~straddles])
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

    and each x falls in the first bucket k with x < cum[k].

    The update of s is linear over GF(2), a 64 x 64 bit matrix T, so the
    state m steps on is T**m s. Up to _BLOCK_DRAWS paths step together, and
    each of them is cut into L lanes of m = ceil(periods / L) draws, with L
    the largest count for which the lanes of all paths fit in one row of
    _BLOCK_DRAWS states. Lane k starts at T**(k*m) applied to the path's
    state, found by doubling the lanes with T**m, then its square, and so
    on; the last lane stops at `periods`. A row of draws is stepped and
    multiplied out at once. Draws go to one of 4096 guide cells by their
    top 12 bits, out >> 52; a cell whose first and last x fall in the same
    bucket adds its count there, and only draws in the cells that a bucket
    edge splits are searched for their bucket. So every draw of every path
    is counted once in the bucket the scalar scan gives it. The mean and its
    standard error aggregate every period of every path from those counts
    with math.fsum, the variance in two passes, so the result does not
    depend on how draws are split into lanes or rows. Identical arguments
    give bit-identical results. The seed must be an integer in [0, 2**64),
    periods and paths integers of at least 1, and u positive and finite.
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
