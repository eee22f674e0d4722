"""Independent verification paths for the solver, and the harness that
runs them.

Three routes that never touch the bisection code: the closed-form solution
for two-point games, the argmax of the growth rate over a uniform grid, and
Monte Carlo simulation of per-period wealth growth. verify compares each of
them with the solver and reports one Check per property. The module is pure
Python: it imports no numpy, and the solver's proportion solves that verify
runs take the loop at any width, so the verify command never loads numpy.

The grid argmax returns the first maximum of the log growth as evaluated
at every grid point, but evaluates 24 of 100 000 points: a Fibonacci
search (Kiefer 1953) cuts the range only where the concavity of the log
growth and a bound on its rounding prove the cut (see grid_argmax_growth).

The simulation keeps only the number of draws that fall on each outcome,
and those counts are Multinomial(periods * paths, w). They are sampled
exactly as K - 1 conditional binomials (Davis 1993), each drawn by
inversion where its smaller tail has mean below 10 and by Hoermann's BTRS
otherwise, from the splitmix64 stream (Steele, Lea and Flood 2014). So a
call costs the same at 10**3 draws as at 10**12. The binomials call
math.log, math.log1p, math.exp and math.lgamma, so the counts are
reproducible across platforms that share a libm, not across languages.
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
        bound = "be nonnegative" if low == 0 else f"be at least {low}"
        raise DomainError(f"{name}={value!r} must {bound}")
    return number


def _log_growth(terms: list[tuple[float, float]], t: float) -> float:
    """The log growth at proportion t: sum w * log1p(t * ratio) over the
    (w, ratio) pairs, ratio = (a - u)/u, added in order from 0.0."""
    total = 0.0
    for w, ratio in terms:
        total += w * math.log1p(t * ratio)
    return total


def _grid_cap(u: float, ess_inf: float) -> float:
    """The cap of grid_argmax_growth's grid at price u: 1, or 1e-9 short of
    the proportion u/(u - ess_inf) where the first-order sum diverges."""
    return min(1.0, (1.0 - 1e-9) * u / (u - ess_inf))


def grid_argmax_growth(game: Game, u: float, grid_points: int) -> float:
    """Argmax of the growth rate over a uniform proportion grid, found by a
    proven Fibonacci search.

    Grid point i (0-based) of N = grid_points is cap * (i + 1)/(N + 1),
    cap = min(1, (1 - 1e-9) * u/(u - ess_inf)); ties resolve to the first
    maximum, the smaller proportion. Prices must lie in (fair_price,
    expectation), where the no-borrowing optimum is interior. The result is
    the first argmax of _log_growth over the whole grid, but only about
    log_phi(N) points, phi = 1.618..., are evaluated where every pair cuts.

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

    Cut. If f~(m2) - f~(m1) > 4 eta for probes m1 < m2, then
    F(m2) - F(m1) > 2 eta, so by the lemma any point i <= m1 evaluates to
    at most F(m1) + eta < F(m2) - eta, below f~(m2): none is the first
    maximum, and the range [lo, hi] that holds it becomes [m1 + 1, hi].
    Likewise on the right. The range is padded to Fib(k) - 1 points, Fib
    the Fibonacci numbers, with probes Fib(k - 2) - 1 in from each end; a cut
    keeps one probe and mirrors it, lo + hi - m, so it evaluates one new
    point, and none past N - 1, where padding lies below every grid point.
    The search runs until one point is left or a pair proves nothing, and
    the first maximum of what is left of the range, none past N - 1, is
    then the first maximum of the whole grid. Where eta proves nothing, as
    when (a - u)/u overflows and eta is NaN, every comparison with it is
    false, the search stops at its first pair and every point is evaluated.
    """
    n = _require_integer("grid_points", grid_points, 1)
    stats = compute_stats(game)
    if not (stats.fair_price < u < stats.expectation):
        raise DomainError(
            f"price u={u!r} outside (fair_price, expectation) ="
            f" ({stats.fair_price!r}, {stats.expectation!r})"
        )
    cap = _grid_cap(u, stats.ess_inf)
    terms = [(o.weight, (o.payout - u) / u) for o in game.outcomes]
    values: dict[int, float] = {}

    def value(i: int) -> float:
        if i not in values:
            values[i] = _log_growth(terms, cap * (i + 1) / (n + 1))
        return values[i]

    t_last = cap * n / (n + 1)
    spread = 0.0
    for w, ratio in terms:
        x = t_last * ratio
        spread += w * (abs(math.log1p(x)) + abs(x) / (1.0 + x))
    eta = 2.0 * (len(terms) + 8) * 2.0**-53 * spread

    a, b = 1, 1
    while a + b <= n:
        a, b = b, a + b
    lo, hi, m1, m2 = 0, a + b - 2, a - 1, b - 1
    v1, v2 = value(m1), value(m2)
    while m1 < m2:
        if v1 < v2 - 4.0 * eta:
            lo, m1, v1 = m1 + 1, m2, v2
            m2 = lo + hi - m1
            v2 = value(m2) if m2 < n else -math.inf
        elif v2 < v1 - 4.0 * eta:
            hi, m2, v2 = m2 - 1, m1, v1
            m1 = lo + hi - m2
            v1 = value(m1)
        else:
            break
    best = max(range(lo, min(hi, n - 1) + 1), key=value)
    return cap * (best + 1) / (n + 1)


# splitmix64 constants, written out for cross-language reproducibility.
_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _require_seed(seed: object) -> int:
    """seed as an int, refused unless it is an integer in [0, 2**64)."""
    number = _require_integer("seed", seed, 0)
    if not number <= _MASK64:
        raise DomainError(f"seed={seed!r} must be below 2**64")
    return number


def _uniforms(seed: int):
    """The splitmix64 stream at seed, as floats in (0, 1]: output i is

        ((mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64) >> 11) + 1) * 2**-53

    with mix64 the splitmix64 finalizer. 1 rather than 0 is included, so
    log() of a draw is always finite."""
    state = seed
    while True:
        state = (state + _SPLITMIX_GAMMA) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield (((z ^ (z >> 31)) >> 11) + 1) * 2.0**-53


# A binomial whose smaller tail has mean below this is drawn by inversion,
# in that many steps on average; BTRS's constants hold from n p >= 10.
_INVERSION_MEAN = 10.0


def _stirling_tail(x: int) -> float:
    """log x! - (x + 1/2) log(x + 1) + x + 1 - log(2 pi)/2, Stirling's
    remainder: by lgamma below 30, by its series in 1/(x + 1) above."""
    if x < 30:
        stirling = (x + 0.5) * math.log(x + 1) - x - 1 + 0.5 * math.log(math.tau)
        return math.lgamma(x + 1) - stirling
    z = 1.0 / (x + 1)
    return (1 / 12 - (1 / 360 - z * z / 1260) * z * z) * z


def _log_pmf_ratio(n: int, p: float, m: int, k: int) -> float:
    """log(f(k) / f(m)), f the Binomial(n, p) pmf, 0 <= k, m <= n, as
    Stirling's formula plus _stirling_tail with its large terms differenced
    by log1p: the rounding grows with |k - m|, not with n. A difference of
    lgamma values would carry n log n 2**-53, about 3e-3 at n = 10**12."""
    return (
        (k + 0.5) * math.log1p((m - k) / (k + 1))
        + (n - k + 0.5) * math.log1p((k - m) / (n - k + 1))
        + (k - m) * math.log((n - m + 1) * p / ((m + 1) * (1.0 - p)))
        + _stirling_tail(m) + _stirling_tail(n - m)
        - _stirling_tail(k) - _stirling_tail(n - k)
    )


def _binomial(n: int, p: float, uniform) -> int:
    """One Binomial(n, p) draw, 0 <= p <= 1, from uniform(), which returns
    the next draw in (0, 1].

    With p the smaller of p and 1 - p (the count is mirrored otherwise):
    where n p < 10, inversion walks the probabilities up from 0
    (Kachitvichyanukul and Schmeiser 1988, BINV), redrawing a uniform that
    rounding leaves above the total mass. Otherwise BTRS, transformed
    rejection with a squeeze (Hoermann 1993), written out after CPython
    3.12's random.binomialvariate, which 3.10 and 3.11 lack: each trial
    takes two uniforms, accepts about 80% of the time, and needs
    _log_pmf_ratio only outside the squeeze."""
    mirrored = p > 0.5
    if mirrored:
        p = 1.0 - p
    q = 1.0 - p
    if n * p < _INVERSION_MEAN:
        s = p / q
        a = (n + 1) * s
        r0 = math.exp(n * math.log1p(-p))
        while True:
            x = uniform()
            k, r = 0, r0
            while x > r and k < n:
                x -= r
                k += 1
                r *= a / k - s
            if x <= r:
                break
    else:
        spq = math.sqrt(n * p * q)
        b = 1.15 + 2.53 * spq
        a = -0.0873 + 0.0248 * b + 0.01 * p
        c = n * p + 0.5
        v_r = 0.92 - 4.2 / b
        alpha = (2.83 + 5.1 / b) * spq
        m = math.floor((n + 1) * p)
        while True:
            x = uniform() - 0.5
            us = 0.5 - abs(x)
            if us == 0.0:  # the uniform 1.0, whose k is infinite
                continue
            k = math.floor((2.0 * a / us + b) * x + c)
            if not 0 <= k <= n:
                continue
            v = uniform()
            if us >= 0.07 and v <= v_r:
                break
            v *= alpha / (a / (us * us) + b)
            if math.log(v) <= _log_pmf_ratio(n, p, m, k):
                break
    return n - k if mirrored else k


def _multinomial(n: int, weights: list[float], uniform) -> list[int]:
    """Counts per outcome of n i.i.d. draws from the weights (positive,
    summing to 1 up to rounding): Multinomial(n, w / sum w), sampled as at
    most K - 1 conditional binomials (Davis 1993). Outcome k takes
    Binomial(draws left, w_k / (w_k + ... + w_K)), the tail summed from the
    last outcome, and the last outcome takes the draws left."""
    tails = list(accumulate(reversed(weights)))[::-1]
    counts = []
    left = n
    for w, tail in zip(weights[:-1], tails):
        count = _binomial(left, w / tail, uniform) if left else 0
        counts.append(count)
        left -= count
    counts.append(left)
    return counts


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

    Each period draws an outcome i.i.d. from the weights and multiplies
    wealth by a*t/u - t + 1, so the per-period log growth is the log of
    that factor. The statistics depend only on how many of the
    n = periods * paths draws fall on each outcome, so those counts are
    sampled directly as Multinomial(n, w), at any n, by _multinomial from
    the splitmix64 stream at seed (_uniforms), in at most K - 1 binomial
    draws. The result depends on n alone, not on how it splits into
    periods and paths. The mean and its standard error aggregate every
    draw from those counts with math.fsum, the variance in two passes.
    Identical arguments give bit-identical results on platforms that share
    a libm (the binomials call math.log, math.log1p, math.exp and
    math.lgamma). The seed must be an integer in [0, 2**64), periods and
    paths integers of at least 1, and u positive and finite.
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

    log_factors = [math.log1p(t * (o.payout - u) / u) for o in game.outcomes]
    n = periods * paths
    weights = [o.weight for o in game.outcomes]
    counts = _multinomial(n, weights, _uniforms(seed).__next__)
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

    The two-point games come from the splitmix64 stream at seed (_uniforms),
    and both simulations use the same seed, an integer in [0, 2**64).
    """
    uniform = _uniforms(_require_seed(seed)).__next__

    def draw(low: float, high: float) -> float:
        return low + (high - low) * uniform()

    checks: list[Check] = []

    # Solver against the two-point closed form on random games.
    worst_t = worst_g = 0.0
    for _ in range(200):
        low = 10.0 ** draw(-1.0, 1.0)
        high = low * (1.0 + 10.0 ** draw(-0.5, 1.5))
        tp = TwoPointGame(high=high, low=low, p_high=draw(0.05, 0.95))
        u = low + draw(0.05, 0.95) * (tp.expectation - low)
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
    step = _grid_cap(u_mid, stats.ess_inf) / (grid_points + 1)
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
    # against one in 370 at 3*SE; the counts cost the same at any number.
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
