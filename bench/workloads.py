"""The four benchmark workloads: inputs, the timed op, and correctness gates.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. Inputs come from the workload seed alone, and the
library sees only the generated games and arguments. Reference quantities
used by the gates (expectation, regime boundary, boundary growth) are
computed here with math.fsum, independently of the library.

Library functions are always looked up on the package at call time
(``gp.optimal_price``), so the tracer's rebinding takes effect.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import growthprice as gp
import growthprice.cli as gp_cli

# Gate tolerances.
GROWTH_REL_TOL = 1e-9  # growth_check against exp(r)
CLOSED_FORM_REL_TOL = 1e-9  # two-point solver against the closed form
ADDITIVITY_TOL = 1e-6  # equals the library's TRANSLATION_CHECK_TOL
BOUNDARY_REL_TOL = 1e-9  # boundary growth at n0 against exp(r)
# A 4*SE band would misfire on about one op in 16 000 by chance, which over
# the hundreds of ops of every run adds up; 5*SE misfires on one in 1.7e6.
MC_SE_BAND = 5.0


def _rel_close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * abs(y)


def random_pairs(rng: random.Random, k: int) -> list[tuple[float, float]]:
    """k outcomes, drawn like the test suite's random games.

    Two outcomes: low log-uniform in [0.1, 10], high/low - 1 log-uniform in
    [10**-0.5, 10**1.5], p_high uniform in [0.05, 0.95]. Two log-uniform
    payouts would now and then land almost equal, which puts the regime
    boundary near 1e-8; prices then sit so close to the expectation that
    cancellation costs both the solver and the closed form about eight
    digits. More outcomes: payouts log-uniform in [0.1, 100], weights uniform
    in [0.05, 1] then normalized.
    """
    if k == 2:
        low = 10.0 ** rng.uniform(-1.0, 1.0)
        high = low * (1.0 + 10.0 ** rng.uniform(-0.5, 1.5))
        p_high = rng.uniform(0.05, 0.95)
        return [(high, p_high), (low, 1.0 - p_high)]
    payouts = [10.0 ** rng.uniform(-1.0, 2.0) for _ in range(k)]
    weights = [rng.uniform(0.05, 1.0) for _ in range(k)]
    total = math.fsum(weights)
    return [(a, w / total) for a, w in zip(payouts, weights)]


def own_peak_rss_kb(outs) -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def no_layer_metrics(items, latencies, smoke: bool) -> dict[str, float]:
    """In-process workloads get all their per-layer metrics from the spans."""
    return {}


def ref_expectation(pairs) -> float:
    return math.fsum(w * a for a, w in pairs)


def ref_log_boundary(pairs) -> float:
    """log of the growth at the fair price with full investment: rates at or
    above it price in the full-investment regime."""
    harmonic = math.fsum(w / a for a, w in pairs)
    return math.log(harmonic) + math.fsum(w * math.log(a) for a, w in pairs)


def ref_boundary_growth(pairs, n: float) -> float:
    harmonic = math.fsum(w / (a + n) for a, w in pairs)
    return harmonic * math.exp(math.fsum(w * math.log(a + n) for a, w in pairs))


# --------------------------------------------------------------------------
# solve_narrow / solve_wide


# The translate shift of each op in a cycle of five, as a multiple of the
# threshold shift n0. None marks the op priced in the full-investment regime,
# shifted by half the expectation. Of the interior ops, three shift below n0
# (the additivity check runs and the base game is priced again) and one above.
# The slowest kind, 60% of ops, holds both p50 and p90, rather than a
# boundary between kinds.
SHIFT_FACTORS = (0.5, 2.0, 0.5, 0.5, None)
# Rate as a share of the game's log regime boundary, drawn uniformly per op,
# so costs spread smoothly instead of clustering at a few levels.
INTERIOR_FRACS = (0.1, 0.95)
FULL_INVESTMENT_FRACS = (1.2, 2.0)


WIDE_BOOKS = 4


@dataclass(frozen=True)
class SolveItem:
    game: object
    pairs: list
    rate: float
    shift_factor: float | None
    expectation: float
    log_boundary: float


class Solve:
    """optimal_price + threshold_shift + price_translated on one game per op."""

    child_processes = False

    def __init__(self, name: str, wide: bool) -> None:
        self.name = name
        self.wide = wide
        # Narrow: every width 2-8 meets every shift kind once per cycle.
        # Wide: every book does.
        self.cycle = len(SHIFT_FACTORS) * (WIDE_BOOKS if wide else 7)
        # Ops per second of the seed commit on a 2-vCPU Linux VM; with the run
        # length this fixes the op count.
        self.nominal_ops_per_s = 5.0 if wide else 220.0
        self.warmup = len(SHIFT_FACTORS)  # ops run untimed before a traced run

    def setup(self, seed: int, n_ops: int, smoke: bool) -> list[SolveItem]:
        rng = random.Random(f"{self.name}/{seed}")
        if self.wide:
            # A few games of fixed width, revisited at varying rates.
            k = 32 if smoke else 256
            books = [random_pairs(rng, k) for _ in range(WIDE_BOOKS)]
            games = [gp.Game.from_pairs(pairs) for pairs in books]
        items = []
        for i in range(n_ops):
            if self.wide:
                pairs, game = books[i % WIDE_BOOKS], games[i % WIDE_BOOKS]
            else:
                pairs = random_pairs(rng, 2 + i % 7)
                game = gp.Game.from_pairs(pairs)
            shift_factor = SHIFT_FACTORS[i % len(SHIFT_FACTORS)]
            fracs = FULL_INVESTMENT_FRACS if shift_factor is None else INTERIOR_FRACS
            log_boundary = ref_log_boundary(pairs)
            items.append(
                SolveItem(
                    game=game,
                    pairs=pairs,
                    rate=rng.uniform(*fracs) * log_boundary,
                    shift_factor=shift_factor,
                    expectation=ref_expectation(pairs),
                    log_boundary=log_boundary,
                )
            )
        return items

    def op(self, item: SolveItem):
        price = gp.optimal_price(item.game, item.rate)
        threshold = gp.threshold_shift(item.game, item.rate)
        if item.shift_factor is None:
            n = 0.5 * item.expectation
        else:
            n = item.shift_factor * threshold.n0
        shifted = gp.price_translated(item.game, item.rate, n)
        return price, threshold, n, shifted

    traced_op = op
    peak_rss_kb = staticmethod(own_peak_rss_kb)
    layer_metrics = staticmethod(no_layer_metrics)

    def check(self, item: SolveItem, out) -> list[str]:
        price, threshold, n, shifted = out
        problems = []
        target = math.exp(item.rate)
        for label, sol in (("optimal_price", price), ("price_translated", shifted)):
            if not _rel_close(sol.growth_check, target, GROWTH_REL_TOL):
                problems.append(f"{label} growth_check {sol.growth_check!r} != exp(r)")
        interior = item.rate < item.log_boundary
        regime = "interior" if interior else "full_investment"
        if price.regime.value != regime:
            problems.append(f"regime {price.regime.value} != {regime}")
        if not interior:
            if threshold.n0 is not None:
                problems.append(f"threshold n0={threshold.n0!r} in full investment")
            return problems
        if threshold.n0 is None:
            return problems + ["threshold not found for an interior rate"]
        b = ref_boundary_growth(item.pairs, threshold.n0)
        if not _rel_close(b, target, BOUNDARY_REL_TOL):
            problems.append(f"boundary growth {b!r} at n0 != exp(r)")
        if n < threshold.n0:
            gap = abs(shifted.optimal_price - (price.optimal_price + n))
            if not gap <= ADDITIVITY_TOL:
                problems.append(f"shifted price misses base + shift by {gap:.3e}")
        if len(item.pairs) == 2:
            (low, _), (high, p_high) = sorted(item.pairs)
            tp = gp.TwoPointGame(high=high, low=low, p_high=p_high)
            t_cf, g_cf = gp.two_point_closed_form(tp, price.optimal_price)
            if not (
                _rel_close(price.proportion, t_cf, CLOSED_FORM_REL_TOL)
                and _rel_close(price.growth_check, g_cf, CLOSED_FORM_REL_TOL)
            ):
                problems.append(
                    f"two-point solution ({price.proportion!r}, {price.growth_check!r})"
                    f" != closed form ({t_cf!r}, {g_cf!r})"
                )
        return problems

    def properties(self, items, outs) -> dict:
        done = [(item, out) for item, out in zip(items, outs) if out is not None]
        full = sum(out[0].regime.value == "full_investment" for _, out in done)
        below = sum(
            out[1].n0 is not None and out[2] < out[1].n0 for _, out in done
        )
        n = max(1, len(done))
        return {
            "outcome_counts": _histogram(len(item.pairs) for item in items),
            "distinct_games": len({id(item.pairs) for item in items}),
            "regime_share": {"interior": (len(done) - full) / n, "full_investment": full / n},
            "price_translated_additivity_checked_share": below / n,
        }


# --------------------------------------------------------------------------
# oracle_mc

# Outcome counts cycle through five widths, so p50 and p90 each fall in the
# middle of one width's share of the ops instead of between two.
ORACLE_WIDTHS = (2, 5, 12, 28, 64)


@dataclass(frozen=True)
class OracleItem:
    game: object
    pairs: list
    sim_seed: int
    grid_points: int
    periods: int
    paths: int


class OracleMC:
    """Grid argmax and Monte Carlo growth at (u_mid, t*) on one game per op."""

    name = "oracle_mc"
    child_processes = False
    cycle = len(ORACLE_WIDTHS)
    warmup = len(ORACLE_WIDTHS)
    nominal_ops_per_s = 7.0

    def setup(self, seed: int, n_ops: int, smoke: bool) -> list[OracleItem]:
        rng = random.Random(f"{self.name}/{seed}")
        items = []
        for i in range(n_ops):
            pairs = random_pairs(rng, ORACLE_WIDTHS[i % len(ORACLE_WIDTHS)])
            items.append(
                OracleItem(
                    game=gp.Game.from_pairs(pairs),
                    pairs=pairs,
                    sim_seed=rng.getrandbits(63),
                    grid_points=1_000 if smoke else 100_000,
                    periods=100 if smoke else 1_000,
                    paths=20 if smoke else 100,
                )
            )
        return items

    def op(self, item: OracleItem):
        stats = gp.compute_stats(item.game)
        u = 0.5 * (stats.fair_price + stats.expectation)
        root = gp.pre_optimal_proportion(item.game, u)
        argmax = gp.grid_argmax_growth(item.game, u, item.grid_points)
        sim = gp.simulate_wealth(
            item.game, u, root.proportion, item.periods, item.paths, item.sim_seed
        )
        return u, root, argmax, sim

    traced_op = op
    peak_rss_kb = staticmethod(own_peak_rss_kb)
    layer_metrics = staticmethod(no_layer_metrics)

    def check(self, item: OracleItem, out) -> list[str]:
        u, root, argmax, sim = out
        problems = []
        xi = min(a for a, _ in item.pairs)
        cap = min(1.0, (1.0 - 1e-9) * u / (u - xi))
        step = cap / (item.grid_points + 1)
        if not abs(argmax - root.proportion) <= step + 1e-15:
            problems.append(
                f"grid argmax {argmax!r} more than one step {step:.3e}"
                f" from root {root.proportion!r}"
            )
        if (sim.paths, sim.periods_per_path) != (item.paths, item.periods):
            problems.append("simulation ran a different number of draws")
        target = math.log(root.growth)
        if not abs(sim.mean_log_growth - target) <= MC_SE_BAND * sim.std_error:
            problems.append(
                f"simulated mean {sim.mean_log_growth!r} outside {MC_SE_BAND}*SE"
                f" of log growth {target!r}"
            )
        return problems

    def properties(self, items, outs) -> dict:
        return {
            "outcome_counts": _histogram(len(item.pairs) for item in items),
            "draws_total": sum(item.periods * item.paths for item in items),
            "grid_points_total": sum(item.grid_points for item in items),
        }


# --------------------------------------------------------------------------
# cli_cold

FIXTURES = {
    "two_point": ([(1.0, 0.5), (19.0, 0.5)], "two-point"),
    "three_point": ([(2.0, 0.25), (4.0, 0.25), (8.0, 0.5)], "three-point"),
}

CLI_PROBES = 5  # cold interpreter and import probes per traced run

# The child imports the package from the checkout's src and runs the console
# entry point. The command line stays valid once the package also gains a
# __main__ module.
CHILD_CODE = "from growthprice.cli import main; main()"


@dataclass(frozen=True)
class CliItem:
    command: str
    fixture: str
    options: tuple  # RunConfig keyword arguments besides command and game_path
    golden: str | None  # file under golden/, or None for verify

    @property
    def game_path(self) -> str:
        return f"{self.fixture}.json"

    def argv(self) -> list[str]:
        args = [self.command, "--game", self.game_path]
        for key, value in self.options:
            if key == "shifts":
                value = ",".join(format(v, "g") for v in value)
            flag = "--format" if key == "output_format" else f"--{key}"
            args += [flag, str(value)]
        return args

    def config(self):
        options = {k: list(v) if isinstance(v, tuple) else v for k, v in self.options}
        return gp_cli.RunConfig(
            command=self.command, game_path=self.game_path, **options
        )


def cli_cycle(seed: int) -> list[CliItem]:
    """The twelve ops of one cycle: each command on both fixtures."""
    items = []
    for command, options in (
        ("analyze", ()),
        ("price", (("rate", 0.05),)),
        ("translate", (("rate", 0.05), ("shift", 10.0))),
        ("threshold", (("rate", 0.05),)),
        ("sweep", (("rate", 0.05), ("shifts", (1.0, 10.0, 100.0, 1000.0)))),
        ("verify", (("seed", seed),)),
    ):
        for fixture in FIXTURES:
            opts = options
            if command == "sweep" and fixture == "three_point":
                opts = options + (("output_format", "csv"),)
            ext = "csv" if ("output_format", "csv") in opts else "json"
            golden = None if command == "verify" else f"{command}_{fixture}.{ext}"
            items.append(CliItem(command, fixture, opts, golden))
    return items


class CliCold:
    """One cold `growthprice <cmd>` process per op."""

    name = "cli_cold"
    child_processes = True
    cycle = 12
    warmup = 12
    nominal_ops_per_s = 5.0

    def __init__(self, workdir: Path, golden_dir: Path, src: Path) -> None:
        self.workdir = workdir
        self.golden_dir = golden_dir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.goldens: dict[str, bytes] = {}

    def write_specs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for fixture, (pairs, label) in FIXTURES.items():
            text = gp.save_spec(gp.Game.from_pairs(pairs, label=label))
            (self.workdir / f"{fixture}.json").write_text(text)

    def setup(self, seed: int, n_ops: int, smoke: bool) -> list[CliItem]:
        self.write_specs()
        cycle = cli_cycle(seed)
        self.goldens = {
            item.golden: (self.golden_dir / item.golden).read_bytes()
            for item in cycle
            if item.golden
        }
        return [cycle[i % len(cycle)] for i in range(n_ops)]

    def op(self, item: CliItem):
        """Returns (exit code, stdout, stderr, the child's peak RSS in KiB)."""
        with open(self.workdir / "child_stderr.txt", "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", CHILD_CODE, *item.argv()],
                cwd=self.workdir,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=err,
            )
            with proc.stdout:
                stdout = proc.stdout.read()
            # wait4 reaps the child and returns its own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return proc.returncode, stdout, err.read(), usage.ru_maxrss

    def traced_op(self, item: CliItem):
        """The same command through cli.run() in this process."""
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            code = gp_cli.run(item.config(), stdout=out, stderr=err)
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode(), err.getvalue().encode(), 0

    def peak_rss_kb(self, outs) -> int:
        """The largest child's peak RSS."""
        return max((out[3] for out in outs if out is not None), default=0)

    def layer_metrics(self, items, latencies, smoke: bool) -> dict[str, float]:
        """Median in-process run() time per command, and the cost of a cold
        interpreter and of the import, from child processes."""
        metrics = {}
        for command in sorted({item.command for item in items}):
            ms = [1e3 * t for item, t in zip(items, latencies) if item.command == command]
            metrics[f"cli.run_ms.{command}"] = statistics.median(ms)
        interp, imports, numpy_, click_ = [], [], [], []
        for _ in range(1 if smoke else CLI_PROBES):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True)
            interp.append(1e3 * (perf_counter() - t0))
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import growthprice.cli"],
                env=self.env,
                capture_output=True,
                text=True,
                check=True,
            )
            cumulative = parse_importtime(proc.stderr)
            # growthprice.cli is the top-level entry; the package, numpy and
            # click are nested inside it.
            imports.append(cumulative["growthprice.cli"])
            numpy_.append(cumulative.get("numpy", 0.0))
            click_.append(cumulative.get("click", 0.0))
        metrics["cli.interpreter_ms"] = statistics.median(interp)
        metrics["cli.import_ms"] = statistics.median(imports)
        metrics["cli.import.numpy_ms"] = statistics.median(numpy_)
        metrics["cli.import.click_ms"] = statistics.median(click_)
        return metrics

    def check(self, item: CliItem, out) -> list[str]:
        code, stdout, stderr, _ = out
        if code != 0:
            return [f"exit code {code}: {stderr.decode(errors='replace').strip()}"]
        if item.golden is None:
            if json.loads(stdout).get("all_passed") is not True:
                return ["verify reported a failed check"]
            return []
        if stdout != self.goldens[item.golden]:
            return [f"stdout differs from golden/{item.golden}"]
        return []

    def properties(self, items, outs) -> dict:
        return {
            "command_counts": dict(Counter(item.command for item in items)),
            "fixture_counts": dict(Counter(item.fixture for item in items)),
        }


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative ms per module from `-X importtime` output, taking each
    module's first entry at any depth."""
    cumulative = {}
    for line in text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
    return cumulative


def _histogram(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def make(name: str, workdir: Path, golden_dir: Path, src: Path):
    if name == "cli_cold":
        return CliCold(workdir, golden_dir, src)
    if name == "solve_narrow":
        return Solve(name, wide=False)
    if name == "solve_wide":
        return Solve(name, wide=True)
    if name == "oracle_mc":
        return OracleMC()
    raise KeyError(name)
