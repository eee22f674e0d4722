"""Command-line surface: ingest game specs, run analyses, emit reports.

Reports are JSON on stdout (RFC 4180 CSV for `sweep --format csv`), with
floats printed to 17 significant digits so identical inputs give
byte-identical output. Error messages go to stderr. Exit codes: 0 success,
1 validation or parse failure, 2 domain error, 3 internal-consistency
failure.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import click

from .errors import (
    DomainError,
    GameValidationError,
    InternalConsistencyError,
    SpecParseError,
)
from .games import Game, compute_stats, load_spec, translate
from .oracle import (
    TwoPointGame,
    grid_argmax_growth,
    simulate_wealth,
    two_point_closed_form,
)
from .solver import optimal_price, pre_optimal_proportion
from .translation import (
    asymptotic_sweep,
    check_invariance,
    price_translated,
    threshold_shift,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3

# Fixed CSV column order for sweep reports.
_SWEEP_COLUMNS = ("n", "gap", "boundary_growth", "price_ratio", "monotone_witness")


@dataclass
class RunConfig:
    """One CLI invocation, echoed verbatim into every JSON report."""

    command: str
    game_path: str
    rate: float | None = None
    shift: float | None = None
    shifts: list[float] | None = None
    tol: float = 1e-12
    max_iter: int = 200
    seed: int | None = None
    output_format: str = "json"
    normalize: bool = False


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def _encode(value, level: int) -> str:
    pad = "  " * (level + 1)
    close = "  " * level
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, Enum):
        return _encode(value.value, level)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _encode(dataclasses.asdict(value), level)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {_encode(v, level + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{close}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}{_encode(v, level + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{close}]"
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def dumps_report(value) -> str:
    """Serialize a report to JSON with floats at 17 significant digits.

    Nonfinite values appear as the strings "Infinity", "-Infinity" or "NaN"
    so the output stays valid JSON.
    """
    return _encode(value, 0) + "\n"


def _config_dict(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command,
        "game": cfg.game_path,
        "rate": cfg.rate,
        "shift": cfg.shift,
        "shifts": cfg.shifts,
        "tol": cfg.tol,
        "max_iter": cfg.max_iter,
        "seed": cfg.seed,
        "format": cfg.output_format,
        "normalize": cfg.normalize,
    }


def _require(cfg: RunConfig, field: str) -> None:
    if getattr(cfg, field) is None:
        raise DomainError(f"command {cfg.command!r} requires --{field.replace('_', '-')}")


def _cmd_analyze(cfg: RunConfig, game: Game) -> dict:
    stats = compute_stats(game)
    return {
        "config": _config_dict(cfg),
        "game_label": game.label,
        "stats": dataclasses.asdict(stats),
    }


def _cmd_price(cfg: RunConfig, game: Game) -> dict:
    _require(cfg, "rate")
    solution = optimal_price(game, cfg.rate, tol=cfg.tol, max_iter=cfg.max_iter)
    return {"config": _config_dict(cfg), "pricing": dataclasses.asdict(solution)}


def _cmd_translate(cfg: RunConfig, game: Game) -> dict:
    _require(cfg, "rate")
    _require(cfg, "shift")
    pricing = price_translated(
        game, cfg.rate, cfg.shift, tol=cfg.tol, max_iter=cfg.max_iter
    )
    shifted_stats = compute_stats(translate(game, cfg.shift))
    base = optimal_price(game, cfg.rate, tol=cfg.tol, max_iter=cfg.max_iter)
    stats = compute_stats(game)
    invariance = None
    note = None
    if stats.lower_price_bound < base.optimal_price < stats.expectation:
        invariance = check_invariance(
            game, base.optimal_price, cfg.shift, tol=cfg.tol, max_iter=cfg.max_iter
        )
    else:
        note = (
            "invariance identities need a price inside the open admissible"
            f" interval; the unshifted optimal price {base.optimal_price!r}"
            " lies outside it"
        )
    return {
        "config": _config_dict(cfg),
        "pricing": dataclasses.asdict(pricing),
        "invariance": dataclasses.asdict(invariance) if invariance else None,
        "invariance_note": note,
        "discounted_expectation": shifted_stats.expectation / math.exp(cfg.rate),
    }


def _cmd_threshold(cfg: RunConfig, game: Game) -> dict:
    _require(cfg, "rate")
    result = threshold_shift(game, cfg.rate, tol=cfg.tol, max_iter=cfg.max_iter)
    return {"config": _config_dict(cfg), "threshold": dataclasses.asdict(result)}


def _cmd_sweep(cfg: RunConfig, game: Game):
    _require(cfg, "rate")
    _require(cfg, "shifts")
    rows = asymptotic_sweep(
        game, cfg.rate, cfg.shifts, tol=cfg.tol, max_iter=cfg.max_iter
    )
    if cfg.output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow(
                format(v, ".17g")
                for v in (
                    row.shift,
                    row.gap,
                    row.boundary_growth,
                    row.price_ratio,
                    row.monotone_witness,
                )
            )
        return buffer.getvalue()
    return {
        "config": _config_dict(cfg),
        "rows": [dataclasses.asdict(r) for r in rows],
    }


def _verify_checks(cfg: RunConfig, game: Game) -> list[dict]:
    import numpy as np

    seed = cfg.seed if cfg.seed is not None else 0
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    # Solver against the two-point closed form on random games.
    worst_t = 0.0
    worst_g = 0.0
    for _ in range(200):
        low = 10.0 ** rng.uniform(-1.0, 1.0)
        high = low * (1.0 + 10.0 ** rng.uniform(-0.5, 1.5))
        tp = TwoPointGame(high=high, low=low, p_high=float(rng.uniform(0.05, 0.95)))
        u = low + float(rng.uniform(0.05, 0.95)) * (tp.expectation - low)
        solution = pre_optimal_proportion(
            tp.to_game(), u, tol=cfg.tol, max_iter=cfg.max_iter
        )
        t_cf, g_cf = two_point_closed_form(tp, u)
        worst_t = max(worst_t, abs(solution.proportion - t_cf) / t_cf)
        worst_g = max(worst_g, abs(solution.growth - g_cf) / g_cf)
    checks.append(
        {
            "name": "closed_form_agreement",
            "passed": worst_t <= 1e-9 and worst_g <= 1e-9,
            "detail": (
                f"max relative error over 200 games: proportion {worst_t:.3e},"
                f" growth {worst_g:.3e}"
            ),
        }
    )

    # Grid argmax against the solver root on the supplied game.
    stats = compute_stats(game)
    u_mid = 0.5 * (stats.fair_price + stats.expectation)
    grid_points = 100_000
    root = pre_optimal_proportion(game, u_mid, tol=cfg.tol, max_iter=cfg.max_iter)
    argmax = grid_argmax_growth(game, u_mid, grid_points)
    cap = min(1.0, (1.0 - 1e-9) * u_mid / (u_mid - stats.ess_inf))
    step = cap / (grid_points + 1)
    gap = abs(argmax - root.proportion)
    checks.append(
        {
            "name": "grid_argmax_within_one_step",
            "passed": gap <= step + 1e-15,
            "detail": f"argmax {argmax!r} vs root {root.proportion!r}, step {step:.3e}",
        }
    )

    # Monte Carlo mean against the analytic growth rate on the supplied game.
    sim = simulate_wealth(game, u_mid, root.proportion, periods=200, paths=100, seed=seed)
    target = math.log(root.growth)
    band = 3.0 * sim.std_error
    checks.append(
        {
            "name": "monte_carlo_consistency",
            "passed": abs(sim.mean_log_growth - target) <= band,
            "detail": (
                f"mean {sim.mean_log_growth!r} vs log growth {target!r},"
                f" 3*SE {band:.3e}"
            ),
        }
    )

    idle = simulate_wealth(game, u_mid, 0.0, periods=50, paths=10, seed=seed)
    checks.append(
        {
            "name": "zero_proportion_exact",
            "passed": idle.mean_log_growth == 0.0 and idle.std_error == 0.0,
            "detail": f"mean {idle.mean_log_growth!r}, std_error {idle.std_error!r}",
        }
    )
    return checks


def _cmd_verify(cfg: RunConfig, game: Game) -> dict:
    checks = _verify_checks(cfg, game)
    return {
        "config": _config_dict(cfg),
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def run(config: RunConfig, *, stdout=None, stderr=None) -> int:
    """Execute one command, writing the report to stdout.

    Returns the process exit code instead of raising, so both the console
    script and tests can drive it directly.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if config.command not in _COMMANDS:
        print(f"error: unknown command {config.command!r}", file=err)
        return EXIT_DOMAIN
    if config.output_format not in ("json", "csv"):
        print(f"error: unknown format {config.output_format!r}", file=err)
        return EXIT_DOMAIN
    if config.output_format == "csv" and config.command != "sweep":
        print("error: csv output is only available for the sweep command", file=err)
        return EXIT_DOMAIN
    try:
        text = Path(config.game_path).read_text()
    except OSError as exc:
        print(f"error: cannot read game spec {config.game_path!r}: {exc}", file=err)
        return EXIT_DOMAIN
    try:
        game = load_spec(text, normalize=config.normalize)
        handler, _, _ = _COMMANDS[config.command]
        report = handler(config, game)
    except (SpecParseError, GameValidationError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_VALIDATION
    except DomainError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_DOMAIN
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INTERNAL
    if isinstance(report, str):
        out.write(report)
        return EXIT_OK
    out.write(dumps_report(report))
    if config.command == "verify" and not report["all_passed"]:
        print("error: one or more verification checks failed", file=err)
        return EXIT_INTERNAL
    return EXIT_OK


def _parse_shifts(ctx, param, value):
    if value is None:
        return None
    try:
        return [float(part) for part in value.split(",") if part.strip() != ""]
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {value!r}")


_COMMON_OPTIONS = (
    click.Option(
        ["--game", "game_path"],
        required=True,
        type=click.Path(),
        help="Path to a JSON game spec.",
    ),
    click.Option(
        ["--tol"],
        type=float,
        default=1e-12,
        show_default=True,
        help="Solver tolerance (residual and relative bracket width).",
    ),
    click.Option(
        ["--max-iter", "max_iter"],
        type=int,
        default=200,
        show_default=True,
        help="Bisection iteration cap.",
    ),
    click.Option(
        ["--format", "output_format"],
        type=click.Choice(["json", "csv"]),
        default="json",
        show_default=True,
        help="Report format (csv applies to sweep only).",
    ),
    click.Option(
        ["--normalize"],
        is_flag=True,
        help="Rescale probabilities to unit total before validation.",
    ),
)
_RATE = click.Option(
    ["--rate"], type=float, required=True, help="Riskless rate per period."
)

# Every command: its handler, its help text and the click options it takes
# besides the common ones. Option names equal RunConfig field names.
_COMMANDS = {
    "analyze": (
        _cmd_analyze,
        "Validate a game spec and report its summary statistics.",
        (),
    ),
    "price": (
        _cmd_price,
        "Compute the optimal price of the game at the given rate.",
        (_RATE,),
    ),
    "translate": (
        _cmd_translate,
        "Price the shifted game and report the invariance identities.",
        (
            _RATE,
            click.Option(
                ["--shift"], type=float, required=True, help="Payout shift n."
            ),
        ),
    ),
    "threshold": (
        _cmd_threshold,
        "Find the shift at which pricing switches to full investment.",
        (_RATE,),
    ),
    "sweep": (
        _cmd_sweep,
        "Track large-shift behavior along a list of shifts.",
        (
            _RATE,
            click.Option(
                ["--shifts"],
                callback=_parse_shifts,
                required=True,
                help="Comma-separated increasing shifts, e.g. 1,2,4,8.",
            ),
        ),
    ),
    "verify": (
        _cmd_verify,
        "Run the oracle cross-checks and report pass/fail per property.",
        (
            click.Option(["--seed"], type=int, help="Simulation seed (default 0)."),
        ),
    ),
}


@click.group()
@click.version_option(version="0.1.0", prog_name="growthprice")
def main():
    """Growth-optimal proportions and prices of discrete payoff games."""


def _invoke(command: str, **kwargs) -> None:
    sys.exit(run(RunConfig(command=command, **kwargs)))


for _name, (_, _help, _extra) in _COMMANDS.items():
    main.add_command(
        click.Command(
            _name,
            callback=partial(_invoke, _name),
            params=[*_COMMON_OPTIONS, *_extra],
            help=_help,
        )
    )


if __name__ == "__main__":
    main()
