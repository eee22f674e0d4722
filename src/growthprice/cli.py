"""Command-line surface: ingest game specs, run analyses, emit reports.

Reports are JSON on stdout (RFC 4180 CSV for `sweep --format csv`), with
floats printed to 17 significant digits so identical inputs give
byte-identical output. Error messages go to stderr. Exit codes: 0 success,
1 validation or parse failure, 2 domain error, 3 internal-consistency
failure.

`main()` reads argv from the command table that `run()` reads too. The first
token names the command; each later token is `--flag value` or
`--flag=value`, and the token after a value-taking flag is always its value,
so `--shift -0.5` passes -0.5 on. `--normalize` takes no value. `--help`
prints the commands, or one command's options with their defaults, from the
same table. A usage error (no command or an unknown one, an unknown flag, a
missing or unconvertible value, a stray token) prints one `error:` line and
exits 2.
"""

from __future__ import annotations

import json
import math
import sys
from enum import Enum
from typing import NamedTuple, NoReturn

from . import __version__
from .errors import (
    DomainError,
    GameValidationError,
    InternalConsistencyError,
    SpecParseError,
)
from .games import Game, compute_stats, load_spec, translate
from .solver import DEFAULT_MAX_ITER, DEFAULT_TOL, optimal_price

# The translation and oracle modules are imported inside the handlers that
# use them, so a cold process loads only what its command runs.

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3

# Fixed CSV column order for sweep reports.
_SWEEP_COLUMNS = ("n", "gap", "boundary_growth", "price_ratio", "monotone_witness")


class RunConfig(NamedTuple):
    """One CLI invocation, echoed verbatim into every JSON report."""

    command: str
    game_path: str
    rate: float | None = None
    shift: float | None = None
    shifts: list[float] | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
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
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {_encode(v, level + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{close}}}"
    if hasattr(value, "_asdict"):  # a record; it is a tuple too, so test it first
        return _encode(value._asdict(), level)
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


# Report keys of the RunConfig fields whose names differ from them.
_CONFIG_KEYS = {"game_path": "game", "output_format": "format"}


def _config_dict(cfg: RunConfig) -> dict:
    """The config echo: every RunConfig field in field order."""
    return {_CONFIG_KEYS.get(k, k): v for k, v in cfg._asdict().items()}


def _cmd_analyze(cfg: RunConfig, game: Game) -> dict:
    return {"game_label": game.label, "stats": compute_stats(game)}


def _cmd_price(cfg: RunConfig, game: Game) -> dict:
    solution = optimal_price(game, cfg.rate, tol=cfg.tol, max_iter=cfg.max_iter)
    return {"pricing": solution}


def _cmd_translate(cfg: RunConfig, game: Game) -> dict:
    from .translation import check_invariance, price_translated

    pricing = price_translated(
        game, cfg.rate, cfg.shift, tol=cfg.tol, max_iter=cfg.max_iter
    )
    shifted_stats = compute_stats(translate(game, cfg.shift))
    # the game keeps its price, so this solves only where price_translated did not
    base = optimal_price(game, cfg.rate, tol=cfg.tol, max_iter=cfg.max_iter)
    invariance = note = None
    try:
        invariance = check_invariance(
            game, base.optimal_price, cfg.shift, tol=cfg.tol, max_iter=cfg.max_iter
        )
    except DomainError as exc:
        # The shift passed above, so only an inadmissible price lands here.
        note = (
            "invariance identities need a price inside the open admissible"
            f" interval; {exc}"
        )
    return {
        "pricing": pricing,
        "invariance": invariance,
        "invariance_note": note,
        "discounted_expectation": shifted_stats.expectation / math.exp(cfg.rate),
    }


def _cmd_threshold(cfg: RunConfig, game: Game) -> dict:
    from .translation import threshold_shift

    result = threshold_shift(game, cfg.rate, tol=cfg.tol, max_iter=cfg.max_iter)
    return {"threshold": result}


def _cmd_sweep(cfg: RunConfig, game: Game):
    from .translation import asymptotic_sweep

    rows = asymptotic_sweep(
        game, cfg.rate, cfg.shifts, tol=cfg.tol, max_iter=cfg.max_iter
    )
    if cfg.output_format == "csv":
        # header words and .17g floats need no quoting; CRLF ends each record
        lines = [_SWEEP_COLUMNS, *([format(v, ".17g") for v in row] for row in rows)]
        return "".join(",".join(line) + "\r\n" for line in lines)
    return {"rows": rows}


def _cmd_verify(cfg: RunConfig, game: Game) -> dict:
    from .oracle import verify

    seed = 0 if cfg.seed is None else cfg.seed
    checks = verify(game, seed=seed, tol=cfg.tol, max_iter=cfg.max_iter)
    return {"checks": checks, "all_passed": all(c.passed for c in checks)}


def run(config: RunConfig, *, stdout=None, stderr=None) -> int:
    """Execute one command, writing the report to stdout.

    A JSON report is the config followed by the handler's fields. Returns
    the process exit code instead of raising, so both the console script
    and tests can drive it directly.
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
    handler, _, options = _COMMANDS[config.command]
    for option in (*_COMMON_OPTIONS, *options):
        if option.required and getattr(config, option.name) is None:
            print(f"error: command {config.command!r} requires {option.flag}", file=err)
            return EXIT_DOMAIN
    try:
        with open(config.game_path, encoding="utf-8") as spec:  # RFC 8259
            text = spec.read()
    except OSError as exc:
        print(f"error: cannot read game spec {config.game_path!r}: {exc}", file=err)
        return EXIT_DOMAIN
    except UnicodeDecodeError as exc:
        print(f"error: game spec {config.game_path!r} is not UTF-8: {exc}", file=err)
        return EXIT_VALIDATION
    try:
        game = load_spec(text, normalize=config.normalize)
        body = handler(config, game)
    except (SpecParseError, GameValidationError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_VALIDATION
    except DomainError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_DOMAIN
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INTERNAL
    if isinstance(body, str):
        out.write(body)
        return EXIT_OK
    out.write(dumps_report({"config": _config_dict(config), **body}))
    if config.command == "verify" and not body["all_passed"]:
        print("error: one or more verification checks failed", file=err)
        return EXIT_INTERNAL
    return EXIT_OK


def _parse_shifts(value: str) -> list[float]:
    try:
        return [float(part) for part in value.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {value!r}") from None


class _Option(NamedTuple):
    """A command-line option and its RunConfig field; type None marks a flag.

    The help text may name a RunConfig default as %(field)s."""

    flag: str
    name: str
    type: object
    required: bool = False
    help: str = ""


_COMMON_OPTIONS = (
    _Option("--game", "game_path", str, required=True, help="JSON game spec file."),
    _Option(
        "--tol", "tol", float,
        help="Solver tolerance (residual and relative bracket width)"
        " [default: %(tol)s].",
    ),
    _Option(
        "--max-iter", "max_iter", int,
        help="Bisection iteration cap [default: %(max_iter)s].",
    ),
    _Option(
        "--format", "output_format", str,
        help="Report format, json or csv (csv applies to sweep only)"
        " [default: %(output_format)s].",
    ),
    _Option(
        "--normalize", "normalize", None,
        help="Rescale probabilities to unit total before validation.",
    ),
)
_RATE = _Option(
    "--rate", "rate", float, required=True, help="Riskless rate per period."
)
_SHIFT = _Option("--shift", "shift", float, required=True, help="Payout shift n.")

# Every command: its handler, its help text and the options it takes besides
# the common ones. Option names equal RunConfig field names, so run() enforces
# required=True on a RunConfig built by main() or by a library caller.
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
        (_RATE, _SHIFT),
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
            _Option(
                "--shifts", "shifts", _parse_shifts, required=True,
                help="Comma-separated increasing shifts, e.g. 1,2,4,8.",
            ),
        ),
    ),
    "verify": (
        _cmd_verify,
        "Run the oracle cross-checks and report pass/fail per property.",
        (_Option("--seed", "seed", int, help="Simulation seed (default 0)."),),
    ),
}


def _help(command: str | None = None) -> str:
    """The --help text, from the command table: every command, or one
    command's options with their help and RunConfig defaults."""
    if command is None:
        usage, text = "COMMAND [OPTIONS]", main.__doc__ or ""
        rows = [(name, entry[1]) for name, entry in _COMMANDS.items()]
        rows.append(("--version", "Show the version and exit."))
    else:
        usage, (_, text, extra) = f"{command} [OPTIONS]", _COMMANDS[command]
        rows = [
            (o.flag if o.type is None else f"{o.flag} VALUE",
             o.help % RunConfig._field_defaults)
            for o in (*_COMMON_OPTIONS, *extra)
        ]
    rows.append(("--help", "Show this message and exit."))
    width = max(len(left) for left, _ in rows)
    lines = "".join(f"\n  {left:<{width}}  {right}" for left, right in rows)
    return f"usage: growthprice {usage}\n\n{text}\n{lines}"


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(EXIT_DOMAIN)


def main(argv: list[str] | None = None) -> None:
    """Growth-optimal proportions and prices of discrete payoff games."""
    tokens = iter(sys.argv[1:] if argv is None else argv)
    command = next(tokens, None)
    if command in ("--help", "--version"):
        print(_help() if command == "--help" else f"growthprice, version {__version__}")
        sys.exit(EXIT_OK)
    if command not in _COMMANDS:
        got = "" if command is None else f", got {command!r}"
        _usage_error(f"expected a command ({', '.join(_COMMANDS)}){got}")
    options = {o.flag: o for o in (*_COMMON_OPTIONS, *_COMMANDS[command][2])}
    fields = {}
    # the token after a value-taking flag is its value, even -0.5 or --help
    for token in tokens:
        if token == "--help":
            print(_help(command))
            sys.exit(EXIT_OK)
        flag, eq, value = token.partition("=")
        option = options.get(flag)
        if option is None or (eq and option.type is None):
            _usage_error(f"unrecognized argument {token!r}")
        if not eq and option.type is not None:
            value = next(tokens, None)
        if value is None:
            _usage_error(f"{flag} expects a value")
        try:
            fields[option.name] = True if option.type is None else option.type(value)
        except ValueError as exc:
            _usage_error(f"{flag}: {exc}")
    sys.exit(run(RunConfig(command, fields.pop("game_path", None), **fields)))


if __name__ == "__main__":
    main()
