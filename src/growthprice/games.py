"""Discrete payoff games and their summary statistics.

A game is a finite list of (payout, weight) pairs: invest 1 dollar at some
price and receive `payout` gross dollars (stake included) with probability
`weight`. Games and their statistics are immutable after construction and
every operation here is a pure function, so values can be shared freely
across threads.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property
from itertools import islice, repeat
from operator import add, itemgetter, lt, mul, truediv
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, GameValidationError, SpecParseError

WEIGHT_SUM_TOL = 1e-12


class Outcome(NamedTuple):
    """One payoff point: gross dollars returned per dollar invested, and its mass."""

    payout: float
    weight: float


def _records(pairs: Iterable[tuple[float, float]]) -> tuple[Outcome, ...]:
    """Outcome records of (payout, weight) pairs, each made as tuple.__new__
    makes it, without Outcome's Python-level __new__, which costs about as
    much again as the tuple."""
    return tuple(map(tuple.__new__, repeat(Outcome), pairs))


class _GameFields(NamedTuple):
    outcomes: tuple[Outcome, ...]
    label: str | None = None


class Game(_GameFields):
    """A finite payoff distribution.

    Outcomes are canonicalized at construction: zero-weight entries are
    dropped, duplicate payouts are merged by summing weights, and the list is
    sorted by payout. Canonical form makes equality, hashing and all derived
    sums deterministic. Negative and NaN weights are never merged: each stays
    an entry of its own, so validation reports it instead of a hiding sum.
    Game takes (payout, weight) pairs, plain tuples or records, and builds
    each canonical record once, from a plain pair, by _records, as
    translate's direct path does: from_pairs, load_spec, game_from_nodes,
    TwoPointGame.to_game and translate's merging path hand it plain pairs.

    The instance dict keeps what is computed from the game on first use:
    the summary statistics, so a game is validated once however many
    solvers it passes through; and the outcomes as plain pairs, and as a
    column of payouts and a column of weights. The solver keeps what it
    computes from a game there too. None of them takes part in equality or
    hashing. The pairs and the columns stay lazy although construction has
    the pairs at hand: kept from birth, they raised the solve_narrow
    benchmark's peak RSS from 29.4 to 34.1 MB, as its repeated set-up holds
    two sets of games at once. A game that fails validation caches no
    statistics and raises again on every use. Concurrent use is safe: each
    value is deterministic and stored whole, so every thread sees the values
    a fresh game would give.

    A game that translate builds without merging payouts keeps statistics
    from birth and is never validated: it is valid by construction (see
    translate).
    """

    # No __slots__: the instance dict holds the cached statistics, the pairs,
    # the columns and what the solver keeps.

    def __new__(
        cls, outcomes: Iterable[tuple[float, float]], label: str | None = None
    ) -> "Game":
        merged: dict[float, float] = {}
        apart: list[tuple[float, float]] = []
        for a, w in outcomes:
            if w >= 0.0:
                merged[a] = merged.get(a, 0.0) + w
            else:
                apart.append((a, w))
        canon = [pair for pair in merged.items() if pair[1] != 0.0] + apart
        canon.sort(key=itemgetter(0))
        return super().__new__(cls, _records(canon), label)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Game":
        # _replace builds through _make, so it canonicalizes too
        return cls(*iterable)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[float, float]], label: str | None = None
    ) -> "Game":
        """Build a game from (payout, weight) pairs, each converted to two
        floats and handed to Game as a plain pair, so each record is built
        once, by _records."""
        return cls([(float(a), float(p)) for a, p in pairs], label)

    @cached_property
    def _stats(self) -> "GameStats":
        """Statistics of the game, after validation."""
        verdict = validate(self)
        if not verdict.ok:
            raise GameValidationError(verdict)
        return _summary(*self._columns)

    @cached_property
    def _pairs(self) -> tuple[tuple[float, float], ...]:
        """The outcomes as plain (payout, weight) tuples, which the solvers'
        loops run over: CPython unpacks an exact tuple faster than it reads
        the fields of a record, or unpacks one."""
        return tuple(map(tuple, self.outcomes))

    @cached_property
    def _columns(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The payouts and the weights, each as a tuple in outcome order,
        from which the statistics, the shifted payouts and the game's own
        numpy arrays, built by its first wide price solve, are made."""
        payouts, weights = zip(*self.outcomes)
        return payouts, weights


class ValidationResult(NamedTuple):
    """Verdict of checking a game against the standing assumptions."""

    ok: bool
    problems: tuple[str, ...]


def validate(game: Game) -> ValidationResult:
    """Check the standing assumptions and list every violation found.

    A valid game has finite nonnegative weights summing to 1 (within
    WEIGHT_SUM_TOL absolute), finite payouts no smaller than the smallest
    normal float, and at least two distinct payouts carrying positive
    weight. Below the normal floats a weight over a payout can overflow and
    rounding is no longer relative, so the solvers' error bounds fail: such
    payouts are refused here rather than deep inside a solve.
    """
    problems: list[str] = []
    for o in game.outcomes:
        if not (math.isfinite(o.weight) and o.weight >= 0.0):
            problems.append(
                f"weight {o.weight!r} for payout {o.payout!r} must be a"
                " nonnegative finite number"
            )
    total = math.fsum(o.weight for o in game.outcomes)
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        problems.append(
            f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}"
        )
    for o in game.outcomes:
        if not (math.isfinite(o.payout) and o.payout > 0.0):
            problems.append(f"payout {o.payout!r} must be finite and strictly positive")
        elif o.payout < sys.float_info.min:
            problems.append(
                f"payout {o.payout!r} is below the smallest normal float"
                f" {sys.float_info.min!r}"
            )
    distinct = {o.payout for o in game.outcomes if o.weight > 0.0}
    if len(distinct) < 2:
        problems.append(
            "profit is constant: fewer than two distinct payouts carry positive weight"
        )
    return ValidationResult(ok=not problems, problems=tuple(problems))


class GameStats(NamedTuple):
    """Summary quantities of a valid game.

    ess_inf is the smallest payout. h_xi, the expectation of
    1/(payout - ess_inf), and the lower price bound ess_inf + 1/h_xi are kept
    for the analyze report: a finite game has mass at its smallest payout,
    so they are always math.inf and ess_inf. For every valid game the chain
    ess_inf == lower_price_bound < fair_price < expectation holds.
    """

    expectation: float
    harmonic_integral: float
    ess_inf: float
    h_xi: float
    lower_price_bound: float
    fair_price: float
    log_moment: float

    @property
    def boundary_growth(self) -> float:
        """Growth at the fair price with full investment: the one regime
        boundary, below which exp(r) prices in the interior regime."""
        return self.harmonic_integral * math.exp(self.log_moment)


def _harmonic(payouts: Sequence[float], weights: Sequence[float]) -> float:
    """sum p/a, rounded once by math.fsum."""
    return math.fsum(map(truediv, weights, payouts))


def _log_moment(payouts: Sequence[float], weights: Sequence[float]) -> float:
    """sum p log a, with the C library's log per term, rounded once by
    math.fsum."""
    return math.fsum(map(mul, weights, map(math.log, payouts)))


def _summary(payouts: Sequence[float], weights: Sequence[float]) -> GameStats:
    """Statistics of the valid game with these payout and weight columns."""
    xi = payouts[0]
    harmonic = _harmonic(payouts, weights)
    return GameStats(
        expectation=math.fsum(map(mul, weights, payouts)),
        harmonic_integral=harmonic,
        ess_inf=xi,
        h_xi=math.inf,
        lower_price_bound=xi,
        fair_price=1.0 / harmonic,
        log_moment=_log_moment(payouts, weights),
    )


def compute_stats(game: Game) -> GameStats:
    """Summary statistics of a valid game, computed once per game and kept.

    Raises GameValidationError (carrying the verdict) for invalid games.
    """
    return game._stats


def translate(game: Game, n: float) -> Game:
    """Shift every payout by n, keeping weights and label.

    The shift must stay above minus the essential infimum so that shifted
    payouts remain strictly positive.

    The result equals Game((a + n, w) ...) for the outcomes (a, w) of
    game. Where the shifted payouts stay finite and strictly increasing
    it is built from them directly, with no merge, sort or validation, and
    keeps its statistics from _summary, the function Game._stats uses, and
    its own columns, from which its first wide price solve builds its arrays
    as any game's does. It is valid because game is: the weights are the
    same validated floats; the smallest shifted payout is tested against the
    smallest normal float, and the others exceed it; and strictly increasing
    payouts are already canonical and at least two distinct. Shifts that
    merge payouts, overflow or leave a payout below the normal floats build
    the game through Game and validate it on first use.
    """
    payouts = _shifted_payouts(game, n)
    column, weights = game._columns
    if payouts is None:
        return Game(zip(map(add, column, repeat(n)), weights), game.label)
    pairs = tuple(zip(payouts, weights))
    shifted = tuple.__new__(Game, (_records(pairs), game.label))
    columns, stats = (payouts, weights), _summary(payouts, weights)
    vars(shifted).update(_pairs=pairs, _columns=columns, _stats=stats)
    return shifted


def _shifted_payouts(game: Game, n: float) -> tuple[float, ...] | None:
    """The payouts of game shifted by n, in order, or None where rounding
    merges adjacent ones, the largest overflows or the smallest is below the
    normal floats.

    Raises as _require_shift does.
    """
    _require_shift(game, n)
    payouts = tuple(map(add, game._columns[0], repeat(n)))
    if _valid_ends(payouts[0], payouts[-1]) and all(
        map(lt, payouts, islice(payouts, 1, None))
    ):
        return payouts
    return None


def _valid_ends(smallest: float, largest: float) -> bool:
    """Whether a valid game may end at these payouts: normal, and finite."""
    return sys.float_info.min <= smallest and largest < math.inf


def _require_shift(game: Game, n: float) -> None:
    """Raise unless game is valid and n is finite and keeps every shifted
    payout positive."""
    xi = game._stats.ess_inf
    if not n > -xi:
        raise DomainError(f"shift n={n!r} must exceed -ess_inf = {-xi!r}")
    if not math.isfinite(n):
        raise DomainError(f"shift n={n!r} must be finite")


def game_from_nodes(
    payouts: Sequence[float],
    weights: Sequence[float],
    *,
    label: str | None = None,
) -> Game:
    """Build a game from quadrature-style nodes and unnormalized weights.

    Typical use: `payouts` are quadrature nodes for a continuous payoff
    density and `weights` are density values times quadrature weights. The
    weights are rescaled to unit total, then canonicalized like any other
    game.
    """
    if len(payouts) != len(weights):
        raise DomainError(
            f"payouts and weights must have equal length, got {len(payouts)}"
            f" and {len(weights)}"
        )
    ws = [float(w) for w in weights]
    for w in ws:
        if not (math.isfinite(w) and w >= 0.0):
            raise DomainError(f"node weight {w!r} must be a nonnegative finite number")
    total = math.fsum(ws)
    if not total > 0.0:
        raise DomainError(f"total node weight must be positive, got {total!r}")
    return Game([(float(a), w / total) for a, w in zip(payouts, ws)], label)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_spec(text: str, *, normalize: bool = False) -> Game:
    """Parse a JSON game document, canonicalize and validate it.

    Schema::

        {"label": optional string,
         "outcomes": [{"payout": number, "prob": number}, ...]}

    With normalize=True the probabilities are rescaled to unit total before
    the weight-sum check; by default the document must already be normalized.

    Raises SpecParseError (with position) for malformed documents and
    GameValidationError (with the verdict) for invalid games.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}"
            f" (char {exc.pos}): {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise SpecParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecParseError(
            f"top-level value must be an object, got {type(doc).__name__}"
        )
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise SpecParseError(f"label must be a string, got {label!r}")
    raw = doc.get("outcomes")
    if not isinstance(raw, list):
        raise SpecParseError('"outcomes" must be a list of {payout, prob} objects')
    pairs: list[tuple[float, float]] = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SpecParseError(f"outcomes[{i}] must be an object, got {entry!r}")
        pair = []
        for key in ("payout", "prob"):
            value = entry.get(key)
            if not _is_number(value):
                raise SpecParseError(f"outcomes[{i}].{key} must be a number, got {value!r}")
            try:
                pair.append(float(value))
            except OverflowError:
                raise SpecParseError(
                    f"outcomes[{i}].{key} is an integer too large for a float"
                ) from None
        pairs.append((pair[0], pair[1]))
    if normalize:
        total = math.fsum(p for _, p in pairs)
        if math.isfinite(total) and total > 0.0:
            pairs = [(a, p / total) for a, p in pairs]
    game = Game(pairs, label)
    compute_stats(game)  # validates, and keeps the stats for later calls
    return game


def save_spec(game: Game) -> str:
    """Serialize a game to the JSON document format accepted by load_spec.

    Loading the result reproduces the game exactly (floats round-trip).
    """
    doc: dict = {}
    if game.label is not None:
        doc["label"] = game.label
    doc["outcomes"] = [{"payout": o.payout, "prob": o.weight} for o in game.outcomes]
    return json.dumps(doc, indent=2)
