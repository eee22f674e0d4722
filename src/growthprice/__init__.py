"""Growth-optimal analysis and pricing of discrete payoff games."""

import importlib

from .errors import (
    DomainError,
    GameValidationError,
    GrowthPriceError,
    InternalConsistencyError,
    SpecParseError,
)
from .games import (
    Game,
    GameStats,
    Outcome,
    ValidationResult,
    compute_stats,
    game_from_nodes,
    load_spec,
    save_spec,
    translate,
    validate,
)

# Every other public name, by its home module. These modules are imported
# on first access (PEP 562), so a process that never touches, say, the
# oracles never compiles or loads them.
_LAZY = {
    **dict.fromkeys(
        (
            "PricingSolution",
            "ProportionSolution",
            "Regime",
            "growth_rate",
            "optimal_price",
            "optimal_proportion",
            "pre_optimal_proportion",
            "proportion_residual",
        ),
        "solver",
    ),
    **dict.fromkeys(
        (
            "Check",
            "SimulationResult",
            "TwoPointGame",
            "grid_argmax_growth",
            "simulate_wealth",
            "two_point_closed_form",
            "verify",
        ),
        "oracle",
    ),
    **dict.fromkeys(
        (
            "AsymptoticRow",
            "ThresholdResult",
            "ThresholdStatus",
            "TranslationReport",
            "asymptotic_sweep",
            "boundary_growth",
            "check_invariance",
            "price_translated",
            "threshold_shift",
        ),
        "translation",
    ),
}


def __getattr__(name: str):
    if name in _LAZY.values():
        # the module itself, which `import growthprice` once bound eagerly
        return importlib.import_module(f".{name}", __name__)
    try:
        home = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "AsymptoticRow",
    "Check",
    "DomainError",
    "Game",
    "GameStats",
    "GameValidationError",
    "GrowthPriceError",
    "InternalConsistencyError",
    "Outcome",
    "PricingSolution",
    "ProportionSolution",
    "Regime",
    "SimulationResult",
    "SpecParseError",
    "ThresholdResult",
    "ThresholdStatus",
    "TranslationReport",
    "TwoPointGame",
    "ValidationResult",
    "asymptotic_sweep",
    "boundary_growth",
    "check_invariance",
    "compute_stats",
    "game_from_nodes",
    "grid_argmax_growth",
    "growth_rate",
    "load_spec",
    "optimal_price",
    "optimal_proportion",
    "pre_optimal_proportion",
    "price_translated",
    "proportion_residual",
    "save_spec",
    "simulate_wealth",
    "threshold_shift",
    "translate",
    "two_point_closed_form",
    "validate",
    "verify",
]
