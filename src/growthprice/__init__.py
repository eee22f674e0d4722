"""Growth-optimal analysis and pricing of discrete payoff games."""

import importlib

__version__ = "0.1.0"

# Every public name, by its home module. The package imports none of them:
# a module is imported on first access to it or to one of its names (PEP
# 562), and the name is then kept here, so a process that never touches,
# say, the oracles never compiles or loads them.
_NAMES = {
    "errors": (
        "DomainError",
        "GameValidationError",
        "GrowthPriceError",
        "InternalConsistencyError",
        "SpecParseError",
    ),
    "games": (
        "Game",
        "GameStats",
        "Outcome",
        "ValidationResult",
        "compute_stats",
        "game_from_nodes",
        "load_spec",
        "save_spec",
        "translate",
        "validate",
    ),
    "solver": (
        "PricingSolution",
        "ProportionSolution",
        "Regime",
        "growth_rate",
        "optimal_price",
        "optimal_proportion",
        "pre_optimal_proportion",
        "proportion_residual",
    ),
    "oracle": (
        "Check",
        "SimulationResult",
        "TwoPointGame",
        "grid_argmax_growth",
        "simulate_wealth",
        "two_point_closed_form",
        "verify",
    ),
    "translation": (
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
}
_HOME = {name: home for home, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _NAMES:
        # importing a submodule binds it here, so this runs once per module
        return importlib.import_module(f".{name}", __name__)
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
