"""Mutation run: break the package on purpose, one mutant at a time, and
require the tests named for each mutant to fail.

    python tests/mutants.py             # every entry
    python tests/mutants.py NAME ...    # the named entries

For each entry the script copies src/, tests/ and pyproject.toml to a fresh
temporary directory, replaces the entry's old text in its file under
src/growthprice/ with its new text, and runs pytest on the entry's test ids
in that directory, where pyproject.toml's pythonpath puts the mutated src/
first (the control entry shows that it does). The old text must occur
exactly once, so a stale entry fails loudly, and so does a test id that no
longer exists: only pytest's exit code 1, tests that ran and failed, kills
a mutant. Hypothesis does not shrink there, since one failing example is
enough. A mutant that no test can kill yet stays in the table, failing the
run, until a test kills it.

Needs the test dependencies and nothing else: the script itself is stdlib
only. Exits 0 when every mutant is killed. Its name does not match
test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# pytest, under a hypothesis profile that keeps failing examples unshrunk and
# unsaved; explicit @settings in the tests inherit its phases. It is loaded
# once pytest has started, so that pytest can still rewrite hypothesis.
RUNNER = """\
import sys
import pytest


class NoShrink:
    @staticmethod
    def pytest_configure(config):
        from hypothesis import Phase, settings

        settings.register_profile(
            "mutants", phases=(Phase.explicit, Phase.generate), database=None
        )
        settings.load_profile("mutants")


sys.exit(pytest.main(sys.argv[1:], plugins=[NoShrink()]))
"""


class Mutant(NamedTuple):
    name: str
    file: str  # under src/growthprice/
    old: str
    new: str
    tests: tuple[str, ...]
    origin: str  # the change that motivated the entry


SOLVER_TESTS = "tests/test_solver.py"
KERNELS = f"{SOLVER_TESTS}::TestFirstOrderKernels"
REPLAY_FREE = f"{SOLVER_TESTS}::TestReplayFreeProportion"
KEPT_ARRAYS = f"{SOLVER_TESTS}::TestKeptArrays"
REFERENCE_ETA = (
    "tests/test_reference.py::test_every_price_certificate_is_within_eta_of_the_best_log_growth"
)
REFERENCE_BAND = (
    "tests/test_reference.py::test_every_price_certificate_clears_eta_in_the_best_log_growth"
)
REFERENCE_THRESHOLD_BAND = (
    "tests/test_reference.py::test_every_threshold_certificate_clears_eta_in_the_log_boundary"
)
JOINT_JACOBIAN = "tests/test_properties.py::test_joint_jacobian_identities_match_direct_sums"

MUTANTS = (
    Mutant(
        "control: the tests import the mutated copy",
        "solver.py",
        "    key = (type(r), r, type(tol), tol, type(max_iter), max_iter)\n",
        '    raise AssertionError("the mutated copy")\n',
        ("tests/test_call_counts.py::test_optimal_price_validates_at_most_once",),
        "the mutation run itself",
    ),
    Mutant(
        "a cold command imports inspect",
        "cli.py",
        "import argparse\n",
        "import argparse\nimport inspect\n",
        ("tests/test_cli.py::TestLazyImports::test_cold_command_loads_only_its_modules",),
        "ef3c7e6, records as NamedTuples",
    ),
    Mutant(
        "the price certificates' band is -1",
        "solver.py",
        "excess_growth, lo, hi, start, 3.0 * eta * target",
        "excess_growth, lo, hi, start, -1.0",
        ("tests/test_properties.py::test_certified_price_and_threshold_replay_plain_bisection",),
        "b2f761f, a game keeps its last price",
    ),
    Mutant(
        "the price memo publishes its key before its result",
        "solver.py",
        "    solution = _solve_price(game, r, tol, max_iter)\n",
        '    game.__dict__["_price"] = (key, None)\n'
        "    solution = _solve_price(game, r, tol, max_iter)\n",
        ("tests/test_call_counts.py::test_a_refused_call_keeps_the_last_price",),
        "b2f761f, a game keeps its last price",
    ),
    Mutant(
        "the grid cap at 1 - 1e-6",
        "oracle.py",
        "cap = min(1.0, (1.0 - 1e-9) * u / (u - stats.ess_inf))",
        "cap = min(1.0, (1.0 - 1e-6) * u / (u - stats.ess_inf))",
        ("tests/test_oracle.py::TestGridArgmax::test_grid_points_follow_the_cap_where_it_binds",),
        "313d645, oracle without numpy",
    ),
    Mutant(
        "the grid search cuts with no margin",
        "oracle.py",
        "        if v1 < v2 - 4.0 * eta:\n"
        "            lo, m1, v1 = m1 + 1, m2, v2\n"
        "            m2 = lo + hi - m1\n"
        "            v2 = value(m2) if m2 < n else -math.inf\n"
        "        elif v2 < v1 - 4.0 * eta:\n",
        "        if v1 < v2 - 0.0 * eta:\n"
        "            lo, m1, v1 = m1 + 1, m2, v2\n"
        "            m2 = lo + hi - m1\n"
        "            v2 = value(m2) if m2 < n else -math.inf\n"
        "        elif v2 < v1 - 0.0 * eta:\n",
        ("tests/test_oracle.py::TestGridArgmax::test_a_near_tie_cuts_nothing",),
        "313d645, oracle without numpy",
    ),
    Mutant(
        "the leftover pass stops one short",
        "oracle.py",
        "best = max(range(lo, min(hi, n - 1) + 1), key=value)",
        "best = max(range(lo, min(hi, n - 1)), key=value)",
        ("tests/test_oracle.py::TestGridArgmax::test_bit_identical_on_small_and_odd_grids",),
        "each search stops where its proof says",
    ),
    Mutant(
        "weights may sum to 1 +- 1e-6",
        "games.py",
        "WEIGHT_SUM_TOL = 1e-12",
        "WEIGHT_SUM_TOL = 1e-6",
        ("tests/test_games.py::TestValidate::test_weight_sum_tolerance_is_1e_12",),
        "cc79a57, the roadmap's hand run",
    ),
    Mutant(
        "no margin inside the pricing bracket",
        "solver.py",
        "_PRICE_MARGIN = 1e-12",
        "_PRICE_MARGIN = 0.0",
        (
            f"{SOLVER_TESTS}::TestOptimalPrice::test_fair_price_within_the_margins_of_the_expectation_is_refused",
        ),
        "cc79a57, the roadmap's hand run",
    ),
    Mutant(
        "a shift keeps payouts that rounding merged",
        "games.py",
        "all(\n        map(lt, payouts, islice(payouts, 1, None))\n    )",
        "True",
        ("tests/test_translation.py::TestBoundaryGrowthShifts::test_shift_merging_two_payouts_is_invalid",),
        "0c71e59, shifted games inherit their parent's validation",
    ),
    Mutant(
        "no margin below the proportion cap",
        "solver.py",
        "_CAP_MARGIN = 1e-13",
        "_CAP_MARGIN = 0.0",
        ("tests/test_call_counts.py::test_optimal_price_makes_at_most_80_first_order_evaluations",),
        "cc79a57, the roadmap's item 11",
    ),
    Mutant(
        "the proportion probes 1e-10 from its root",
        "solver.py",
        "_PROBE_GAP = 1e-14",
        "_PROBE_GAP = 1e-10",
        ("tests/test_call_counts.py::test_first_order_evaluations_at_the_default_max_iter",),
        "cc79a57, the roadmap's item 11",
    ),
    Mutant(
        "the two shift routes may differ by 1e-3",
        "translation.py",
        "TRANSLATION_CHECK_TOL = 1e-9",
        "TRANSLATION_CHECK_TOL = 1e-3",
        (f"{KERNELS}::test_wide_game_values_are_pinned",),
        "cc79a57, the roadmap's item 11",
    ),
    Mutant(
        "the price's eta is 0",
        "solver.py",
        "return eta if eta <= 1e-6 else math.inf",
        "return 0.0 if eta <= 1e-6 else math.inf",
        ("tests/test_call_counts.py::test_first_order_evaluations_at_the_default_max_iter",),
        "09b1d46, price and threshold certificates",
    ),
    Mutant(
        "the price certificates' band is 0",
        "solver.py",
        "excess_growth, lo, hi, start, 3.0 * eta * target",
        "excess_growth, lo, hi, start, 0.0 * eta * target",
        (
            "tests/test_call_counts.py::test_first_order_evaluations_at_the_default_max_iter",
            REFERENCE_BAND,
            f"{SOLVER_TESTS}::TestNewtonCertificates::test_a_price_probe_inside_the_band_certifies_nothing",
        ),
        "09b1d46, price and threshold certificates",
    ),
    Mutant(
        "the envelope slope drops the first-order sum",
        "solver.py",
        "    return -t / u * (1.0 + (1.0 - t) * g)\n",
        "    return -t / u * (1.0 + 0.0 * g)\n",
        (
            "tests/test_properties.py::test_envelope_slope_from_the_identity_matches_a_direct_sum",
            "tests/test_properties.py::test_envelope_slope_identity_holds_away_from_the_root",
            JOINT_JACOBIAN,
        ),
        "1b9ef19, one arithmetic on both kernels",
    ),
    Mutant(
        "a proportion solve builds a wide game's numpy kernel",
        "solver.py",
        "partial(_first_order_sum, game._pairs), stats.ess_inf, u, tol, max_iter",
        "_first_order_kernel(game), stats.ess_inf, u, tol, max_iter",
        (
            f"{KERNELS}::test_shifts_and_narrow_solves_leave_numpy_unimported[wide_proportion_64]",
        ),
        "only a price solve builds numpy state",
    ),
    Mutant(
        "the threshold's slope builds the arrays",
        "solver.py",
        "    mean = compute_stats(game).expectation\n"
        "    if (kept := _steering(game, game._columns[0][0])) is not None:\n",
        "    mean = compute_stats(game).expectation\n    _first_order_kernel(game)\n"
        "    if (kept := _steering(game, game._columns[0][0])) is not None:\n",
        ("tests/test_call_counts.py::test_a_wide_game_builds_its_arrays_once",),
        "only a price solve builds numpy state",
    ),
    Mutant(
        "the threshold doubles past the shift that merges every payout",
        "translation.py",
        "if outcomes[0][0] + hi == outcomes[-1][0] + hi:",
        "if False:",
        (
            "tests/test_translation.py::TestThresholdShift::test_doubling_to_a_shift_that_merges_every_payout_is_internal",
        ),
        "only a price solve builds numpy state",
    ),
    Mutant(
        "the price's eta is 0, seen in the growth at its certificates",
        "solver.py",
        "return eta if eta <= 1e-6 else math.inf",
        "return 0.0 if eta <= 1e-6 else math.inf",
        (REFERENCE_ETA,),
        "only returned values replay",
    ),
    Mutant(
        "the price bisection's own evaluations skip the replay too",
        "solver.py",
        "first_order_sum, xi, price, tol, max_iter, t, replay=not slope",
        "first_order_sum, xi, price, tol, max_iter, t, replay=False",
        (
            "tests/test_properties.py::test_certified_price_and_threshold_replay_plain_bisection",
            "tests/test_properties.py::test_the_joint_start_moves_no_bit",
        ),
        "only returned values replay",
    ),
    Mutant(
        "an unreplayed proportion needs no close certificates",
        "solver.py",
        "if not replay and neg - pos <= tol * pos:",
        "if not replay:",
        (f"{REPLAY_FREE}::test_wide_certificates_are_replayed",),
        "only returned values replay",
    ),
    Mutant(
        "an unreplayed proportion needs no residual within tol",
        "solver.py",
        "            if abs(res) <= tol:\n                return t, res, 0\n",
        "            if abs(res) <= math.inf:\n                return t, res, 0\n",
        (f"{REPLAY_FREE}::test_a_steep_residual_is_replayed",),
        "only returned values replay",
    ),
    Mutant(
        "the joint step's dg/du drops its factor 1 - t",
        "solver.py",
        "    g_u = -((1.0 - t * g) + (1.0 - t) * (g + t * g_t)) / u\n",
        "    g_u = -((1.0 - t * g) + (g + t * g_t)) / u\n",
        (JOINT_JACOBIAN,),
        "the price by Newton on the optimality system",
    ),
    Mutant(
        "the joint step's stop squares u, which overflows at large scales",
        "solver.py",
        "        if abs(du) <= math.sqrt(eta) * u:\n",
        "        if du * du <= eta * u * u:\n",
        ("tests/test_call_counts.py::test_the_joint_newton_steps_of_a_price",),
        "the price by Newton on the optimality system",
    ),
    Mutant(
        "the joint root is ignored as a start",
        "solver.py",
        "        start, t, gap = _joint_newton(first_order_sum, game, lo, hi, start, r, eta)\n",
        "        _joint_newton(first_order_sum, game, lo, hi, start, r, eta)\n"
        "        gap = math.nan\n",
        ("tests/test_call_counts.py::test_first_order_evaluations_at_the_default_max_iter",),
        "the price by Newton on the optimality system",
    ),
    Mutant(
        "the certificates probe the joint root at distance 0",
        "solver.py",
        "            return u, t, 4.0 * eta * u / t\n",
        "            return u, t, 0.0 * eta * u / t\n",
        ("tests/test_call_counts.py::test_first_order_evaluations_at_the_default_max_iter",),
        "wide solves certify from the joint root",
    ),
    Mutant(
        "the joint step is never halved",
        "solver.py",
        "_JOINT_HALVINGS = 5",
        "_JOINT_HALVINGS = 0",
        ("tests/test_call_counts.py::test_a_joint_step_that_leaves_the_proportions_is_halved",),
        "wide solves certify from the joint root",
    ),
    Mutant(
        "the arrays form w/(a + n) through 1/(a + n)",
        "solver.py",
        "    harmonic = math.fsum((weights / shifted).tolist())\n",
        "    harmonic = math.fsum((weights * (1.0 / shifted)).tolist())\n",
        (f"{KEPT_ARRAYS}::test_the_array_sums_equal_the_loops",),
        "wide solves certify from the joint root",
    ),
    Mutant(
        "the threshold's band is 0",
        "translation.py",
        "excess, 0.0, hi, start, 3.0 * eta * target, steer=steered",
        "excess, 0.0, hi, start, 0.0 * eta * target, steer=steered",
        (REFERENCE_THRESHOLD_BAND,),
        "the threshold's band grows with the outcomes only where payouts merge",
    ),
    Mutant(
        "a zero gap probes its point forever",
        "solver.py",
        "        while distance:\n",
        "        while True:\n",
        (f"{SOLVER_TESTS}::TestNewtonCertificates::test_a_zero_gap_probes_nothing",),
        "each search stops where its proof says",
    ),
    Mutant(
        "a side left uncertified is probed once",
        "solver.py",
        "            distance *= _PROBE_GROWTH\n",
        "            break\n",
        (
            "tests/test_call_counts.py::test_a_proportion_near_the_expectation_probes_outward",
            f"{SOLVER_TESTS}::TestNewtonCertificates::test_a_side_left_uncertified_is_probed_outward",
        ),
        "only returned values replay",
    ),
    Mutant(
        "probes certify with the steering values",
        "solver.py",
        "            res = f(probe, slope=True)[0]\n",
        "            res = (f(probe, slope=True) if certify else steer(probe))[0]\n",
        (f"{SOLVER_TESTS}::TestNewtonCertificates::test_a_steered_newton_certifies_with_f_alone",),
        "numpy steers, the exact kernels certify",
    ),
    Mutant(
        "the shifted arrays omit the shift",
        "solver.py",
        '            kept = game.__dict__["_vector"] = (a + n, w)\n',
        '            kept = game.__dict__["_vector"] = (a, w)\n',
        (
            f"{KEPT_ARRAYS}::test_a_shifted_game_keeps_its_parents_arrays_plus_the_shift",
            f"{KERNELS}::test_wide_games_steer_without_warnings_to_the_blocked_results",
        ),
        "numpy steers, the exact kernels certify",
    ),
    Mutant(
        "the full-investment residual is taken at t = 2",
        "solver.py",
        "    res = _first_order_sum(game._pairs, u, 1.0)\n",
        "    res = _first_order_sum(game._pairs, u, 2.0)\n",
        (
            f"{SOLVER_TESTS}::TestOptimalProportion::test_full_investment_residual_is_the_first_order_sum_at_one",
        ),
        "numpy steers, the exact kernels certify",
    ),
    Mutant(
        "a rate at the boundary growth leaves residual 1",
        "translation.py",
        "rate=r, n0=0.0, residual=0.0, regime_note=ThresholdStatus.FOUND",
        "rate=r, n0=0.0, residual=1.0, regime_note=ThresholdStatus.FOUND",
        (
            "tests/test_translation.py::TestThresholdShift::test_a_rate_whose_exp_is_the_boundary_growth_has_zero_residual",
        ),
        "numpy steers, the exact kernels certify",
    ),
    Mutant(
        "a shifted game builds its arrays from its own columns plus the shift",
        "solver.py",
        "or map(np.array, parent._columns)",
        "or map(np.array, game._columns)",
        (f"{KEPT_ARRAYS}::test_a_shifted_game_keeps_its_parents_arrays_plus_the_shift",),
        "one owner per rule on the wide-game path",
    ),
    Mutant(
        "the kept boundary growth tests the second-largest payout for overflow",
        "solver.py",
        "_valid_ends(column[0] + n, column[-1] + n)",
        "_valid_ends(column[0] + n, column[-2] + n)",
        (f"{KEPT_ARRAYS}::test_merging_and_overflowing_shifts_take_the_loop[top]",),
        "one owner per rule on the wide-game path",
    ),
    Mutant(
        "the steering gate reads the second-largest payout",
        "solver.py",
        "    if game._columns[0][-1] < 1e100 * scale:\n",
        "    if game._columns[0][-2] < 1e100 * scale:\n",
        (f"{KEPT_ARRAYS}::test_a_spread_that_overflows_is_inf_on_both[True]",),
        "one owner per rule on the wide-game path",
    ),
    Mutant(
        "Newton restarts from the sum of its bracket's ends",
        "solver.py",
        "            x = 0.5 * (below + above)\n",
        "            x = 1.0 * (below + above)\n",
        ("tests/test_call_counts.py::test_newton_falls_back_to_the_midpoint_of_its_bracket",),
        "one owner per rule on the wide-game path",
    ),
    Mutant(
        "the threshold starts without the tangent",
        "translation.py",
        "    if slope < 0.0:\n        start = max(",
        "    if False:\n        start = max(",
        (
            "tests/test_call_counts.py::test_a_threshold_near_the_boundary_starts_from_the_tangent",
        ),
        "one owner per rule on the wide-game path",
    ),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or why the entry could not be run."""
    with tempfile.TemporaryDirectory(prefix="growthprice-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(
                ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "growthprice" / mutant.file
        text = path.read_text()
        count = text.count(mutant.old)
        if count != 1:
            return f"stale: the old text occurs {count} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        argv = [sys.executable, "-c", RUNNER, "-x", "-q", "-p", "no:cacheprovider"]
        proc = subprocess.run(
            [*argv, *mutant.tests], cwd=copy, env=env, capture_output=True, text=True
        )
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:
        return "killed"
    tail = "\n".join(proc.stdout.splitlines()[-5:] + proc.stderr.splitlines()[-5:])
    return f"pytest exited {proc.returncode}:\n{tail}"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such entries: {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    start = time.perf_counter()
    for mutant in chosen:
        began = time.perf_counter()
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{time.perf_counter() - began:5.1f} s  {mutant.name}: {outcome}")
    print(
        f"{len(chosen) - failed} of {len(chosen)} mutants killed"
        f" in {time.perf_counter() - start:.1f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
