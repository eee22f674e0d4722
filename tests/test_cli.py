"""CLI surface: reports, formats, exit codes, determinism."""

import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import growthprice
import growthprice.cli
import growthprice.oracle
import growthprice.translation
from growthprice import Check, Game, save_spec, verify
from growthprice.cli import (
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    RunConfig,
    dumps_report,
    main,
    run,
)


@pytest.fixture
def spec_path(tmp_path, two_point):
    path = tmp_path / "two_point.json"
    path.write_text(save_spec(two_point))
    return str(path)


@pytest.fixture
def bad_spec_path(tmp_path):
    path = tmp_path / "constant.json"
    path.write_text('{"outcomes": [{"payout": 5.0, "prob": 1.0}]}')
    return str(path)


def run_config(cfg: RunConfig):
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_main(capsys, *argv: str):
    """main(argv) as the console script runs it: its exit code, stdout, stderr."""
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


class TestReports:
    def test_analyze_reports_stats_and_config(self, spec_path):
        code, out, _ = run_config(RunConfig(command="analyze", game_path=spec_path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["config"]["command"] == "analyze"
        assert report["stats"]["expectation"] == 10.0
        assert report["stats"]["h_xi"] == "Infinity"
        assert report["game_label"] == "two-point"

    def test_price_matches_fixture(self, spec_path):
        code, out, _ = run_config(
            RunConfig(command="price", game_path=spec_path, rate=0.05)
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["pricing"]["regime"] == "interior"
        assert abs(report["pricing"]["optimal_price"] - 7.2236410284) <= 1e-6
        assert report["config"]["rate"] == 0.05

    def test_threshold_matches_fixture(self, spec_path):
        code, out, _ = run_config(
            RunConfig(command="threshold", game_path=spec_path, rate=0.05)
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["threshold"]["regime_note"] == "found"
        assert abs(report["threshold"]["n0"] - 19.1749016712) <= 1e-6

    def test_translate_reports_invariance_and_discount(self, spec_path):
        code, out, _ = run_config(
            RunConfig(command="translate", game_path=spec_path, rate=0.05, shift=10.0)
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["pricing"]["regime"] == "interior"
        assert report["invariance"] is not None
        assert report["invariance"]["ratio_residual"] <= 1e-8
        assert math.isclose(
            report["discounted_expectation"], 20.0 / math.exp(0.05), rel_tol=1e-12
        )

    def test_translate_large_shift_shows_discounted_expectation(self, spec_path):
        code, out, _ = run_config(
            RunConfig(command="translate", game_path=spec_path, rate=0.05, shift=99.0)
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["pricing"]["regime"] == "full_investment"
        assert abs(report["pricing"]["optimal_price"] - 103.3299643512) <= 1e-6
        assert round(report["discounted_expectation"], 3) == 103.684

    @pytest.mark.parametrize(
        "rate, shift, price",
        (
            # the unshifted price lies below ess_inf = 1
            (2.0, 10.0, "price u=0.5899128231238489 "),
            # u + n rounds onto the shifted infimum, 1e17
            (0.05, 1e17, "price u=1e+17 "),
        ),
        ids=("base_below_ess_inf", "shifted_onto_ess_inf"),
    )
    def test_translate_notes_an_inadmissible_price(self, spec_path, rate, shift, price):
        code, out, err = run_config(
            RunConfig(command="translate", game_path=spec_path, rate=rate, shift=shift)
        )
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(out)
        assert report["invariance"] is None
        assert report["invariance_note"].startswith(
            "invariance identities need a price inside the open admissible"
            " interval; " + price + "outside the admissible interval"
        )

    def test_sweep_json_rows(self, spec_path):
        code, out, _ = run_config(
            RunConfig(
                command="sweep",
                game_path=spec_path,
                rate=0.05,
                shifts=[1.0, 2.0, 4.0],
            )
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert [row["shift"] for row in report["rows"]] == [1.0, 2.0, 4.0]

    def test_sweep_refuses_an_empty_shift_list(self, spec_path):
        # run() checks required options with `is None`, so [] reaches the
        # library, which refuses it
        code, out, err = run_config(
            RunConfig(command="sweep", game_path=spec_path, rate=0.05, shifts=[])
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == "error: shifts must list at least one shift\n"

    def test_verify_passes_and_lists_checks(self, spec_path):
        code, out, _ = run_config(
            RunConfig(command="verify", game_path=spec_path, seed=7)
        )
        assert code == EXIT_OK
        report = json.loads(out)
        names = [check["name"] for check in report["checks"]]
        assert names == [
            "closed_form_agreement",
            "grid_argmax_within_one_step",
            "monte_carlo_consistency",
            "zero_proportion_exact",
        ]
        assert report["all_passed"] is True
        assert all(check["passed"] for check in report["checks"])

    @pytest.mark.parametrize("seed", [0, 7])
    def test_verify_reports_the_library_checks(self, spec_path, two_point, seed):
        code, out, _ = run_config(
            RunConfig(command="verify", game_path=spec_path, seed=seed)
        )
        assert code == EXIT_OK
        cli_checks = json.loads(out)["checks"]
        assert dumps_report(cli_checks) == dumps_report(verify(two_point, seed=seed))


class TestDumpsReport:
    def test_nan_and_empty_containers(self):
        report = {"value": math.nan, "map": {}, "list": [], "row": [math.nan]}
        assert dumps_report(report) == (
            '{\n  "value": "NaN",\n  "map": {},\n  "list": [],\n'
            '  "row": [\n    "NaN"\n  ]\n}\n'
        )

    def test_an_unserializable_object_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot serialize object in a report"):
            dumps_report({"value": object()})


class TestPayoutScales:
    @pytest.mark.parametrize("c", [1e-200, 1e-18, 1e6, 1e200])
    def test_threshold_and_translate_scale_with_the_payouts(self, tmp_path, c):
        def solve(scale):
            path = tmp_path / f"scaled_{scale:g}.json"
            path.write_text(save_spec(Game.from_pairs([(scale, 0.5), (19.0 * scale, 0.5)])))
            reports = []
            for command, shift in (("threshold", None), ("translate", 5.0 * scale)):
                cfg = RunConfig(command, str(path), rate=0.05, shift=shift)
                code, out, err = run_config(cfg)
                assert code == EXIT_OK, err
                reports.append(json.loads(out))
            return reports[0]["threshold"]["n0"], reports[1]["pricing"]["optimal_price"]

        for value, unscaled in zip(solve(c), solve(1.0)):
            assert math.isclose(value / c, unscaled, rel_tol=1e-9)


class TestCsvOutput:
    def test_sweep_csv_is_rfc4180(self, spec_path):
        cfg = RunConfig(
            command="sweep",
            game_path=spec_path,
            rate=0.05,
            shifts=[1.0, 2.0, 4.0, 8.0],
            output_format="csv",
        )
        code, out, _ = run_config(cfg)
        assert code == EXIT_OK
        assert "\r\n" in out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "gap", "boundary_growth", "price_ratio", "monotone_witness"]
        assert len(rows) == 5
        for row in rows[1:]:
            for cell in row:
                float(cell)

    def test_csv_rejected_outside_sweep(self, spec_path):
        cfg = RunConfig(command="price", game_path=spec_path, rate=0.05, output_format="csv")
        code, _, err = run_config(cfg)
        assert code == EXIT_DOMAIN
        assert "sweep" in err


class TestExitCodes:
    def test_unknown_command_is_exit_2(self, spec_path):
        code, out, err = run_config(RunConfig(command="nope", game_path=spec_path))
        assert (code, out, err) == (EXIT_DOMAIN, "", "error: unknown command 'nope'\n")

    def test_validation_failure_is_exit_1(self, bad_spec_path):
        code, out, err = run_config(RunConfig(command="analyze", game_path=bad_spec_path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "constant" in err

    def test_parse_failure_is_exit_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"outcomes": [')
        code, _, err = run_config(RunConfig(command="analyze", game_path=str(path)))
        assert code == EXIT_VALIDATION
        assert "line" in err

    def test_spec_that_is_not_utf8_is_exit_1(self, tmp_path):
        # a UTF-16 byte order mark, then UTF-16 text
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"outcomes": []}'.encode("utf-16-le"))
        code, out, err = run_config(RunConfig(command="analyze", game_path=str(path)))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith(f"error: game spec {str(path)!r} is not UTF-8: ")

    @pytest.mark.parametrize(
        "outcomes, message",
        (
            (
                '{"payout": 1.0, "prob": 0.7}, {"payout": 1.0, "prob": -0.2},'
                ' {"payout": 2.0, "prob": 0.5}',
                "error: weight -0.2 for payout 1.0 must be a nonnegative finite number",
            ),
            (
                '{"payout": 1, "prob": 0.5}, {"payout": 1%s, "prob": 0.5}' % ("0" * 400),
                "error: outcomes[1].payout is an integer too large for a float",
            ),
        ),
        ids=("cancelled_negative_prob", "huge_integer"),
    )
    def test_bad_spec_numbers_are_exit_1(self, tmp_path, outcomes, message):
        path = tmp_path / "bad.json"
        path.write_text('{"outcomes": [%s]}' % outcomes)
        code, out, err = run_config(RunConfig(command="analyze", game_path=str(path)))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith(message)

    @pytest.mark.parametrize("command", ("analyze", "price", "threshold"))
    @pytest.mark.parametrize(
        "pairs",
        (
            # threshold raised OverflowError from the harmonic sum and price
            # ZeroDivisionError, each a traceback
            ((5e-324, 0.8), (1e-323, 0.2)),
            # an expectation of 0.0: threshold said "for shifts up to 0.0",
            # exit 3
            tuple(
                (k * 5e-324, w)
                for k, w in enumerate((0.5, 0.25, 1 / 6 - 4e-13, 1 / 12 - 4e-13), 1)
            ),
        ),
        ids=("two_subnormal", "underflowing_expectation"),
    )
    def test_subnormal_payouts_are_exit_1(self, tmp_path, pairs, command):
        path = tmp_path / "subnormal.json"
        path.write_text(save_spec(Game.from_pairs(pairs)))
        code, out, err = run_config(
            RunConfig(command=command, game_path=str(path), rate=0.05)
        )
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith(f"error: payout {pairs[0][0]!r} is below the smallest")
        for a, _ in pairs:
            assert f"payout {a!r} is below the smallest normal float" in err

    def test_domain_failure_is_exit_2(self, spec_path):
        code, _, err = run_config(
            RunConfig(command="price", game_path=spec_path, rate=-0.5)
        )
        assert code == EXIT_DOMAIN
        assert "-0.5" in err

    def test_pricing_bracket_inside_the_margins_is_exit_2(self, tmp_path):
        path = tmp_path / "narrow.json"
        path.write_text(
            save_spec(Game.from_pairs([(7.0119e-19, 1e-9), (7.1073e-19, 1 - 1e-9)]))
        )
        code, out, err = run_config(
            RunConfig(command="price", game_path=str(path), rate=5e-14)
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "no pricing bracket" in err

    @pytest.mark.parametrize(
        "argv",
        (
            ["price"],
            ["threshold"],
            ["translate", "--shift", "1"],
            ["sweep", "--shifts", "1,2"],
        ),
    )
    def test_overflowing_rate_is_exit_2(self, capsys, spec_path, argv):
        # exp(1000) overflows; the solvers refuse it instead of crashing
        code, out, err = run_main(capsys, *argv, "--game", spec_path, "--rate", "1000")
        assert (code, out) == (EXIT_DOMAIN, ""), err
        assert err.startswith("error: rate r=1000.0")

    @pytest.mark.parametrize(
        "argv",
        (
            ["translate", "--shift", "inf"],
            ["translate", "--shift", "1e400"],
            ["sweep", "--shifts", "1,inf"],
        ),
    )
    def test_infinite_shift_is_exit_2(self, capsys, spec_path, argv):
        # it used to be blamed on the game, as an infinite payout (exit 1)
        code, out, err = run_main(capsys, *argv, "--game", spec_path, "--rate", "0.05")
        assert (code, out) == (EXIT_DOMAIN, ""), err
        assert err == "error: shift n=inf must be finite\n"

    @pytest.mark.parametrize(
        "argv, message",
        (
            (["price", "--rate", "0.05", "--max-iter", "0"], "max_iter=0"),
            (["price", "--rate", "0.05", "--max-iter", "-3"], "max_iter=-3"),
            (["price", "--rate", "0.05", "--tol", "inf"], "tol=inf"),
            (["price", "--rate", "0.05", "--tol", "nan"], "tol=nan"),
            (["price", "--rate", "0.05", "--tol", "-1e-12"], "tol=-1e-12"),
            (["threshold", "--rate", "0.05", "--max-iter", "0"], "max_iter=0"),
            # both games price at full investment, so no root is solved
            (["translate", "--rate", "1", "--shift", "1", "--max-iter", "0"], "max_iter=0"),
            (["sweep", "--rate", "0.05", "--shifts", "1,2", "--tol", "inf"], "tol=inf"),
            (["verify", "--max-iter", "0"], "max_iter=0"),
        ),
        ids=(
            "price_max_iter_0",
            "price_max_iter_negative",
            "price_tol_inf",
            "price_tol_nan",
            "price_tol_negative",
            "threshold",
            "translate_full_investment",
            "sweep",
            "verify",
        ),
    )
    def test_unhonourable_solver_arguments_are_exit_2(
        self, capsys, spec_path, argv, message
    ):
        code, out, err = run_main(capsys, *argv, "--game", spec_path)
        assert (code, out) == (EXIT_DOMAIN, ""), err
        assert err.startswith(f"error: {message} must ")

    @pytest.mark.parametrize("rate", ("250", "270", "290"))
    def test_underflowing_full_investment_price_is_exit_2(self, capsys, tmp_path, rate):
        path = tmp_path / "tiny.json"
        path.write_text(save_spec(Game.from_pairs([(1e-200, 0.5), (19e-200, 0.5)])))
        code, out, err = run_main(capsys, "price", "--game", str(path), "--rate", rate)
        assert (code, out) == (EXIT_DOMAIN, ""), err
        assert "underflows the smallest normal float" in err

    def test_seed_of_2_to_the_64_is_exit_2(self, capsys, spec_path):
        # the simulations reduced it modulo 2**64, to seed 0
        argv = ["verify", "--game", spec_path, "--seed", str(2**64)]
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (EXIT_DOMAIN, ""), err
        assert err == f"error: seed={2**64} must be below 2**64\n"

    def test_missing_required_field_is_exit_2(self, spec_path):
        code, _, err = run_config(RunConfig(command="price", game_path=spec_path))
        assert code == EXIT_DOMAIN
        assert "--rate" in err

    def test_unreadable_file_is_exit_2(self, tmp_path):
        code, _, err = run_config(
            RunConfig(command="analyze", game_path=str(tmp_path / "missing.json"))
        )
        assert code == EXIT_DOMAIN
        assert "cannot read" in err

    def test_internal_consistency_is_exit_3(self, spec_path, monkeypatch):
        monkeypatch.setattr(growthprice.translation, "TRANSLATION_CHECK_TOL", -1.0)
        code, _, err = run_config(
            RunConfig(command="translate", game_path=spec_path, rate=0.05, shift=1.0)
        )
        assert code == EXIT_INTERNAL
        assert "disagrees" in err
        assert "stopped before tolerance" not in err

    def test_threshold_doubling_to_a_merging_shift_is_exit_3(self, capsys, tmp_path):
        # a valid game whose weights exceed 1 by 9e-13: the fault lies in the
        # evaluated boundary growth, not in the game, so the exit is not 1
        path = tmp_path / "excess.json"
        path.write_text(
            save_spec(Game.from_pairs([(1.0, 0.5), (19.0, 0.5000000000009)]))
        )
        argv = ["threshold", "--game", str(path), "--rate", "1e-11"]
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (EXIT_INTERNAL, ""), err
        assert "weights sum to 1.0000000000009" in err

    def test_failed_verification_is_exit_3(self, spec_path, monkeypatch):
        failing = [Check("always_fails", False, "patched")]
        # the verify handler looks verify up in the oracle module when it runs
        monkeypatch.setattr(growthprice.oracle, "verify", lambda game, **kw: failing)
        code, out, err = run_config(RunConfig(command="verify", game_path=spec_path))
        assert code == EXIT_INTERNAL
        assert json.loads(out)["all_passed"] is False
        assert "one or more verification checks failed" in err


class TestDeterminism:
    def test_identical_config_gives_identical_bytes(self, spec_path):
        cfg = RunConfig(command="price", game_path=spec_path, rate=0.05)
        _, first, _ = run_config(cfg)
        _, second, _ = run_config(cfg)
        assert first == second

    def test_verify_deterministic_given_seed(self, spec_path):
        cfg = RunConfig(command="verify", game_path=spec_path, seed=3)
        _, first, _ = run_config(cfg)
        _, second, _ = run_config(cfg)
        assert first == second

    def test_floats_carry_17_significant_digits(self, spec_path):
        _, out, _ = run_config(RunConfig(command="price", game_path=spec_path, rate=0.05))
        assert "0.050000000000000003" in out


# The fixture files and commands whose stdout bench/golden/ holds, written
# and run as the CI step for the installed entry point does.
_GOLDEN_FIXTURES = {
    "two_point.json": '{"label": "two-point", "outcomes": [{"payout": 1.0,'
    ' "prob": 0.5}, {"payout": 19.0, "prob": 0.5}]}',
    "three_point.json": '{"label": "three-point", "outcomes": [{"payout": 2.0,'
    ' "prob": 0.25}, {"payout": 4.0, "prob": 0.25}, {"payout": 8.0, "prob": 0.5}]}',
}
_GOLDEN_SHIFTS = [1.0, 10.0, 100.0, 1000.0]
_GOLDEN = [
    *(
        (f"{command}_{fixture}.json", command, f"{fixture}.json", extra)
        for fixture in ("two_point", "three_point")
        for command, extra in (
            ("analyze", {}),
            ("price", {"rate": 0.05}),
            ("translate", {"rate": 0.05, "shift": 10.0}),
            ("threshold", {"rate": 0.05}),
        )
    ),
    (
        "sweep_two_point.json",
        "sweep",
        "two_point.json",
        {"rate": 0.05, "shifts": _GOLDEN_SHIFTS},
    ),
    (
        "sweep_three_point.csv",
        "sweep",
        "three_point.json",
        {"rate": 0.05, "shifts": _GOLDEN_SHIFTS, "output_format": "csv"},
    ),
]


@pytest.mark.parametrize(
    "golden, command, game_path, extra", _GOLDEN, ids=[case[0] for case in _GOLDEN]
)
def test_commands_print_the_golden_bytes(
    tmp_path, monkeypatch, golden, command, game_path, extra
):
    # the bytes bench/golden/ holds, as the benchmark and CI compare them;
    # each report echoes the game path, so it is given relative to its folder
    golden_dir = Path(__file__).resolve().parents[1] / "bench" / "golden"
    expected = (golden_dir / golden).read_bytes()
    for name, text in _GOLDEN_FIXTURES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO(newline="")
    code = run(RunConfig(command=command, game_path=game_path, **extra), stdout=out)
    assert code == EXIT_OK
    assert out.getvalue().encode() == expected


# Per command: the argv after --game and the RunConfig fields it must set.
_ARGV = {
    "analyze": (["--normalize"], {"normalize": True}),
    "price": (["--rate", "0.05", "--tol", "1e-10"], {"rate": 0.05, "tol": 1e-10}),
    "translate": (
        ["--rate", "0.05", "--shift", "10", "--max-iter", "150"],
        {"rate": 0.05, "shift": 10.0, "max_iter": 150},
    ),
    "threshold": (["--rate", "0.7"], {"rate": 0.7}),
    "sweep": (
        ["--rate", "0.05", "--shifts", "1,2,4", "--format", "csv"],
        {"rate": 0.05, "shifts": [1.0, 2.0, 4.0], "output_format": "csv"},
    ),
    "verify": (["--seed", "3"], {"seed": 3}),
}


class TestArgv:
    def test_every_command_is_registered(self, capsys):
        assert set(growthprice.cli._COMMANDS) == set(_ARGV)
        for command, (_, help_text, _) in growthprice.cli._COMMANDS.items():
            code, out, _ = run_main(capsys, command, "--help")
            assert code == EXIT_OK
            assert help_text in out

    @pytest.mark.parametrize("command", sorted(_ARGV))
    def test_argv_gives_the_run_bytes(self, capsys, spec_path, command):
        argv, fields = _ARGV[command]
        result = run_main(capsys, command, "--game", spec_path, *argv)
        cfg = RunConfig(command=command, game_path=spec_path, **fields)
        assert result == run_config(cfg)
        assert result[0] == EXIT_OK

    # A token such as -1e-12, -inf or -0.5,1 after a value-taking flag is
    # that flag's value, never an option; main() passes it to the library.
    # Each case expects the RunConfig fields it sets or the library's error.
    @pytest.mark.parametrize(
        "argv, expected",
        (
            (
                ["translate", "--rate", "0.05", "--shift", "-inf"],
                "shift n=-inf must exceed -ess_inf = -1.0",
            ),
            (
                ["translate", "--rate", "0.05", "--shift", "-0.5"],
                {"rate": 0.05, "shift": -0.5},
            ),
            (
                ["translate", "--rate=0.05", "--shift=-0.5"],
                {"rate": 0.05, "shift": -0.5},
            ),
            (
                ["sweep", "--rate", "0.05", "--shifts", "-0.5,1"],
                {"rate": 0.05, "shifts": [-0.5, 1.0]},
            ),
            (
                ["price", "--rate", "0.05", "--tol", "-1e-12"],
                "tol=-1e-12 must satisfy 0 <= tol < inf",
            ),
            (
                ["price", "--rate", "-1"],
                "rate r=-1.0 must be positive and small enough that 1 < exp(r) < inf;"
                " exp(r) = 0.36787944117144233",
            ),
            (
                ["price", "--rate", "0.05", "--max-iter", "-3"],
                "max_iter=-3 must be at least 1",
            ),
            (["verify", "--seed", "-1"], "seed=-1 must be nonnegative"),
        ),
        ids=(
            "shift_minus_inf",
            "shift_negative",
            "shift_negative_after_equals",
            "shifts_negative",
            "tol_negative",
            "rate_negative",
            "max_iter_negative",
            "seed_negative",
        ),
    )
    def test_values_that_start_with_a_dash(self, capsys, spec_path, argv, expected):
        result = run_main(capsys, *argv, "--game", spec_path)
        if isinstance(expected, str):
            assert result == (EXIT_DOMAIN, "", f"error: {expected}\n")
        else:
            assert result == run_config(RunConfig(argv[0], spec_path, **expected))
            assert result[0] == EXIT_OK

    @pytest.mark.parametrize(
        "argv",
        (
            [],
            ["nope", "--game", "{spec}"],
            ["price", "--game", "{spec}"],
            ["price", "--game", "{spec}", "--rate", "0.05", "--format", "xml"],
            ["sweep", "--game", "{spec}", "--rate", "0.05", "--shifts", "1,x"],
            ["sweep", "--game", "{spec}", "--rate", "0.05", "--shifts", ","],
            ["price", "--game", "{spec}", "--rate", "0.05", "--max", "5"],
            ["--game", "{spec}", "price", "--rate", "0.05"],
            ["price", "--game", "{spec}", "--rate"],
            ["price", "--game", "{spec}", "--rate", "0.05", "stray"],
            ["analyze", "--game", "{spec}", "--normalize=yes"],
            ["price", "--game", "{spec}", "--rate", "0.05", "--max-iter", "1.5"],
            ["price", "--game", "{spec}", "--rate", "0.05", "--version"],
        ),
        ids=(
            "no_command",
            "unknown_command",
            "missing_rate",
            "unknown_format",
            "shift_not_a_number",
            "no_shift",
            "abbreviated_option",
            "game_before_the_command",
            "flag_without_a_value",
            "stray_token",
            "normalize_with_a_value",
            "max_iter_not_an_integer",
            "version_after_the_command",
        ),
    )
    def test_usage_error_is_exit_2(self, capsys, spec_path, argv):
        argv = [spec_path if arg == "{spec}" else arg for arg in argv]
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (EXIT_DOMAIN, "")
        # one error line, however the usage went wrong
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command", sorted(_ARGV))
    def test_flag_equals_value_gives_the_same_bytes(self, capsys, spec_path, command):
        argv, _ = _ARGV[command]
        joined, tokens = [], iter(argv)
        for token in tokens:
            joined.append(token if token == "--normalize" else f"{token}={next(tokens)}")
        expected = run_main(capsys, command, "--game", spec_path, *argv)
        assert run_main(capsys, command, f"--game={spec_path}", *joined) == expected
        assert expected[0] == EXIT_OK

    def test_help_names_every_command(self, capsys):
        code, out, err = run_main(capsys, "--help")
        assert (code, err) == (EXIT_OK, "")
        for command, (_, help_text, _) in growthprice.cli._COMMANDS.items():
            assert re.search(rf"^  {command} +{re.escape(help_text)}$", out, re.M)
        assert "--version" in out

    @pytest.mark.parametrize("command", sorted(_ARGV))
    def test_command_help_names_its_flags_and_defaults(self, capsys, command):
        _, _, extra = growthprice.cli._COMMANDS[command]
        code, out, err = run_main(capsys, command, "--help")
        assert (code, err) == (EXIT_OK, "")
        for option in (*growthprice.cli._COMMON_OPTIONS, *extra):
            assert re.search(rf"^  {option.flag}\b", out, re.M), option.flag
        assert "--tol VALUE" in out and "[default: 1e-12]" in out
        assert "--max-iter VALUE" in out and "[default: 200]" in out

    def test_help_after_a_value_taking_flag_is_its_value(self, capsys):
        code, out, err = run_main(capsys, "analyze", "--game", "--help")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("error: cannot read game spec '--help'")

    @pytest.mark.parametrize("shifts", (",", "", " , "))
    def test_empty_shift_list_is_the_library_error(self, capsys, spec_path, shifts):
        argv = ["sweep", "--game", spec_path, "--rate", "0.05", "--shifts", shifts]
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: shifts must list at least one shift\n"

    def test_version_is_the_package_and_project_version(self, capsys):
        code, out, _ = run_main(capsys, "--version")
        assert code == EXIT_OK
        assert out == f"growthprice, version {growthprice.__version__}\n"
        # Python 3.10 has no tomllib
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        match = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M)
        assert match is not None
        assert match.group(1) == growthprice.__version__


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["growthprice", "growthprice.cli"])
    def test_python_m_prints_the_main_bytes(self, capsys, spec_path, module):
        argv = ["price", "--game", spec_path, "--rate", "0.05"]
        code, expected, _ = run_main(capsys, *argv)
        assert code == EXIT_OK
        src = str(Path(growthprice.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == expected.encode()


# The growthprice modules each cold command loads besides the package itself,
# and the third-party packages it loads. A command loads only what it runs.
_CLI_MODULES = {"errors", "games", "cli", "solver", "kernels"}
_LOADED = {
    "analyze": (_CLI_MODULES, set()),
    "price": (_CLI_MODULES, set()),
    "translate": (_CLI_MODULES | {"translation"}, set()),
    "threshold": (_CLI_MODULES | {"translation"}, set()),
    "sweep": (_CLI_MODULES | {"translation"}, set()),
    "verify": (_CLI_MODULES | {"oracle"}, set()),
}

# Standard-library modules that no cold command imports: dataclasses and
# inspect cost more than the rest of the package's import, and main() reads
# argv from the command table without argparse and the gettext and locale
# that argparse loads.
_HEAVY_STDLIB = {"dataclasses", "inspect", "pathlib", "argparse", "gettext", "locale"}

# Prints, as JSON on stderr once the interpreter exits, the loaded growthprice
# modules, and the top-level modules outside the standard library and in it
# imported from files after startup. Interpreter startup imports some before
# the code runs, and Cython extensions register file-less helper modules such
# as cython_runtime.
_REPORT_MODULES = (
    "import atexit, json, sys\n"
    "startup = set(sys.modules)\n"
    "def report():\n"
    "    names = sorted(m.partition('.')[2] for m in sys.modules\n"
    "                   if m.startswith('growthprice.'))\n"
    "    tops = {m.partition('.')[0] for m, module in sys.modules.items()\n"
    "            if m not in startup and getattr(module, '__file__', None)}\n"
    "    stdlib = tops & set(sys.stdlib_module_names)\n"
    "    other = tops - stdlib - {'growthprice'}\n"
    "    print(json.dumps([names, sorted(other), sorted(stdlib)]), file=sys.stderr)\n"
    "atexit.register(report)\n"
)


def loaded_modules(code: str, *argv: str):
    """Run code in a fresh interpreter; its growthprice modules, then the
    third-party and the standard-library modules it imported.

    The interpreter runs with -S, since a site hook (such as a .pth file)
    may import modules before the code runs and hide them from the report;
    numpy's install directory, where there is one, follows src on the path
    instead."""
    path = [str(Path(growthprice.__file__).resolve().parents[1])]
    numpy_spec = importlib.util.find_spec("numpy")
    if numpy_spec is not None:
        path.append(str(Path(numpy_spec.origin).resolve().parents[1]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _REPORT_MODULES + code, *argv],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    names, other, stdlib = json.loads(proc.stderr.decode().splitlines()[-1])
    return set(names), set(other), set(stdlib)


class TestLazyImports:
    def test_bare_import_loads_no_submodule(self):
        names, other, stdlib = loaded_modules("import growthprice")
        assert (names, other) == (set(), set())
        assert not stdlib & _HEAVY_STDLIB

    @pytest.mark.parametrize(
        "name", ("threshold_shift", "translation", "translation.threshold_shift")
    )
    def test_a_name_loads_its_home_module(self, name):
        code = f"import growthprice\ngrowthprice.{name}\n"
        modules = {"errors", "games", "kernels", "solver", "translation"}
        assert loaded_modules(code)[:2] == (modules, set())

    def test_a_game_name_loads_only_games_and_errors(self):
        code = "import growthprice\ngrowthprice.Game\n"
        assert loaded_modules(code)[:2] == ({"errors", "games"}, set())

    def test_every_command_is_in_the_table(self):
        assert set(_LOADED) == set(growthprice.cli._COMMANDS)

    @pytest.mark.parametrize("command", sorted(_LOADED))
    def test_cold_command_loads_only_its_modules(self, spec_path, command):
        # the console entry point, as a cold `growthprice <command>` runs it;
        # sweep writes CSV, so the csv branch runs too
        argv, _ = _ARGV[command]
        code = "from growthprice.cli import main\nmain()\n"
        names, other, stdlib = loaded_modules(code, command, "--game", spec_path, *argv)
        assert (names, other) == _LOADED[command]
        assert not stdlib & _HEAVY_STDLIB

    def test_verify_loads_no_numpy_on_the_three_point_fixture(
        self, tmp_path, three_point
    ):
        path = tmp_path / "three_point.json"
        path.write_text(save_spec(three_point))
        code = "from growthprice.cli import main\nmain()\n"
        names, other, stdlib = loaded_modules(code, "verify", "--game", str(path))
        assert (names, other) == _LOADED["verify"]
        assert not stdlib & _HEAVY_STDLIB


class TestPackageRoot:
    @pytest.mark.parametrize("name", growthprice.__all__)
    def test_public_name_is_its_home_module_attribute(self, name):
        value = getattr(growthprice, name)
        assert getattr(sys.modules[value.__module__], name) is value

    def test_dir_covers_all(self):
        assert set(growthprice.__all__) <= set(dir(growthprice))

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from growthprice import *", namespace)
        for name in growthprice.__all__:
            assert namespace[name] is getattr(growthprice, name)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            growthprice.nope
