"""Public records: immutable NamedTuples with value equality, a stable repr
and a JSON object encoding."""

import json

import pytest

import growthprice as gp
from growthprice.cli import RunConfig, dumps_report

_GAME = ((gp.Outcome(1.0, 0.5), gp.Outcome(19.0, 0.5)), "two-point")

# Every public record type, and a function that builds one instance of it.
_RECORDS = {
    "Outcome": lambda: gp.Outcome(payout=1.0, weight=0.5),
    "Game": lambda: gp.Game(*_GAME),
    "ValidationResult": lambda: gp.ValidationResult(ok=False, problems=("bad",)),
    "GameStats": lambda: gp.compute_stats(gp.Game(*_GAME)),
    "ProportionSolution": lambda: gp.ProportionSolution(
        price=9.5, proportion=0.5, growth=1.25, residual=0.0, iterations=7
    ),
    "PricingSolution": lambda: gp.PricingSolution(
        rate=0.05,
        optimal_price=9.5,
        regime=gp.Regime.INTERIOR,
        proportion=0.5,
        growth_check=1.25,
    ),
    "TranslationReport": lambda: gp.TranslationReport(
        shift=10.0,
        ratio_original=0.05,
        ratio_translated=0.05,
        ratio_residual=0.0,
        growth_original=1.25,
        growth_translated=1.25,
        growth_residual=0.0,
    ),
    "ThresholdResult": lambda: gp.ThresholdResult(
        rate=0.05, n0=None, residual=None, regime_note=gp.ThresholdStatus.FOUND
    ),
    "AsymptoticRow": lambda: gp.AsymptoticRow(
        shift=1.0, gap=0.5, boundary_growth=1.5, price_ratio=0.9, monotone_witness=9.0
    ),
    "TwoPointGame": lambda: gp.TwoPointGame(high=19.0, low=1.0, p_high=0.5),
    "SimulationResult": lambda: gp.SimulationResult(
        mean_log_growth=0.1, std_error=0.01, paths=10, periods_per_path=5, seed=3
    ),
    "Check": lambda: gp.Check(name="check", passed=True, detail="held"),
    "RunConfig": lambda: RunConfig(command="price", game_path="game.json", rate=0.05),
}


class TestRecords:
    def test_every_public_record_is_listed(self):
        records = {
            name
            for name in gp.__all__
            if isinstance(getattr(gp, name), type)
            and issubclass(getattr(gp, name), tuple)
        }
        assert records | {"RunConfig"} == set(_RECORDS)

    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_fields_are_read_only(self, name):
        record = _RECORDS[name]()
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0.0)

    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_equal_values_compare_and_hash_equal(self, name):
        first, second = _RECORDS[name](), _RECORDS[name]()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_report_encodes_a_record_as_an_object(self, name):
        record = _RECORDS[name]()
        assert list(json.loads(dumps_report(record))) == list(record._fields)

    def test_repr_text(self):
        assert repr(_RECORDS["Outcome"]()) == "Outcome(payout=1.0, weight=0.5)"
        assert repr(_RECORDS["PricingSolution"]()) == (
            "PricingSolution(rate=0.05, optimal_price=9.5,"
            " regime=<Regime.INTERIOR: 'interior'>, proportion=0.5,"
            " growth_check=1.25)"
        )

    def test_game_merges_and_sorts_its_outcomes(self):
        game = gp.Game(
            outcomes=(
                gp.Outcome(19.0, 0.25),
                gp.Outcome(1.0, 0.5),
                gp.Outcome(7.0, 0.0),
                gp.Outcome(19.0, 0.25),
            ),
            label="two-point",
        )
        assert game == _RECORDS["Game"]()
        assert game._replace(outcomes=game.outcomes[::-1]) == game

    def test_cached_stats_take_no_part_in_equality(self):
        warm, cold = _RECORDS["Game"](), _RECORDS["Game"]()
        gp.compute_stats(warm)
        assert "_stats" in vars(warm) and "_stats" not in vars(cold)
        assert warm == cold and hash(warm) == hash(cold)
        # nor does the last price the game keeps
        stats_only = set(vars(warm))
        gp.optimal_price(warm, 0.05)
        assert set(vars(warm)) > stats_only
        assert warm == cold and hash(warm) == hash(cold)

    @pytest.mark.parametrize(
        "fields",
        (
            dict(high=1.0, low=2.0, p_high=0.5),
            dict(high=2.0, low=-1.0, p_high=0.5),
            dict(high=2.0, low=1.0, p_high=1.0),
        ),
    )
    def test_two_point_game_validates_keyword_construction(self, fields):
        with pytest.raises(gp.DomainError):
            gp.TwoPointGame(**fields)
        with pytest.raises(gp.DomainError):
            _RECORDS["TwoPointGame"]()._replace(**fields)

    def test_game_pairs_are_plain_tuples_of_its_outcomes(self):
        game = _RECORDS["Game"]()
        assert game._pairs == game.outcomes
        assert all(type(pair) is tuple for pair in game._pairs)


@pytest.fixture
def outcome_news(monkeypatch):
    """The arguments of every call to Outcome's Python-level __new__."""
    seen = []
    new = gp.Outcome.__new__

    def counted(cls, *args, **kwargs):
        seen.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(gp.Outcome, "__new__", counted)
    return seen


class TestRecordsBuiltOnce:
    """Every ingestion path hands Game plain pairs, and each record is built
    from one by tuple.__new__, never through Outcome's own __new__."""

    _PAIRS = [(19.0, 0.25), (1.0, 0.5), (7.0, 0.0), (19.0, 0.25)]

    @pytest.mark.parametrize(
        "build",
        [
            lambda pairs: gp.Game.from_pairs(pairs, "two-point"),
            lambda pairs: gp.Game(pairs, "two-point"),
            lambda pairs: gp.Game(iter(pairs), "two-point"),
            lambda pairs: gp.load_spec(
                json.dumps(
                    {
                        "label": "two-point",
                        "outcomes": [{"payout": a, "prob": p} for a, p in pairs],
                    }
                )
            ),
            lambda pairs: gp.game_from_nodes(*zip(*pairs), label="two-point"),
        ],
        ids=["from_pairs", "Game", "Game_from_an_iterator", "load_spec", "game_from_nodes"],
    )
    def test_an_ingestion_path_builds_no_record_through_outcome(self, outcome_news, build):
        game = build(self._PAIRS)
        assert outcome_news == []
        assert game == _RECORDS["Game"]()
        assert all(type(o) is gp.Outcome for o in game.outcomes)

    def test_records_handed_in_are_rebuilt_without_outcome(self, outcome_news):
        records = [gp.Outcome(a, w) for a, w in self._PAIRS]
        outcome_news.clear()
        game = gp.Game(records, "two-point")
        assert outcome_news == [] and game == _RECORDS["Game"]()

    def test_a_two_point_game_builds_no_record_through_outcome(self, outcome_news):
        game = gp.TwoPointGame(high=19.0, low=1.0, p_high=0.5).to_game("two-point")
        assert outcome_news == [] and game == _RECORDS["Game"]()

    @pytest.mark.parametrize(
        "n, merges", [(10.0, False), (1e17, True)], ids=["direct", "merging"]
    )
    def test_translate_builds_no_record_through_outcome(self, outcome_news, n, merges):
        game = gp.Game.from_pairs([(1.0, 0.5), (3.0, 0.25), (19.0, 0.25)])
        shifted = gp.translate(game, n)
        assert outcome_news == []
        assert len(shifted.outcomes) == (2 if merges else 3)
        assert all(type(o) is gp.Outcome for o in shifted.outcomes)

    def test_the_counter_sees_a_record_built_through_outcome(self, outcome_news):
        gp.Outcome(1.0, 0.5)
        assert outcome_news == [(1.0, 0.5)]
