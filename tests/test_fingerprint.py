"""The first seed of each solve workload against tests/fingerprint.json: its
output hash on every build, and its units of work on the recorded Python
minor version and numpy version (tests/fingerprint.py); and the counting
harness itself, which needs no numpy."""

import json
import sys
from collections import Counter

import fingerprint
import growthprice.games as games
import growthprice.solver as solver
import growthprice.translation as translation
from growthprice import Game


def test_the_first_seed_of_each_workload_keeps_its_fingerprint():
    recorded = json.loads(fingerprint.RECORD.read_text())
    computed = fingerprint.compute(first_seed_only=True)
    assert fingerprint.differences(recorded, computed) == []


def test_the_check_compares_counts_only_on_the_recorded_build():
    recorded = json.loads(fingerprint.RECORD.read_text())
    seed = next(iter(recorded["workloads"]["solve_narrow"]["seeds"]))
    got = dict(recorded["workloads"]["solve_narrow"]["seeds"][seed], foc_loop=-1)
    computed = {**recorded, "workloads": {"solve_narrow": {"seeds": {seed: got}}}}
    assert len(fingerprint.differences(recorded, computed)) == 1
    other_build = {**computed, "numpy": "0.0"}
    assert fingerprint.differences(recorded, other_build) == []
    got["sha256"] = "0" * 64
    assert len(fingerprint.differences(recorded, other_build)) == 1


def _bindings() -> dict:
    """Every name bound in every growthprice module, by (module, name)."""
    return {
        (key, name): value
        for key, module in list(sys.modules.items())
        if key.partition(".")[0] == "growthprice"
        for name, value in vars(module).items()
    }


def _two_point() -> Game:
    return Game.from_pairs([(1.0, 0.5), (19.0, 0.5)])


def test_counting_restores_every_binding_it_patched():
    # translate is both a unit here and wrapped again to count games built
    units = {**fingerprint.COUNTED, "translate": (games, "translate")}
    before, new = _bindings(), Game.__dict__["__new__"]
    with fingerprint.counting(Counter(), units):
        during = _bindings()
        translation.price_translated(_two_point(), 0.05, 10.0)
    after = _bindings()
    patched = {key for key, value in before.items() if during[key] is not value}
    assert {
        ("growthprice.games", "translate"),
        ("growthprice.translation", "translate"),
        ("growthprice.translation", "boundary_growth"),
        ("growthprice.kernels", "_first_order_sum"),
    } <= patched
    assert all(after[key] is value for key, value in before.items())
    wrappers = {id(during[key]) for key in patched}
    assert not any(id(value) in wrappers for value in after.values())
    assert Game.__dict__["__new__"] is new


def test_a_call_through_an_imported_name_counts_once():
    # translation imports optimal_price and _bisect from the solver; one
    # wrapper replaces both bindings, so neither route counts twice or not
    # at all
    units = {name: (solver, name) for name in ("optimal_price", "_bisect")}
    with fingerprint.counting(Counter(), units) as counts:
        translation.optimal_price(_two_point(), 0.05)
        assert counts["optimal_price"] == 1
        # the price bisection and one inner bisection at each of its two
        # evaluations
        assert counts["_bisect"] == 3
        solver.optimal_price(_two_point(), 0.05)
        assert counts["optimal_price"] == 2
        translation._bisect(lambda x: 0.5 - x, 0.0, 1.0, 1e-12, 200)
        assert counts["_bisect"] == 7
        built = counts["games_built"]
        translation.translate(_two_point(), 10.0)
        # the fixture through Game, the shifted game through translate
        assert counts["games_built"] == built + 2
