"""The first seed of each solve workload against tests/fingerprint.json: its
output hash on every build, and its units of work on the recorded Python
minor version and numpy version (tests/fingerprint.py)."""

import json

import fingerprint


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
