"""Fingerprint of the solve workloads: every output bit and the units of work
behind it, recorded in tests/fingerprint.json.

    python tests/fingerprint.py --write    # record the fingerprint
    python tests/fingerprint.py --check    # recompute it; exit 1 on a difference

For each seed of bench/workloads.py's solve_narrow (1400 ops) and solve_wide
(200 ops) workloads, built as the benchmark builds them, it records the
sha256 over repr(op(item)) in op order, and the work that the ops did, in
calls summed over the ops: first-order (FOC) evaluations on the loop and on
numpy arrays, exact log growths, boundary_growth calls, validate calls and
games built. The record names the Python minor version and the numpy version
it was taken on. --check compares the hashes everywhere, since no result may
depend on the kernel, and the counts only on the recorded versions, since
exact-evaluation counts on wide games may depend on numpy's build. A change
that moves a bit or a count rewrites the record with --write and says why.

tests/test_fingerprint.py recomputes the first seed of each workload in
Tier-1. The script imports bench/workloads.py and changes nothing there. Its
name does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_name("fingerprint.json")
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "bench"))

import growthprice.games as games  # noqa: E402
import growthprice.kernels as kernels  # noqa: E402
import growthprice.translation as translation  # noqa: E402
from workloads import Solve  # noqa: E402

# (workload, wide, ops per seed, seeds); Tier-1 recomputes the first seed
WORKLOADS = (
    ("solve_narrow", False, 1400, (6, 7, 8)),
    ("solve_wide", True, 200, (5, 6, 7)),
)
# each unit of work, by the function that one call of makes one of it
COUNTED = {
    "foc_loop": (kernels, "_first_order_sum"),
    "foc_array": (kernels, "_array_first_order_sum"),
    "log_growth": (kernels, "_log_growth"),
    "boundary_growth": (translation, "boundary_growth"),
    "validate": (games, "validate"),
}
UNITS = (*COUNTED, "games_built")


def versions() -> dict[str, str | None]:
    """The Python minor version, and the version of the numpy that the
    solver loads, or None where it loads none."""
    np = kernels._import_numpy()
    return {
        "python": "{}.{}".format(*sys.version_info),
        "numpy": None if np is None else np.__version__,
    }


@contextmanager
def counting(counts: Counter):
    """Count each unit of work into counts while the block runs."""
    saved = [(module, name, getattr(module, name)) for module, name in COUNTED.values()]
    new, translate = games.Game.__dict__["__new__"], translation.translate

    def counter(unit, fn):
        def counted(*args, **kwargs):
            counts[unit] += 1
            return fn(*args, **kwargs)

        return counted

    def counted_translate(game, n):
        # one game, whether or not translate builds it through Game
        built = counts["games_built"]
        shifted = translate(game, n)
        counts["games_built"] = built + 1
        return shifted

    for unit, (module, name) in COUNTED.items():
        setattr(module, name, counter(unit, getattr(module, name)))
    games.Game.__new__ = staticmethod(counter("games_built", new.__func__))
    translation.translate = counted_translate
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
        games.Game.__new__ = new
        translation.translate = translate


def fingerprint(workload: str, wide: bool, ops: int, seed: int) -> dict:
    """The hash and the work of one seed's ops."""
    solve = Solve(workload, wide)
    items = solve.setup(seed, ops, smoke=False)
    digest, counts = hashlib.sha256(), Counter()
    with counting(counts):
        for item in items:
            digest.update(repr(solve.op(item)).encode())
    return {"sha256": digest.hexdigest(), **{unit: counts[unit] for unit in UNITS}}


def compute(first_seed_only: bool = False) -> dict:
    record = {**versions(), "workloads": {}}
    for workload, wide, ops, seeds in WORKLOADS:
        record["workloads"][workload] = {
            "ops": ops,
            "seeds": {
                str(seed): fingerprint(workload, wide, ops, seed)
                for seed in (seeds[:1] if first_seed_only else seeds)
            },
        }
    return record


def differences(recorded: dict, computed: dict) -> list[str]:
    """Every hash, and on the recorded versions every count, that computed
    does not share with recorded, for the seeds that computed holds."""
    same_build = all(recorded[key] == computed[key] for key in ("python", "numpy"))
    keys = UNITS if same_build else ()
    found = []
    for workload, runs in computed["workloads"].items():
        for seed, got in runs["seeds"].items():
            want = recorded["workloads"][workload]["seeds"][seed]
            for key in ("sha256", *keys):
                if got[key] != want[key]:
                    found.append(f"{workload} seed {seed} {key}: {want[key]} -> {got[key]}")
    return found


def report(record: dict) -> str:
    lines = [f"python {record['python']}, numpy {record['numpy']}"]
    for workload, runs in record["workloads"].items():
        for seed, got in runs["seeds"].items():
            per_op = ", ".join(
                f"{unit} {got[unit] / runs['ops']:.3f}" for unit in UNITS
            )
            lines.append(f"{workload} seed {seed}: {got['sha256'][:8]}; per op {per_op}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the fingerprint")
    mode.add_argument("--check", action="store_true", help="compare with the record")
    args = parser.parse_args(argv)
    computed = compute()
    print(report(computed))
    if args.write:
        RECORD.write_text(json.dumps(computed, indent=2) + "\n")
        return 0
    recorded = json.loads(RECORD.read_text())
    if recorded["python"] != computed["python"] or recorded["numpy"] != computed["numpy"]:
        print("counts not compared: recorded on another Python minor or numpy version")
    found = differences(recorded, computed)
    print("\n".join(found) or "fingerprint unchanged")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
