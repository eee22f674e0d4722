"""growthprice benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve_narrow --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload solve_narrow --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --smoke            # every workload, tiny, both modes
    python3 bench/run.py --write-goldens    # refresh golden/ from the CLI

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; metric names and units come from BENCHMARK.json. See
bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "growthprice"
GOLDEN = BENCH / "golden"

MIN_OPS = 100  # so that at least ten samples lie beyond p90
SETUP_REPEATS = 5
TRACED_SHARE = 4  # a traced run covers 1/TRACED_SHARE of the untraced ops
# The CPU speed of a shared VM drifts by a third within minutes, and a whole
# run can sit in a slow spell. A reference task timed between ops tracks that
# speed, and end-to-end times are reported at the speed at which the reference
# takes its reference time. Work in this process is referred to a fixed
# pure-Python loop; work in child processes to a bare interpreter start, since
# exec and loading track the loop poorly. Never change the reference tasks or
# their times: every end-to-end time is scaled by them.
CALIBRATION_ROUNDS = 12_000
REFERENCE_LOOP_S = 0.002
REFERENCE_INTERPRETER_S = 0.05
REFERENCE_INTERVAL_S = 0.1
IMPORT_PROBE = (
    "from time import perf_counter as clock; start = clock();"
    " import growthprice, growthprice.cli; print(clock() - start)"
)


def op_count(wl, seconds: float, smoke: bool) -> int:
    """Fixed op count: the seed commit's nominal rate times the run length,
    at least MIN_OPS, rounded up to whole cycles of the workload's mix."""
    if smoke:
        return wl.cycle
    n = max(MIN_OPS, math.ceil(seconds * wl.nominal_ops_per_s))
    return wl.cycle * math.ceil(n / wl.cycle)


def loop_time() -> float:
    """Seconds a fixed pure-Python loop takes at the CPU's current speed."""
    t0 = perf_counter()
    acc = 0.0
    table = {}
    for i in range(CALIBRATION_ROUNDS):
        x = (i % 97) * 0.5 + 1.0
        acc += x / (x + 1.0) - acc * 1e-9
        table[i & 63] = acc
    return perf_counter() - t0


def interpreter_time() -> float:
    """Seconds a bare interpreter takes to start and exit."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - t0


def run_ops(op, items, tracer=None, reference=None, samples=None):
    """Run ops back to back; return (outputs, latencies in s, errors).

    An op that raises gets output None and its exception in errors. With a
    reference task, it is timed before the first op and then between ops at
    most every REFERENCE_INTERVAL_S, and the times are appended to samples.
    """
    outs, lat, errors = [], [], {}
    last_sample = -math.inf
    for i, item in enumerate(items):
        if reference is not None:
            if perf_counter() - last_sample >= REFERENCE_INTERVAL_S:
                samples.append(reference())
                last_sample = perf_counter()
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = op(item)
        except Exception as exc:  # an op that raises is a failed op
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        lat.append(perf_counter() - t0)
        outs.append(out)
    if tracer is not None:
        tracer.op = -1
    return outs, lat, errors


def failures(wl, items, outs, errors) -> list[str]:
    found = []
    for i, (item, out) in enumerate(zip(items, outs)):
        if i in errors:
            problems = [errors[i]]
        else:
            try:
                problems = wl.check(item, out)
            except Exception as exc:  # output the gate cannot read
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            found.append(f"op {i}: " + "; ".join(problems))
    return found


def measure_setup(wl, seed: int, n_ops: int, smoke: bool):
    """Set-up: the library import, in fresh interpreters since this process
    has imported it already, plus input generation. Each is the median of
    several rounds, and each is also scaled by its own reference task.

    Returns (items, setup seconds as measured, setup seconds scaled).
    """
    repeats = 1 if smoke else SETUP_REPEATS
    gen, loops, imports, interpreters = [], [], [], []
    for _ in range(repeats):
        t0 = perf_counter()
        items = wl.setup(seed, n_ops, smoke)
        gen.append(perf_counter() - t0)
        loops.append(loop_time())
        imports.append(import_seconds())
        interpreters.append(interpreter_time())
    med = statistics.median
    raw = med(gen) + med(imports)
    scaled = med(gen) * REFERENCE_LOOP_S / med(loops) + med(
        imports
    ) * REFERENCE_INTERPRETER_S / med(interpreters)
    return items, raw, scaled


def end_to_end(wl, items, setup_raw: float, setup_scaled: float):
    """End-to-end metrics as measured, and scaled to the reference speed."""
    if wl.child_processes:
        reference, reference_s = interpreter_time, REFERENCE_INTERPRETER_S
    else:
        reference, reference_s = loop_time, REFERENCE_LOOP_S
    samples = []
    outs, lat, errors = run_ops(wl.op, items, reference=reference, samples=samples)
    raw = {
        "setup_s": setup_raw,
        "ops_per_s": len(items) / math.fsum(lat),
        "op_ms_p50": 1e3 * statistics.median(lat),
        "op_ms_p90": 1e3 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": wl.peak_rss_kb(outs) / 1024.0,
    }
    # slowness > 1: the machine ran slower than the reference speed.
    slowness = statistics.median(samples) / reference_s
    metrics = dict(raw, setup_s=setup_scaled)
    for name in ("op_ms_p50", "op_ms_p90"):
        metrics[name] = raw[name] / slowness
    metrics["ops_per_s"] = raw["ops_per_s"] * slowness
    speed = f"{reference.__name__} {slowness!r} x reference ({len(samples)} samples)"
    return metrics, raw, speed, outs, errors


def import_seconds() -> float:
    """Time to import the library in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(proc.stdout)


def traced(wl, items, per_layer_names, smoke: bool):
    """Untraced then traced pass over the same ops; per-layer metrics per op."""
    from spans import Tracer

    # Warm up first, so first-call costs do not land in the untraced pass
    # and make tracing look cheaper than it is.
    run_ops(wl.traced_op, items[: wl.warmup])
    plain_outs, plain_lat, plain_errors = run_ops(wl.traced_op, items)
    tracer = Tracer()
    tracer.install()
    try:
        outs, lat, errors = run_ops(wl.traced_op, items, tracer)
    finally:
        tracer.uninstall()
    metrics = dict.fromkeys(per_layer_names, 0.0)
    metrics.update(tracer.summary(len(items)))
    metrics["trace.overhead_frac"] = 1.0 - math.fsum(plain_lat) / math.fsum(lat)
    metrics.update(wl.layer_metrics(items, plain_lat, smoke))
    unknown = set(metrics) - set(per_layer_names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    problems = failures(wl, items, plain_outs, plain_errors)
    problems += failures(wl, items, outs, errors)
    return metrics, outs, problems, tracer


def run(args, spec) -> dict:
    """One benchmark run; returns the result object."""
    import workloads

    wl = workloads.make(args.workload, WORKDIR, GOLDEN, SRC)
    n_ops = op_count(wl, args.seconds, args.smoke)
    if args.trace:
        n_traced = wl.cycle * max(1, n_ops // TRACED_SHARE // wl.cycle)
        items = wl.setup(args.seed, n_ops, args.smoke)[:n_traced]
        names = [m["name"] for m in spec["per_layer"]]
        metrics, outs, problems, tracer = traced(wl, items, names, args.smoke)
        WORKDIR.mkdir(parents=True, exist_ok=True)
        span_file = WORKDIR / f"spans_{args.workload}_{args.seed}.jsonl.gz"
        tracer.write(span_file)
        print(f"spans {len(tracer.names)} written to {span_file.relative_to(ROOT)}")
        attempted = 2 * len(items)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        items, setup_raw, setup_scaled = measure_setup(
            wl, args.seed, n_ops, args.smoke
        )
        metrics, raw, speed, outs, errors = end_to_end(
            wl, items, setup_raw, setup_scaled
        )
        problems = failures(wl, items, outs, errors)
        print(
            f"speed {speed}; as measured:"
            + "".join(f" {name} {value!r}" for name, value in raw.items())
        )
        attempted = len(items)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    print(f"workload {args.workload} seed {args.seed} ops {len(items)} trace {args.trace}")
    print("properties " + json.dumps(wl.properties(items, outs), sort_keys=True))
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    failed = len(problems)
    print(f"fail_frac {failed / attempted!r} ({failed} of {attempted} ops)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    if not args.trace:
        print(f"samples {len(items)} (op_ms_p50, op_ms_p90)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def write_goldens(seed: int) -> None:
    import workloads

    wl = workloads.make("cli_cold", WORKDIR, GOLDEN, SRC)
    wl.write_specs()
    GOLDEN.mkdir(exist_ok=True)
    for item in workloads.cli_cycle(seed):
        if item.golden is None:
            continue
        code, stdout, stderr, _ = wl.op(item)
        if code != 0:
            raise RuntimeError(f"{item.argv()} exited {code}: {stderr!r}")
        (GOLDEN / item.golden).write_bytes(stdout)
        print(f"wrote golden/{item.golden}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "growthprice" / "__init__.py").is_file():
        print(f"error: no growthprice package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import growthprice

    if Path(growthprice.__file__).resolve().parent != SRC / "growthprice":
        print(f"error: imported growthprice from {growthprice.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.write_goldens:
        write_goldens(args.seed)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.smoke:
        ok = True
        for name in names:
            for trace in (0, 1):
                args.workload, args.trace = name, trace
                result = run(args, spec)
                ok = ok and result["correct"]
                print(json.dumps(result))
        print("smoke " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    result = run(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
