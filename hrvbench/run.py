#!/usr/bin/env python3
"""Builds and runs the hrv-psa benchmark.

One run, from the repository root:

    python3 hrvbench/run.py --workload gateway_paced --seed 1 --seconds 16 --trace 0

prints `#` lines (command, host, what each metric's timer covers) and,
as the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. `--trace 0` reports BENCHMARK.json's end_to_end metrics,
`--trace 1` its per_layer metrics.

Steadiness mode runs one workload N times (seeds seed .. seed+N-1) on one
build and prints, per metric, the median, the quartiles, the quartile
spread and (max - min) / median:

    python3 hrvbench/run.py --workload fleet_direct --seed 1 --seconds 16 --trace 0 --steady 10
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark package; returns the binary path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        done = subprocess.run(command, env=env, stdout=sys.stderr, cwd=ROOT)
    except OSError as err:
        log(f"run.py: cannot run cargo: {err}")
        return None
    if done.returncode != 0:
        log(f"run.py: build failed ({done.returncode})")
        return None
    return os.path.join(target, "release", "hrvbench")


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns (meta, metrics, attempted, failed)
    or None when the binary fails or times out."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run.py: {workload} seed {seed} timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"run.py: {workload} seed {seed} exited with {proc.returncode}")
        return None
    meta, metrics, checks = {}, {}, None
    for line in out.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "META":
            meta = dict(field.split("=", 1) for field in rest.split())
        elif kind == "METRIC":
            name, value, unit, covers = (rest.split(" ", 3) + [""])[:4]
            metrics[name] = {"value": float(value), "unit": unit, "covers": covers}
        elif kind == "CHECKS":
            checks = [int(v) for v in rest.split()]
    if checks is None:
        log("run.py: no CHECKS line")
        return None
    return meta, metrics, checks[0], checks[1]


def declared(trace):
    """(name, unit) of the metrics BENCHMARK.json asks for."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return [(row["name"], row["unit"]) for row in rows]


def version(command):
    try:
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        return done.stdout.strip() if done.returncode == 0 else None
    except OSError:
        return None


def one_run(binary, args):
    result = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    meta, metrics, attempted, failed = result
    wanted = declared(args.trace)
    missing = [name for name, _ in wanted if name not in metrics]
    wrong = [name for name, unit in wanted if name in metrics and metrics[name]["unit"] != unit]
    if missing or wrong:
        log(f"run.py: missing metrics {missing}, unit mismatch {wrong}")
        return 1
    print("# command: python3 hrvbench/run.py " + " ".join(sys.argv[1:]))
    print(f"# host: nproc={meta.get('nproc')} simd={meta.get('simd')} "
          f"machine={platform.machine()} rustc={version(['rustc', '--version'])} "
          f"git_rev={version(['git', 'rev-parse', 'HEAD']) or 'none (not a git checkout)'}")
    print("# attempted/failed: timed operations and output checks (reports "
          "bit-identical to the reference, window counts, detection kept, queues drained)")
    for name, unit in wanted:
        print(f"# {name} [{unit}]: {metrics[name]['covers']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit in wanted},
    }))
    return 0


def steady(binary, args):
    values, failures = {}, 0
    for i in range(args.steady):
        result = run_binary(binary, args.workload, args.seed + i, args.seconds, args.trace)
        if result is None:
            return 1
        _, metrics, _, failed = result
        failures += failed
        for name, metric in metrics.items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{name}={metrics[name]['value']:.6g}"
                         for name, _ in declared(args.trace) if name in metrics)
        log(f"run.py: steady run {i + 1}/{args.steady} (seed {args.seed + i}): {shown}")
    print(f"# {args.workload}: {args.steady} runs, seeds {args.seed}..{args.seed + args.steady - 1}, "
          f"seconds {args.seconds}, trace {args.trace}, failed checks {failures}")
    print(f"{'metric':<44} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>9} {'range/med':>10}")
    summary = {}
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        iqr = (q3 - q1) / med if med else 0.0
        spread = (max(v) - min(v)) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": iqr, "range_share": spread}
        print(f"{name:<44} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {iqr:>9.4f} {spread:>10.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.steady, "failed": failures,
                      "metrics": summary}))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet_direct", "gateway_saturate", "gateway_paced"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="steadiness mode: run N times on one build and print spreads")
    args = parser.parse_args()
    binary = build()
    if binary is None:
        return 1
    return steady(binary, args) if args.steady else one_run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
