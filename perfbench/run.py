#!/usr/bin/env python3
"""Builds and runs the cpplookup serving benchmark.

One run:
    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 30 --trace 0

The last line of standard output is the run's JSON result. The
benchmark is built from the checkout's sources into $CARGO_TARGET_DIR
(default: .bench_build at the checkout root); a checkout without the
sources fails the build and exits non-zero without a result.

Spread mode runs one workload on several seeds and prints, for each
metric, min / median / max and the interquartile range as a share of
the median (Python's statistics.quantiles(n=4)), which is how the
metric bounds in BENCHMARK.json were set:
    python3 perfbench/run.py --workload edit_mix --seconds 30 --spread 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = "cpplookup-perfbench"
# A run must end well inside the three minutes a caller allows it.
RUN_TIMEOUT_S = 170


def build(target_dir):
    """Builds the benchmark; returns the binary path or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    return os.path.join(target_dir, "release", BINARY)


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs one measurement; returns (exit code, parsed last line or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1, None
    lines = out.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    if child.returncode != 0 or not lines:
        return child.returncode or 1, None
    try:
        return 0, json.loads(lines[-1])
    except json.JSONDecodeError:
        return 1, None


def spread(binary, args):
    """Runs `args.spread` seeds and prints the spread of every metric."""
    values = {}
    units = {}
    for seed in range(args.seed, args.seed + args.spread):
        code, result = run_once(binary, args.workload, seed, args.seconds, args.trace, False)
        if code != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: failed (exit {code})", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    print(f"{args.workload}, {args.spread} seeds from {args.seed}, {args.seconds} s each:")
    print(f"  {'metric':<26} {'unit':<6} {'min':>12} {'median':>12} {'max':>12} {'iqr/med':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / abs(med) if med else float("nan")
        print(f"  {name:<26} {units[name]:<6} {min(vals):>12.6g} {med:>12.6g} "
              f"{max(vals):>12.6g} {share:>8.4f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["query_hot", "batch_cold", "edit_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spread", type=int, default=0,
                        help="run this many consecutive seeds and print each metric's spread")
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    binary = build(target_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    if args.spread > 0:
        return spread(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, True)
    return code


if __name__ == "__main__":
    sys.exit(main())
