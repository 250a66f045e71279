#!/usr/bin/env python3
"""Build and run the federation benchmark from the root of a checkout.

    python3 fedbench/run.py --workload interactive --seed 1 --seconds 35 --trace 0

builds `source-server` (from the repository's workspace) and the `fedbench`
package into $CARGO_TARGET_DIR (default `.bench_build`), then runs one
workload; the last line of stdout is the result JSON.  `--data-seed` picks
the generated federation and query corpus (see README.md).

    python3 fedbench/run.py --workload analytic --seed 1 --seconds 35 --trace 0 --repeat 10

runs the workload ten times on seeds 1..10 and prints each metric's median,
quartiles and spread (quartile distance over median), computed with
`statistics.quantiles(values, n=4)`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("interactive", "analytic")


def build():
    """Builds both binaries; returns the target directory."""
    for needed in ("Cargo.toml", "crates/multisource/Cargo.toml", "fedbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"fedbench: {needed} not found; run from a full checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "multisource", "--bin", "source-server"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("fedbench", "Cargo.toml")],
    )
    for step in steps:
        if subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"fedbench: build failed: {' '.join(step)}")
    return target


def command(target, args, seed):
    return [
        os.path.join(target, "release", "fedbench"),
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data-seed", str(args.data_seed),
        "--server-bin", os.path.join(target, "release", "source-server"),
        "--out", os.path.join(ROOT, "fedbench", "out"),
    ]


def repeat(target, args):
    """Runs `args.repeat` seeds and prints per-metric quartiles."""
    values = {}
    for seed in range(args.seed, args.seed + args.repeat):
        proc = subprocess.run(command(target, args, seed), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            sys.exit(f"fedbench: seed {seed} failed with exit code {proc.returncode}")
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    print(f"{'metric':<36} {'unit':<7} {'q1':>12} {'median':>12} {'q3':>12} spread")
    for name, (unit, vals) in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<36} {unit:<7} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} {spread:.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds and print quartiles")
    args = parser.parse_args()
    target = build()
    if args.repeat > 0:
        repeat(target, args)
        return 0
    return subprocess.run(command(target, args, args.seed), cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
