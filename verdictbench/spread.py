#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each metric's spread.

    python3 verdictbench/spread.py linear-bmc --seeds 1-10 --seconds 25

Run from the repository root after building the benchmark once, for
example with `cargo build --release --offline --manifest-path
verdictbench/Cargo.toml`. For each end-to-end metric it prints the
median over the runs and the distance between the first and third
quartile as a share of the median, next to the metric's bound in
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0")
    parser.add_argument(
        "--binary",
        default=os.path.join(
            os.environ.get("CARGO_TARGET_DIR", "verdictbench/target"),
            "release",
            "absolver-verdictbench",
        ),
    )
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seeds(args.seeds):
        cmd = [args.binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"\n{'metric':<32} {'median':>12} {'IQR/median':>11} {'bound':>7}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(k)
        print(f"{k:<32} {med:>12.5g} {spread:>11.3f} {bound if bound is not None else '-':>7}")


if __name__ == "__main__":
    main()
