#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, against the
metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload read_your_writes --seeds 10

Run from the repository root. A spread counts as steady below a third of
its bound; setup_s is reported but, having no spread gate, never flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed",
              file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        runs.append(run_once(bench["command"], args.workload, seed, bench["run_seconds"]))
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              file=sys.stderr)

    steady = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- not steady"
        steady &= not flag
        print(f"{args.workload:18} {name:14} median={med:<12.6g} spread={spread:.4f} "
              f"bound={bound}{flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
