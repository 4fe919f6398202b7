#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and spread (quartile distance over median) against a
third of its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload exact-large --seeds 1 2 3 4 5

Run from the repository root. Prints one line per metric; exits 1 if a
run fails or a spread other than setup_s reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        result = json.loads(last)
        if out.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {out.returncode})\n{out.stderr[-2000:]}")
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    steady = True
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        ok = spread < metric["bound"] / 3
        if metric["name"] != "setup_s":
            steady &= ok
        print(f"{metric['name']:>20}: median {q2:.6g} {metric['unit']}, spread {spread:.4f} "
              f"(bound {metric['bound']}, {'ok' if ok else 'WIDE'})")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
