#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 mcbench/spread.py --workload hot-hits --seeds 1-10 [--seconds 50] [--trace 0]

For each metric: the median over the runs and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. Run from the
repository root; each run goes through mcbench/run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print("seed %d: exit %d, correct %s, %s" % (
            seed, proc.returncode, result["correct"],
            ", ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) < 2:
        return 0
    for name, vals in values.items():
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-34s median %12.5g  spread %.3f%s" % (
            name, med, spread, "  bound %.2f" % bound if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
