#!/usr/bin/env python3
"""Build and run the mcdc end-to-end benchmark.

Run from the repository root:

    python3 mcbench/run.py --workload hot-hits --seed 1 --seconds 10 --trace 0
    python3 mcbench/run.py --selftest

The first call configures and builds the package in mcbench/ (the mcdc
libraries from src/ plus the driver) under .bench_build/mcbench, or under
$CARGO_TARGET_DIR/mcbench when that is set; later calls rebuild only what
changed. The driver's output is passed through; its last line is the result
JSON. Before printing it, this script checks that the metric names match the
end_to_end (--trace 0) or per_layer (--trace 1) list of BENCHMARK.json, when
that file is present. With --trace 1 the span trace is written as
Chrome-trace JSON beside the build. See mcbench/NOTES.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "mcbench")


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the driver's output.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out


def expected_metrics(trace):
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec):
        return None
    with open(spec) as f:
        doc = json.load(f)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        out = build("mcbench_tests")
        if out is None:
            return 1
        return subprocess.run([os.path.join(out, "mcbench_tests")]).returncode

    if not args.workload:
        ap.error("--workload is required")
    out = build("mcbench")
    if out is None:
        return 1
    cmd = [os.path.join(out, "mcbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return proc.returncode or 1
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("run.py: metrics differ from BENCHMARK.json: missing %s, unexpected %s" %
              (sorted(set(want.items()) - set(got.items())), sorted(set(got.items()) - set(want.items()))),
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
