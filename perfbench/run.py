#!/usr/bin/env python3
"""Builds and runs the crew benchmark (one workload per invocation).

Usage, from the root of the repository:

  python3 perfbench/run.py --workload grid-mlp --seed 1 --seconds 20 --trace 0

Workloads: grid-mlp, latency-embbag, stream-resume (see perfbench/README.md).
The benchmark binary is compiled from source on first use into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed. Scratch files (checkpoints, JSONL streams, the
trace) go to <build dir>/work/<workload>.

After the binary's own output checks, this script checks every checkpoint
the run wrote with tools/merge_cells.py --check (a separate reader of the
cell schema) and, for --trace 1, the Chrome trace with
tools/validate_trace.py. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("grid-mlp", "latency-embbag", "stream-resume")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TOOL_TIMEOUT_S = 60


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(REPO, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise RuntimeError("crew sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    binary = os.path.join(out_dir, "perfbench")
    if not os.path.isfile(binary):
        raise RuntimeError(f"build produced no binary at {binary}")
    return binary


def run_tool(args):
    """Runs one of the repository's Python checkers; True when it passes."""
    done = subprocess.run([sys.executable] + args, stdout=sys.stderr,
                          stderr=sys.stderr, timeout=TOOL_TIMEOUT_S,
                          check=False)
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    try:
        out_dir = build_dir()
        binary = build(out_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"cannot build the benchmark: {e}")
        return 2

    workdir = os.path.join(out_dir, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {done.returncode}")
        return 4
    result = json.loads(lines[-1])

    checkpoints = sorted(glob.glob(os.path.join(workdir, "*.ckpt.jsonl")))
    merge_cells = os.path.join(REPO, "tools", "merge_cells.py")
    checks_ok = bool(checkpoints)
    for path in checkpoints:
        if not run_tool([merge_cells, "--check", path]):
            log(f"merge_cells.py --check rejected {path}")
            checks_ok = False
    if args.trace:
        trace = os.path.join(workdir, "trace.json")
        if not run_tool([os.path.join(REPO, "tools", "validate_trace.py"),
                         trace, "--min-events", "10"]):
            log(f"validate_trace.py rejected {trace}")
            checks_ok = False
    result["correct"] = bool(result["correct"]) and checks_ok

    for line in lines[:-1]:
        print(line)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
