#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json ten times, with seeds 1 to 10,
and prints each end-to-end metric's median and quartiles, the spread
(interquartile distance over median) and the share of failed operations.
The bounds in BENCHMARK.json are set from this output: every spread,
setup_s's too, should stay below a third of its metric's bound; a spread
that does not is marked WIDE and the command exits 1.

Usage, from the root of the repository:

  python3 perfbench/steadiness.py

Runs are sequential, each run_seconds long plus set-up, so the whole
command takes about 10 x workloads x 35 s.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in range(1, RUNS + 1):
            results.append(run_once(workload, seed, bench["run_seconds"]))
            print(f"  {workload} seed {seed} done", file=sys.stderr,
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {workload}: {RUNS} runs, failed share "
              f"{sorted(shares)}, all correct: "
              f"{all(r['correct'] for r in results)}")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            ok = spread < bound / 3
            steady = steady and ok
            print(f"  {name:<22} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {bound:6.2f}{'' if ok else '  WIDE'}",
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
