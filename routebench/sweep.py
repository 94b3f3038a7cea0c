"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 routebench/sweep.py --out .routebench_results/base --seeds 1-10
    python3 routebench/sweep.py --out .routebench_results/base --seeds 1-3 \\
        --workloads table-path --trace 1

Each run's result lands in ``OUT/<workload>/<e2e|trace>-seed<n>.json``
(the input of ``compare.py``).  For every end-to-end metric the sweep
prints the median, the quartiles and the quartile spread as a share of
the median, against the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from metrics import BENCHMARK, ROOT


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def load_runs(out: str, workload: str, mode: str):
    """Every saved result of ``workload`` in ``mode`` ("e2e" or "trace").

    Runs whose checks failed are included; see :func:`incorrect`.
    """
    folder = os.path.join(out, workload)
    runs = []
    if os.path.isdir(folder):
        for name in sorted(os.listdir(folder)):
            if name.startswith(mode + "-") and name.endswith(".json"):
                with open(os.path.join(folder, name)) as handle:
                    runs.append(json.load(handle))
    return runs


def incorrect(runs):
    """Seeds of the runs that report ``correct: false``."""
    return [r["seed"] for r in runs if not r["result"]["correct"]]


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as ``statistics.quantiles`` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    bench = BENCHMARK
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    mode = "trace" if args.trace else "e2e"
    failures = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
                "--save", args.out]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
            print(f"{workload} seed {seed}: exit {done.returncode} {last[:160]}",
                  flush=True)
            if done.returncode:
                failures += 1
                print(done.stdout[-2000:], file=sys.stderr)
        if args.trace:
            continue
        runs = load_runs(args.out, workload, mode)
        bad = incorrect(runs)
        if bad:
            failures += len(bad)
            print(f"  INCORRECT runs (seeds {bad}): their figures are not valid")
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            flag = "" if share <= metric["bound"] / 3 else "  <-- above bound/3"
            print(f"  {metric['name']:<14} median {median:.6g} q1 {q1:.6g} "
                  f"q3 {q3:.6g} spread {share:.3f} (bound {metric['bound']}){flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
