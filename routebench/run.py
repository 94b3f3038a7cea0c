"""Route-query service benchmark: one workload, one seed, one JSON line.

Run from the repository root::

    python3 routebench/run.py --workload table-path --seed 1 --seconds 15 --trace 0

Each run launches a real ``serve`` worker (after ``compile-tables`` for
the table workload), drives it over loopback TCP from this single
process, verifies every reply against an independent oracle, checks
the server's STATS counters, and prints the metrics.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the same load with
one set-up and adds an in-process traced replay, printing the per-layer
metrics.  The last line of standard output is the JSON result.

``--inject distance`` or ``--inject path`` corrupts one received reply
before verification; the run must then report ``correct: false`` and
exit 1 (the benchmark's negative check).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from metrics import BENCHMARK

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("distance", "path"), default=None,
                        help="corrupt one received reply (negative check)")
    parser.add_argument("--save", default=None, metavar="DIR",
                        help="also write the result to DIR/<workload>/")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # Turn SIGTERM into an exception so the server and work files are
    # cleaned up by the same ``finally`` blocks as any failure.
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro", "service")):
        print(f"error: no route service sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from bench import Bench, RunFailed
    from wire import adopt_orphans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    adopt_orphans()
    work = os.path.join(ROOT, ".routebench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args, work)
        result, extra = bench.run()
    except RunFailed as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    for problem in extra.get("problems", []):
        print(f"FAIL: {problem}", file=sys.stderr)
    width = max(len(name) for name in result["metrics"])
    for name, row in result["metrics"].items():
        print(f"{name:<{width}}  {row['value']:.6g} {row['unit']}")
    for line in extra.get("notes", []):
        print(line)
    if args.save:
        out_dir = os.path.join(args.save, args.workload)
        os.makedirs(out_dir, exist_ok=True)
        mode = "trace" if args.trace else "e2e"
        with open(os.path.join(out_dir, f"{mode}-seed{args.seed}.json"), "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "result": result,
                       "extra": {k: v for k, v in extra.items() if k != "notes"}},
                      handle, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
