"""Compare two sets of benchmark runs, workload by workload.

Run from the repository root, with two result directories written by
``sweep.py`` (or ``run.py --save``)::

    python3 routebench/compare.py .routebench_results/base .routebench_results/change

For every workload × end-to-end metric it prints both sides' medians
and quartiles, the ratio change/base, the same ratio of the unscaled
figures, the share of seed-paired runs the change won, and a verdict
against the bound in ``BENCHMARK.json``:

* ``regressed``   the change's median is worse by more than the bound;
* ``unresolved``  the base's own quartile spread exceeds the bound and
                  the change does not beat every base run, or the
                  scaled and the unscaled figures disagree on a
                  regression or a gain;
* ``gain``        the change won at least 9 in 10 seed pairs and the
                  medians differ by more than the base's quartile spread;
* ``within``      otherwise.

The scaled figures (see ``speed.py``) and the unscaled ones are judged
alike, and a regression or a gain stands only when both show it.

Beside them it prints each per-layer metric's medians from the traced
runs (``trace-seed*.json``) and their delta, with the end-to-end metric
the layer should move (``layers.json``).  Exit status 1 when any
workload regressed or any saved run reports ``correct: false``: the
figures of a run whose replies failed their checks mean nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from metrics import BENCHMARK, over_rounds
from sweep import incorrect, load_runs, spread

HERE = os.path.dirname(os.path.abspath(__file__))


def values_by_seed(runs, metric):
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in runs}


def raw_by_seed(runs, metric):
    """The unscaled figures, taken over the rounds, or the setups' median."""
    out = {}
    for r in runs:
        extra = r["extra"]
        if metric in extra["rounds"][0]:
            out[r["seed"]] = over_rounds(metric, [x[metric] for x in extra["rounds"]])
        elif metric == "setup_s":
            out[r["seed"]] = statistics.median(extra["setups"])
        else:
            out[r["seed"]] = r["result"]["metrics"][metric]["value"]
    return out


def verdict(base, change, bound, higher_is_better):
    """(ratio, wins share, verdict) for one workload × metric."""
    b_med, b_q1, b_q3, b_share = spread(list(base.values()))
    c_med = statistics.median(change.values())
    ratio = c_med / b_med if b_med else float("inf")
    sign = 1 if higher_is_better else -1
    paired = [s for s in base if s in change]
    wins = sum(1 for s in paired if sign * (change[s] - base[s]) > 0)
    win_share = wins / len(paired) if paired else 0.0
    worse = -sign * (ratio - 1)
    beats_all = (min(change.values()) > max(base.values()) if higher_is_better
                 else max(change.values()) < min(base.values()))
    if worse > bound:
        text = "regressed"
    elif win_share >= 0.9 and abs(c_med - b_med) > (b_q3 - b_q1) and sign * (c_med - b_med) > 0:
        text = "gain"
    elif b_share > bound and not beats_all:
        text = "unresolved"
    else:
        text = "within"
    return ratio, win_share, text


def agree(text, raw_ratio, bound, higher_is_better):
    """The verdict, unless the unscaled figures point the other way.

    A regression or gain must show in the raw ratio too, and a raw
    regression beyond the bound makes a scaled ``within`` unresolved.
    """
    raw_worse = (1 - raw_ratio) if higher_is_better else (raw_ratio - 1)
    if (text == "regressed" and raw_worse <= 0
            or text == "gain" and raw_worse >= 0
            or text == "within" and raw_worse > bound):
        return f"unresolved (scaled says {text}, raw ratio {raw_ratio:.3f})"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    bench = BENCHMARK
    with open(os.path.join(HERE, "layers.json")) as handle:
        layers = json.load(handle)["layers"]
    moves = {metric: row["moves"] for row in layers.values() for metric in row["metrics"]}
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        base = load_runs(args.base, workload, "e2e")
        change = load_runs(args.change, workload, "e2e")
        base_t = load_runs(args.base, workload, "trace")
        change_t = load_runs(args.change, workload, "trace")
        print(f"== {workload}: {len(base)} base runs, {len(change)} change runs")
        bad = False
        for side, runs in (("base", base + base_t), ("change", change + change_t)):
            if incorrect(runs):
                bad = True
                print(f"  INCORRECT {side} runs (seeds {incorrect(runs)}): not compared")
        failed |= bad
        if bad:
            continue
        if base and change:
            print(f"  {'metric':<14} {'base median [q1, q3]':>30} "
                  f"{'change median [q1, q3]':>30} {'ratio':>7} {'raw':>7} "
                  f"{'won':>5}  verdict")
            for metric in bench["end_to_end"]:
                name = metric["name"]
                higher = metric["better"] == "higher"
                b = values_by_seed(base, name)
                c = values_by_seed(change, name)
                ratio, won, text = verdict(b, c, metric["bound"], higher)
                raw_ratio = (statistics.median(raw_by_seed(change, name).values())
                             / statistics.median(raw_by_seed(base, name).values()))
                text = agree(text, raw_ratio, metric["bound"], higher)
                failed |= text == "regressed"
                bm, bq1, bq3, _ = spread(list(b.values()))
                cm, cq1, cq3, _ = spread(list(c.values()))
                print(f"  {name:<14} {bm:>12.5g} [{bq1:.5g}, {bq3:.5g}] "
                      f"{cm:>12.5g} [{cq1:.5g}, {cq3:.5g}] {ratio:>7.3f} "
                      f"{raw_ratio:>7.3f} {won:>5.0%}  {text} (bound {metric['bound']})")
        if base_t and change_t:
            print(f"  per layer (medians of {len(base_t)} / {len(change_t)} traced runs)")
            for metric in bench["per_layer"]:
                name = metric["name"]
                b = statistics.median(values_by_seed(base_t, name).values())
                c = statistics.median(values_by_seed(change_t, name).values())
                print(f"    {name:<26} {b:>11.5g} -> {c:<11.5g} "
                      f"delta {c - b:+.4g} {metric['unit']:<6} "
                      f"[{moves.get(name, '')}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
