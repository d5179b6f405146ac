#!/usr/bin/env python3
"""Runs alternating parent/change pairs of perfbench and compares them.

    python3 scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seconds S [--seed FIRST] [--trace 0|1]

PARENT_DIR and CHANGE_DIR are two checkouts (for example a `git archive` of
the parent commit and the working tree). Pair i runs both checkouts'
`perfbench/run.py` at seed FIRST + i, the parent first in even pairs and the
change first in odd ones, each with CARGO_TARGET_DIR set to its own
checkout's `.bench_build`. One untimed 1 s run per checkout comes first,
so that no pair pays for a build. Every run's end-to-end metrics are printed
as it finishes. Then, for each metric, the script prints each side's median and
quartiles, the number of pairs the change won (ties count for neither side)
and a verdict:

  gain       at least 10 pairs ran, the change won at least 9 of every 10
             and the medians differ by more than the parent's interquartile
             range;
  worse      (end-to-end metrics) the change's median is worse than the
             parent's by more than the metric's bound in BENCHMARK.json;
  unresolved (end-to-end metrics) neither, and the parent's interquartile
             range is wider than the bound, so the runs cannot rule out a
             regression;
  flat       anything else.

`cpu_us_per_op` is the CPU time (user + system) of the whole run.py child
tree, from getrusage(RUSAGE_CHILDREN), divided by the operations attempted.
It includes run.py's no-op rebuild check and the workload's set-ups.

Exits 1 if a run fails: a non-zero exit, no result line, or failed operations.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

CPU_METRIC = "cpu_us_per_op"


def child_cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(checkout, args, seed, seconds):
    """One perfbench run; returns (metrics by name, failure text or None)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / ".bench_build"))
    command = [sys.executable, str(checkout / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
    before = child_cpu_seconds()
    completed = subprocess.run(command, env=env, capture_output=True,
                               text=True)
    cpu = child_cpu_seconds() - before
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {}, "no result line\n" + completed.stderr[-2000:]
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    attempted = result.get("attempted", 0)
    if attempted:
        metrics[CPU_METRIC] = cpu * 1e6 / attempted
    if completed.returncode != 0 or result.get("failed", 0):
        return metrics, (f"exit {completed.returncode}, "
                         f"{result.get('failed')} of {attempted} ops failed")
    return metrics, None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent, change, wins, better, bound):
    """The choosing-metrics verdict of one metric over the pairs run."""
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, q3 = quartiles(parent)
    gap = (change_median - parent_median) * (1 if better == "higher" else -1)
    if len(parent) >= 10 and wins * 10 >= 9 * len(parent) and gap > q3 - q1:
        return "gain"
    if bound is None:
        return "flat"
    if -gap > bound * abs(parent_median):
        return "worse"
    if q3 - q1 > bound * abs(parent_median):
        return "unresolved"
    return "flat"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair (default 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better[CPU_METRIC] = "lower"

    for side, checkout in sides.items():
        _, failure = run_once(checkout, args, args.seed, seconds=1)
        if failure:
            print(f"warm-up {side} FAILED: {failure}")
            return 1

    runs = {"parent": [], "change": []}
    failed = False
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            metrics, failure = run_once(sides[side], args, seed, args.seconds)
            runs[side].append(metrics)
            shown = " ".join(f"{name}={metrics[name]:.6g}"
                             for name in [*bounds, CPU_METRIC]
                             if name in metrics)
            print(f"pair {pair + 1} {side} seed {seed}: {shown}", flush=True)
            if failure:
                failed = True
                print(f"  FAILED: {failure}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs x {args.seconds} s, "
          f"trace {args.trace}")
    print(f"{'metric':30} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    names = [name for name in runs["change"][0] if name in better]
    for name in names:
        if not all(name in m for side in runs.values() for m in side):
            continue
        parent = [m[name] for m in runs["parent"]]
        change = [m[name] for m in runs["change"]]
        sign = 1 if better[name] == "higher" else -1
        wins = sum((c - p) * sign > 0 for p, c in zip(parent, change))
        cells = []
        for values in (parent, change):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.6g} "
                         f"[{q1:.6g}, {q3:.6g}]")
        print(f"{name:30} {cells[0]:>32} {cells[1]:>32} "
              f"{wins:>3}/{args.pairs:<2}  "
              f"{verdict(parent, change, wins, better[name], bounds.get(name))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
