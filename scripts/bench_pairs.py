"""Alternating pairs of benchmark runs of two checkouts, and the gain rule.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload twist-h1 --pairs 10 \\
        [--seconds 30] [--seed 11]

PARENT and CHANGE are checkouts of the repository, such as fresh ``git
archive`` copies of two commits.  Each run is that checkout's own
``perfbench/run.py``, with the checkout as working directory.  Pair i runs
both sides at seed SEED + i, and the side that runs first alternates,
parent first in pair 0.

For each end-to-end metric of ``BENCHMARK.json`` the script prints each
side's median and quartiles, the change's relative move, how many pairs
the change won (ties count for neither side), whether the move stays
within the metric's bound, and whether a gain may be claimed: the change
wins at least nine tenths of the pairs and the medians differ, in its
favour, by more than the parent's interquartile range.  A metric is
unresolved where the parent's interquartile range is wider than the
bound times the parent's median, unless every change run reads better
than every parent run; its bound column then reads UNRESOLVED in place
of ok or WORSE.  The last line of standard output is one JSON object
with every run's metrics and the summaries.  The exit code is nonzero
when any run was not correct or had failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolating between
    order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The gain rule, the bound and whether the parent's spread resolves the
    bound on one metric, from its values in pair order: parent[i] and
    change[i] were measured in pair i."""
    lower = better == "lower"
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    gain = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
    beats_every_run = max(change) < min(parent) if lower else min(change) > max(parent)
    return {
        "parent": pq,
        "change": cq,
        "change_pct": 100.0 * (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "within_bound": -gain <= bound * abs(pq[1]),
        "resolved": pq[2] - pq[0] <= bound * abs(pq[1]) or beats_every_run,
        "gain_holds": wins >= 0.9 * len(parent) and gain > pq[2] - pq[0],
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["correct"] = result["correct"] is True and proc.returncode == 0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            runs[side].append({"seed": seed, "first": order[0], **result})
            print(f"pair {i} seed {seed} {side}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summaries = {}
    print(f"{'metric':<28} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'move':>8} {'wins':>6}  {'bound':<10}  gain")
    every_run = runs["parent"] + runs["change"]
    for name in every_run[0]["metrics"] if every_run else ():
        spec = next((m for m in metrics if m["name"] == name.rsplit(".", 1)[-1]), None)
        if spec is None or any(name not in run["metrics"] for run in every_run):
            continue
        parent, change = ([run["metrics"][name]["value"] for run in runs[side]]
                          for side in ("parent", "change"))
        s = summaries[name] = summarize(parent, change, spec["better"], spec["bound"])
        label = name if "." in name else f"{args.workload}.{name}"
        verdict = ("ok" if s["within_bound"] else "WORSE") if s["resolved"] else "UNRESOLVED"
        print(f"{label:<28} {'%.4g [%.4g, %.4g]' % (s['parent'][1], s['parent'][0], s['parent'][2]):>32} "
              f"{'%.4g [%.4g, %.4g]' % (s['change'][1], s['change'][0], s['change'][2]):>32} "
              f"{s['change_pct']:>+7.2f}% {s['wins']:>3}/{s['pairs']:<2}  "
              f"{verdict:<10}  {'holds' if s['gain_holds'] else 'no'}")
    bad = [f"{side} pair {i}" for side in runs for i, run in enumerate(runs[side])
           if not run["correct"] or run["failed"]]
    for what in bad:
        print(f"RUN FAILED: {what}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "runs": runs,
                      "summaries": summaries}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
