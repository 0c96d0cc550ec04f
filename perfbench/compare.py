#!/usr/bin/env python3
"""Compares two sets of opprox_bench result files against BENCHMARK.json.

    python3 perfbench/compare.py --base base_results/ --head head_results/

Each side is a list of result files (or directories holding them), as
opprox_bench --out (and run.py, under .bench_build/results/) writes them.
For every (workload, end-to-end metric) it prints each side's median and
quartiles, the change of the medians, the pairwise wins of head over base
(runs paired in file-time order, so alternate the two sides when running
them), and a verdict:

  better      head wins at least 9 of 10 pairs and the medians differ by
              more than the base's own quartile spread
  worse       head's median is worse than base's by more than the bound
  unresolved  a side's spread, (q3 - q1) / median, exceeds the bound,
              unless every head run beats every base run
  same        otherwise

Exits 1 when any row is worse. Python 3 standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(paths):
    files = []
    for path in map(Path, paths):
        if path.is_dir():
            files += [p for p in path.glob("*.json")
                      if not p.name.endswith(".spans.json")]
        else:
            files.append(path)
    runs = {}
    for path in sorted(files, key=lambda p: p.stat().st_mtime):
        result = json.loads(path.read_text())
        if "workload" in result and "metrics" in result:
            runs.setdefault(result["workload"], []).append(result["metrics"])
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, head, better, bound):
    """Returns (verdict, relative change of medians, wins, pairs)."""
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = summary(base)
    h_q1, h_med, h_q3 = summary(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    change = (h_med - b_med) / b_med if b_med else 0.0
    all_better = all(sign * (h - b) > 0 for b in base for h in head)
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0,
                 (h_q3 - h_q1) / h_med if h_med else 0.0)
    if pairs and wins >= 0.9 * len(pairs) and \
            sign * (h_med - b_med) > (b_q3 - b_q1):
        return "better", change, wins, len(pairs)
    if spread > bound:
        return ("better" if all_better else "unresolved"), change, wins, \
            len(pairs)
    if -sign * change > bound:
        return "worse", change, wins, len(pairs)
    return "same", change, wins, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    base, head = load_runs(args.base), load_runs(args.head)
    header = (f"{'workload':<14} {'metric':<24} {'base median [q1, q3]':<34} "
              f"{'head median [q1, q3]':<34} {'change':>8} {'wins':>7}  "
              "verdict")
    print(header)
    print("-" * len(header))
    counts = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in head:
            print(f"{workload:<14} (missing on one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [m[name]["value"] for m in base[workload]
                 if m.get(name, {}).get("value") is not None]
            h = [m[name]["value"] for m in head[workload]
                 if m.get(name, {}).get("value") is not None]
            if not b or not h:
                print(f"{workload:<14} {name:<24} (no values)")
                continue
            result, change, wins, pairs = verdict(b, h, metric["better"],
                                                  metric["bound"])
            counts[result] = counts.get(result, 0) + 1
            b_q1, b_med, b_q3 = summary(b)
            h_q1, h_med, h_q3 = summary(h)
            print(f"{workload:<14} {name:<24} "
                  f"{f'{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]':<34} "
                  f"{f'{h_med:.6g} [{h_q1:.6g}, {h_q3:.6g}]':<34} "
                  f"{change * 100:>7.2f}% {f'{wins}/{pairs}':>7}  {result}")
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
