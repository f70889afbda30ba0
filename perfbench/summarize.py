"""Median and quartiles of a set of benchmark runs, as a markdown table.

    python3 perfbench/summarize.py FIRST_SEED LAST_SEED

Reads perfbench/out/result-<workload>-seed<s>-trace0.json for every
workload in BENCHMARK.json and every seed in [FIRST_SEED, LAST_SEED]
(written by run.py), and prints per workload and end-to-end metric the
median, the first and third quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median against the metric's bound, and the share of
failed operations.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for w in (x["name"] for x in bench["workloads"]):
        runs = []
        for seed in range(first, last + 1):
            path = os.path.join(HERE, "out", f"result-{w}-seed{seed}-trace0.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    runs.append(json.load(fh))
        if len(runs) < 2:
            continue
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"| {w} | {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.3f} | {m['bound']} |")
        failed = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"| {w} | runs {len(runs)}, all correct: {correct}, "
              f"failed share: {sorted(failed)} | | | | | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
