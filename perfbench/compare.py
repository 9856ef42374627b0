"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

A result set is the file that `run.py --results FILE` appends to, one JSON
line per run.  For every workload and every end-to-end metric of
BENCHMARK.json the table gives each side's median and quartiles over its
runs (statistics.quantiles, n=4), the spread (interquartile distance over
the median), the change of the median, and a verdict:

  within bound   the change's median is no worse than the base's by more
                 than the metric's bound;
  REGRESSION     it is worse by more than the bound;
  unresolved     the base's own spread is wider than the bound, so only a
                 change whose every run beats every base run would count;
  better         the change's median is better and the change wins at least
                 nine tenths of the seed-paired runs.

Runs are paired by seed for the win count.  Only untraced runs are read.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """{workload: [record, ...]} for the untraced runs in one result file."""
    sets: dict = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    sets.setdefault(record["workload"], []).append(record)
    return sets


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(metric: dict, base: list, change: list) -> tuple[str, str]:
    """(relative change of the median, verdict); `base` and `change` hold
    (seed, value) pairs."""
    sign = 1 if metric["better"] == "lower" else -1
    bq1, bmed, bq3 = summary([v for _, v in base])
    _, cmed, _ = summary([v for _, v in change])
    worse = sign * (cmed - bmed) / bmed
    by_seed = dict(base)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    spread = (bq3 - bq1) / bmed
    if worse > metric["bound"]:
        label = "REGRESSION"
    elif worse < 0 and pairs and wins >= 0.9 * len(pairs) and -worse > spread:
        label = f"better ({wins}/{len(pairs)} wins)"
    elif spread > metric["bound"] and not all(
        sign * (b - c) > 0 for b in (v for _, v in base) for c in (v for _, v in change)
    ):
        label = "unresolved"
    else:
        label = "within bound"
    return f"{(cmed - bmed) / bmed:+.1%}", label


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sides = [load(path) for path in argv]
    names = ("base", "change")
    row = "{:<9} {:<15} {:<5} {:<6} {:>4} {:>11} {:>11} {:>11} {:>7}  {}"
    print(row.format("workload", "metric", "unit", "side", "runs", "q1", "median", "q3",
                     "spread", "change vs bound"))
    for workload in sorted(set().union(*sides)):
        runs_by_side = [s.get(workload, []) for s in sides]
        for side, runs in zip(names, runs_by_side):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(row.format(workload, "error_rate", "", side, len(runs), "", "", "", "",
                             f"{failed} of {attempted} jobs failed"))
        for metric in metrics:
            name = metric["name"]
            columns = []
            for side, runs in zip(names, runs_by_side):
                values = [(r["provenance"]["seed"], r["metrics"][name]["value"]) for r in runs]
                if not values:
                    continue
                columns.append(values)
                q1, med, q3 = summary([v for _, v in values])
                note = ""
                if len(columns) == 2:
                    change, label = verdict(metric, columns[0], columns[1])
                    note = f"{change} (bound {metric['bound']:.0%}) {label}"
                print(row.format(workload, name, metric["unit"], side, len(values),
                                 f"{q1:.6g}", f"{med:.6g}", f"{q3:.6g}",
                                 f"{(q3 - q1) / med:.1%}", note))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
