"""Summarise benchmark runs, or compare a base and a change.

    python3 perfbench/compare.py base.jsonl [change.jsonl]

Each file holds the stdout of runs of one workload (only lines with a
"metrics" key are read).  For every metric it prints the median, the
quartiles and the spread (the interquartile range as a share of the median,
from ``statistics.quantiles(values, n=4)``).  Given a second file it adds the
change of the median as a share of the base median, and marks an end-to-end
metric REGRESSED when the change is worse than its bound in BENCHMARK.json,
or UNRESOLVED when the base spread alone is wider than the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """Metric name -> list of values, over the result lines of the file."""
    values: dict = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        for name, m in doc.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    return values


def summary(values: list) -> tuple:
    """(median, q1, q3, spread)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(name: str, base: list, change: list, bounds: dict) -> str:
    if name not in bounds:
        return ""
    bound, better = bounds[name]
    b, c = summary(base)[0], summary(change)[0]
    worse = (c - b) / b if better == "lower" else (b - c) / b
    if worse > bound:
        return "REGRESSED"
    if summary(base)[3] > bound:
        return "UNRESOLVED"
    return "ok"


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    runs = [load(p) for p in argv]
    for name in sorted(runs[0]):
        med, q1, q3, spread = summary(runs[0][name])
        line = f"{name:40s} n={len(runs[0][name]):<3d} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f}"
        if len(runs) == 2 and name in runs[1]:
            change = summary(runs[1][name])[0]
            share = (change - med) / med if med else 0.0
            line += f"  change {share:+7.3f} {verdict(name, runs[0][name], runs[1][name], bounds)}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
