"""``run.py --compare A B``: one row per (workload, end-to-end metric).

``A`` and ``B`` are JSON-lines files written by ``run.py --record``
(typically A on the parent commit, B on the change, several seeds
each).  Each row shows both sides' quartiles and B's change against A's
median, labelled by the rule of the benchmark's bound:

* ``unresolved``: either side's quartile spread exceeds the bound, and
  the runs of the two sides overlap;
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better than A's by more than A's own spread;
* ``unchanged``: neither.
"""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.stats import quartiles, spread


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over a file's untraced runs."""
    values: dict[tuple[str, str], list[float]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"])
    return values


def classify(a: list[float], b: list[float], better: str,
             bound: float) -> tuple[float, str]:
    """B's relative change against A's median, and the row's label."""
    sign = 1.0 if better == "lower" else -1.0
    base = quartiles(a)[1]
    change = (quartiles(b)[1] - base) / base
    worse_by = sign * change
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return change, "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return change, "worse"
        return change, "unresolved"
    if worse_by > bound:
        return change, "worse"
    if -worse_by > spread(a):
        return change, "better"
    return change, "unchanged"


def compare(path_a: Path, path_b: Path, spec: dict) -> str:
    """The comparison table as text."""
    a, b = load(path_a), load(path_b)
    workloads = [w["name"] for w in spec["workloads"]]
    header = (f"{'workload':18s} {'metric':16s} {'unit':9s} "
              f"{'A q1 / median / q3 (n)':>34s} "
              f"{'B q1 / median / q3 (n)':>34s} {'change':>8s} "
              f"{'bound':>6s}  label")
    rows = [header, "-" * len(header)]

    def cell(values: list[float]) -> str:
        q1, q2, q3 = quartiles(values)
        return f"{q1:.4g} / {q2:.4g} / {q3:.4g} ({len(values)})"

    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            change, label = classify(a[key], b[key], metric["better"],
                                     metric["bound"])
            rows.append(
                f"{workload:18s} {metric['name']:16s} {metric['unit']:9s} "
                f"{cell(a[key]):>34s} {cell(b[key]):>34s} "
                f"{change:+8.1%} {metric['bound']:6.0%}  {label}")
    return "\n".join(rows)
