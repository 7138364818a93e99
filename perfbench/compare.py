"""Compare two sets of benchmark records (``run.py --out``): parent and
change.

Each workload gets its own rows.  Per end-to-end metric the table shows
both medians with their quartiles, the change's delta from the parent
median, and a verdict against the bound ``BENCHMARK.json`` fixes:

* ``worse``      — the change's median is worse by more than the bound;
* ``unresolved`` — the parent's own spread (quartile distance over
  median) is wider than the bound and not every change run beats every
  parent run, so the difference cannot be told from noise;
* ``better``     — the change wins at least 9 of 10 run pairs and its
  median is better by more than the parent's spread;
* ``unchanged``  — none of the above.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

__all__ = ["compare", "load_records", "verdict"]


def load_records(path: str) -> list:
    """Records from one ``--out`` file or a directory of them."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    records = []
    for f in files:
        with open(f) as fh:
            records.append(json.load(fh))
    return records


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    spread = (q3 - q1) / abs(med_p) if med_p else 0.0
    gain = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    if gain < -bound:
        return "worse"
    all_better = min(sign * c for c in change) > max(sign * p
                                                     for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    wins = sum(sign * c > sign * p for c in change for p in parent)
    if gain > spread and wins >= 0.9 * len(change) * len(parent):
        return "better"
    return "unchanged"


def compare(parent_path: str, change_path: str, benchmark_json: str) -> str:
    with open(benchmark_json) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sides = [load_records(parent_path), load_records(change_path)]
    by_workload: dict = {}
    for i, records in enumerate(sides):
        for rec in records:
            if rec["provenance"]["trace"]:
                continue
            w = rec["provenance"]["workload"]
            runs = by_workload.setdefault(w, ({}, {}))[i]
            for name, m in rec["metrics"].items():
                runs.setdefault(name, []).append(m["value"])

    lines = [f"{'workload':8s} {'metric':30s} {'parent median [q1, q3]':>34s}"
             f" {'change median [q1, q3]':>34s} {'delta':>8s}  verdict"]
    for w in sorted(by_workload):
        parent, change = by_workload[w]
        for name, m in spec.items():
            if name not in parent or name not in change:
                continue
            p, c = parent[name], change[name]
            med_p, med_c = statistics.median(p), statistics.median(c)
            delta = (med_c - med_p) / abs(med_p) if med_p else 0.0
            cells = []
            for vals, med in ((p, med_p), (c, med_c)):
                q1, q3 = _quartiles(vals)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(vals)}")
            lines.append(
                f"{w:8s} {name:30s} {cells[0]:>34s} {cells[1]:>34s} "
                f"{delta:+8.2%}  "
                f"{verdict(p, c, m['better'], m['bound'])}")
    return "\n".join(lines)
