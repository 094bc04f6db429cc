"""Compare two sets of benchmark run records.

Each set is a directory of run records written by ``bench/run.py``
(searched recursively; only untraced runs count).  The report has one
row per workload and end-to-end metric: each side's median, quartiles
and run count, and a verdict.

* improved: the change wins at least nine tenths of the pairs (runs
  paired by seed, else by order; ties count for neither) and the
  medians differ by more than the parent's quartile spread;
* worse: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json;
* unresolved: the parent's quartile spread is wider than the bound and
  not every change run reads better than every parent run (a change
  whose every run is worse by more than the bound is still worse);
* unchanged: otherwise.

``fail_ratio`` (failed over attempted operations, summed over the runs)
gets its own row: worse whenever the change fails more often.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> dict:
    runs = defaultdict(list)
    for path in sorted(directory.rglob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _pairs(parent, change) -> list:
    """(parent value, change value) pairs, by seed where the seeds match."""
    by_seed = {seed: value for seed, value in change}
    common = [(value, by_seed[seed]) for seed, value in parent
              if seed in by_seed]
    if common:
        return common
    return list(zip((v for _, v in parent), (v for _, v in change)))


def verdict(parent, change, better: str, bound: float) -> tuple:
    """Verdict and pair win count for (seed, value) lists of each side."""
    sign = 1.0 if better == "lower" else -1.0
    p_vals = [v for _, v in parent]
    c_vals = [v for _, v in change]
    q1, p_med, q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    pairs = _pairs(parent, change)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0.0)
    gain = sign * (p_med - c_med)
    worse_share = -gain / abs(p_med) if p_med else 0.0
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", wins, len(pairs)
    all_better = all(sign * (p - c) > 0.0 for p in p_vals for c in c_vals)
    all_worse = all(sign * (c - p) > 0.0 for p in p_vals for c in c_vals)
    if p_med and (q3 - q1) / abs(p_med) > bound and not all_better:
        if all_worse and worse_share > bound:
            return "worse", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if worse_share > bound:
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def _predicted(predictions: dict, workload: str, metric: str) -> str:
    notes = []
    for item in predictions.get("items", []):
        if workload in item.get("on", ()) and metric in item.get("moves", {}):
            notes.append(f"item {item['item']}: {item['moves'][metric]}")
        elif workload in item.get("unchanged_on", ()):
            notes.append(f"item {item['item']}: no change")
    return "; ".join(notes)


def _fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(parent_dir: Path, change_dir: Path, spec_path: Path,
         predictions_path: Path) -> int:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    predictions = json.loads(predictions_path.read_text(encoding="utf-8"))
    parent, change = load(parent_dir), load(change_dir)
    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "wins", "verdict", "predicted")
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [(r["seed"], r["metrics"][name]["value"]) for r in p_runs]
            c = [(r["seed"], r["metrics"][name]["value"]) for r in c_runs]
            verdict_, wins, n = verdict(p, c, metric["better"],
                                        metric["bound"])
            rows.append((workload, f"{name} ({metric['unit']})",
                         _fmt([v for _, v in p]), _fmt([v for _, v in c]),
                         f"{wins}/{n}", verdict_,
                         _predicted(predictions, workload, name)))
        p_ratio = (sum(r["failed"] for r in p_runs)
                   / sum(r["attempted"] for r in p_runs))
        c_ratio = (sum(r["failed"] for r in c_runs)
                   / sum(r["attempted"] for r in c_runs))
        rows.append((workload, "fail_ratio", f"{p_ratio:.4g}",
                     f"{c_ratio:.4g}", "",
                     "worse" if c_ratio > p_ratio else
                     "improved" if c_ratio < p_ratio else "unchanged", ""))
    for workload in sorted(set(parent) ^ set(change)):
        rows.append((workload, "-", "", "", "", "unresolved",
                     "runs on one side only"))
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths))
              .rstrip())
    return 0
