"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py perfbench/runs/history.jsonl

Each file holds the lines ``run.py`` appends to its history.  Given one
file, the runs are grouped by the digest of the measured sources and
the last two groups are compared (older = parent).  For every workload
and every metric it prints each side's median, quartiles and run count,
the change in the median, and a verdict:

* ``unresolved`` -- either side's spread (quartile distance over the
  median) exceeds the metric's bound, and the runs do not separate
  (not every change run beats every parent run);
* ``REGRESSED`` -- the change's median is worse than the parent's by
  more than the bound;
* ``improved`` -- better by more than the parent's own spread, winning
  at least nine tenths of the run pairs (runs paired in order);
* ``unchanged`` -- otherwise.

End-to-end bounds and directions come from ``BENCHMARK.json``; the
per-layer metrics have no bound there, so ``PER_LAYER_BOUND`` stands in
for the spread test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PER_LAYER_BOUND = 0.25


def load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def split_versions(runs: list[dict]) -> tuple[list[dict], list[dict]]:
    """The runs of the last two code versions in one history."""
    order: list[tuple] = []
    groups: dict[tuple, list[dict]] = {}
    for run in runs:
        key = (run.get("src_digest"), run.get("git_sha"))
        if key not in groups:
            order.append(key)
            groups[key] = []
        groups[key].append(run)
    if len(order) < 2:
        sys.exit("error: the history holds runs of only one code version")
    return groups[order[-2]], groups[order[-1]]


def metric_specs(path: str) -> dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        bench = json.load(handle)
    specs = {m["name"]: dict(m) for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        specs[m["name"]] = {**m, "bound": PER_LAYER_BOUND}
    return specs


def by_workload(runs: list[dict]) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        metrics = out.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    separated = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if max(spread(parent), spread(change)) > bound and not separated:
        return "unresolved"
    if gain < -bound:
        return "REGRESSED"
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if gain > spread(parent) and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def compare(parent_runs: list[dict], change_runs: list[dict],
            specs: dict[str, dict]) -> list[str]:
    lines = []
    parent, change = by_workload(parent_runs), by_workload(change_runs)
    header = (f"{'metric':30s} {'parent median [q1, q3] n':>36s} "
              f"{'change median [q1, q3] n':>36s} {'delta':>8s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        lines += ["", f"== {workload}", header]
        for name, spec in specs.items():
            if name not in parent[workload] or name not in change[workload]:
                continue
            p, c = parent[workload][name], change[workload][name]
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / abs(pq[1]) * 100 if pq[1] else 0.0
            lines.append(
                f"{name:30s} {pq[1]:12.5g} [{pq[0]:.4g}, {pq[2]:.4g}] {len(p):2d}"
                f"  {cq[1]:12.5g} [{cq[0]:.4g}, {cq[2]:.4g}] {len(c):2d}"
                f" {delta:+7.1f}%  {verdict(p, c, spec['better'], spec['bound'])}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("files", nargs="+", help="PARENT CHANGE, or one history file")
    parser.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    if len(args.files) == 1:
        parent, change = split_versions(load_runs(args.files[0]))
    elif len(args.files) == 2:
        parent, change = load_runs(args.files[0]), load_runs(args.files[1])
    else:
        parser.error("give PARENT CHANGE, or one history file")
    print("\n".join(compare(parent, change, metric_specs(args.bench))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
