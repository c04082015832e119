"""Compare two result files written by ``run.py --out``.

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Each file holds one JSON line per untraced run. Runs pair up in file order
within a workload, so record them alternating parent and change. One row per
workload x end-to-end metric gives each side's median and quartiles, the
ratio change/parent, the pairs the change won, and a verdict:

* ``gain``: the change won at least 9/10 of the pairs and the medians differ
  by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's own spread exceeds the bound, and not every
  change run beats every parent run;
* ``same``: none of the above.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            run = json.loads(line)
            if run.get("trace") == 0:
                runs.setdefault(run["workload"], []).append(run)
    return runs


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int, int]:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_med, p_q1, p_q3 = spread(parent)
    c_med = spread(change)[0]
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "worse", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if pairs and wins >= WIN_SHARE * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain", wins, len(pairs)
    return "same", wins, len(pairs)


def main(parent_path, change_path) -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':15s} {'metric':14s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':33s} {'ratio':>7s} {'wins':>6s}  verdict")
    worse = False
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in parent or name not in change:
            print(f"{name:15s} missing from {'parent' if name not in parent else 'change'}")
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            p = [r["metrics"][key]["value"] for r in parent[name] if key in r["metrics"]]
            c = [r["metrics"][key]["value"] for r in change[name] if key in r["metrics"]]
            if not p or not c:
                continue
            v, wins, n = verdict(p, c, metric["better"], metric["bound"])
            worse |= v == "worse"
            pm, pq1, pq3 = spread(p)
            cm, cq1, cq3 = spread(c)
            ratio = cm / pm if pm else float("inf")
            parent_cell = f"{pm:.5g} [{pq1:.5g}, {pq3:.5g}]"
            change_cell = f"{cm:.5g} [{cq1:.5g}, {cq3:.5g}]"
            print(f"{name:15s} {key:14s} {parent_cell:34s} {change_cell:33s} {ratio:7.4f} {wins:>2d}/{n:<3d}  {v}")
    return 1 if worse else 0
