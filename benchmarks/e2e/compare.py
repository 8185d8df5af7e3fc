"""Compare two sets of end-to-end benchmark results (parent vs change).

Each directory holds ``result.json`` files written by ``run.py`` (one per
run, at any depth).  Runs are paired in path order, so alternate which
side runs first and name the run directories so that they sort in the
order they ran::

    python benchmarks/e2e/compare.py results/parent results/change

For every (metric, workload) it prints each side's median and quartiles,
the share of pairs the change won (ties count for neither side), and a
verdict, using the bounds and directions in ``BENCHMARK.json``:

- ``improved``: at least 10 pairs, the change won at least 9 in 10 of
  them, and the medians differ by more than the parent's interquartile
  spread;
- ``unresolved``: the parent's interquartile spread is wider than the
  bound, unless every change run beat every parent run;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``unchanged``: otherwise.

It exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Pairs needed before a gain may be claimed.
MIN_PAIRS = 10
#: Share of pairs the change must win to claim a gain.
MIN_WIN_FRACTION = 0.9


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """workload -> its per-run summaries, in path order."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(directory.rglob("result.json")):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        for name, summary in result["workloads"].items():
            runs[name].append(dict(summary, seed=result["seed"]))
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Tuple[str, float]:
    """The verdict for one (metric, workload) row and the change's win
    fraction over the pairs."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = p_q3 - p_q1
    allowed = bound * abs(p_med)
    all_better = (min(sign * c for c in change)
                  > max(sign * p for p in parent))
    gained = (len(pairs) >= MIN_PAIRS and wins >= MIN_WIN_FRACTION
              and sign * (c_med - p_med) > spread)
    if gained and (all_better or spread <= allowed):
        return "improved", wins
    if spread > allowed and not all_better:
        return "unresolved", wins
    if sign * (p_med - c_med) > allowed:
        return "regressed", wins
    return "unchanged", wins


def _fmt(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = [w for w in parent if w in change]
    if not workloads:
        print("no workload appears on both sides", file=sys.stderr)
        return 2

    header = (f"{'metric':<16}{'workload':<15}{'parent median [q1, q3]':>34}"
              f"{'change median [q1, q3]':>34}{'delta':>9}{'wins':>7}"
              "  verdict")
    print(header)
    print("-" * len(header))
    regressed = False
    for spec in metrics:
        for w in workloads:
            n = min(len(parent[w]), len(change[w]))
            p = [r["metrics"][spec["name"]] for r in parent[w][:n]]
            c = [r["metrics"][spec["name"]] for r in change[w][:n]]
            outcome, wins = verdict(p, c, spec["better"], spec["bound"])
            regressed |= outcome == "regressed"
            p_med = statistics.median(p)
            delta = (statistics.median(c) - p_med) / p_med * 100.0
            print(f"{spec['name']:<16}{w:<15}{_fmt(p):>34}{_fmt(c):>34}"
                  f"{delta:>+8.1f}%{wins:>7.2f}  {outcome}")
    print()
    for w in workloads:
        n = min(len(parent[w]), len(change[w]))
        if n < MIN_PAIRS:
            print(f"{w}: {n} pairs; a gain needs {MIN_PAIRS}")
        digests = defaultdict(set)
        for run in parent[w][:n] + change[w][:n]:
            digests[run["seed"]].add(run["result_digest"])
        same = all(len(d) == 1 for d in digests.values())
        print(f"{w}: result digests "
              + ("identical per seed" if same else "DIFFER for one seed"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
