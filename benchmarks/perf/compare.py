"""Compare two sets of benchmark results: BASE (parent) and HEAD (change).

    python benchmarks/perf/compare.py BASE HEAD

BASE and HEAD are result files written by run.py, or directories of them
(``<out>/results``). Run both sides with the same seeds, alternating
which side runs first; run ``i`` of BASE is paired with run ``i`` of
HEAD of the same workload, in the order they finished.

For every workload and metric the report gives each side's median and
quartiles, HEAD's wins over the pairs, and a verdict. The metrics are
the end-to-end metrics of the repository's BENCHMARK.json, plus the
workload's own metrics (``workload_metrics`` in its result files, with
their bounds).

* ``failed``: a HEAD run failed an output check, so its timings are not
  judged;
* ``improved``: there are at least ten pairs, HEAD wins at least nine
  tenths of them (ties count for neither side), and the medians differ
  by more than the distance between BASE's quartiles;
* ``worse``: HEAD's median is worse than BASE's by more than the
  metric's bound;
* ``unresolved``: BASE's own quartile spread is wider than the bound,
  and not every HEAD run beats every BASE run;
* ``unchanged``: otherwise.

It also reports whether ``sim_digest`` matches for every seed both
sides ran, and the per-layer counts (unit ``count``) that differ
between the sides' traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

#: A gain needs at least this many BASE/HEAD pairs.
MIN_PAIRS = 10


def load_results(path: Path) -> List[dict]:
    """Result dicts from a file or a directory, in finishing order."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = [json.loads(file.read_text()) for file in files]
    return sorted(results, key=lambda result: result["finished_ns"])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base: Sequence[float], head: Sequence[float], better: str,
          bound: float) -> Tuple[str, int, int]:
    """``(verdict, HEAD wins, pairs)`` for one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles(base)
    head_median = statistics.median(head)
    gain = sign * (head_median - base_median)
    pairs = list(zip(base, head))
    wins = sum(sign * (h - b) > 0 for b, h in pairs)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) \
            and gain > q3 - q1:
        verdict = "improved"
    elif -gain > bound * abs(base_median):
        verdict = "worse"
    elif q3 - q1 > bound * abs(base_median) and not all(
            sign * (h - b) > 0 for b in base for h in head):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return verdict, wins, len(pairs)


def _by_workload(results: List[dict], traced: bool) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = {}
    for result in results:
        if bool(result["trace"]) == traced:
            out.setdefault(result["workload"], []).append(result)
    return out


def _judged(benchmark: dict, result: dict) -> List[Tuple[str, str, str,
                                                        float]]:
    """``(section, name, better, bound)`` of each metric a workload has."""
    return [("metrics", metric["name"], metric["better"], metric["bound"])
            for metric in benchmark["end_to_end"]] + [
        ("workload_metrics", name, metric["better"], metric["bound"])
        for name, metric in sorted(result["workload_metrics"].items())]


def verdicts(base: List[dict], head: List[dict],
             benchmark: dict) -> List[dict]:
    """One row per workload and metric that both sides ran untraced."""
    rows = []
    base_runs, head_runs = _by_workload(base, False), _by_workload(head, False)
    for workload in sorted(set(base_runs) & set(head_runs)):
        b_runs, h_runs = base_runs[workload], head_runs[workload]
        # Ops that raise or fail a check leave the timings, so a failing
        # HEAD can look faster than it is.
        failing = not all(run["correct"] for run in h_runs)
        for section, name, better, bound in _judged(benchmark, b_runs[0]):
            b = [run[section][name]["value"] for run in b_runs]
            h = [run[section][name]["value"] for run in h_runs]
            verdict, wins, pairs = judge(b, h, better, bound)
            rows.append({"workload": workload, "metric": name,
                         "base": quartiles(b), "head": quartiles(h),
                         "wins": wins, "pairs": pairs,
                         "verdict": "failed" if failing else verdict})
    return rows


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(base: List[dict], head: List[dict], benchmark: dict) -> str:
    lines = [f"{'workload':<15} {'metric':<18} {'BASE median [q1, q3]':<30}"
             f" {'HEAD median [q1, q3]':<30} {'change':>8} "
             f"{'wins':>7}  verdict"]
    for row in verdicts(base, head, benchmark):
        bq, hq = row["base"], row["head"]
        change = (hq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
        lines.append(
            f"{row['workload']:<15} {row['metric']:<18} {_cell(bq):<30} "
            f"{_cell(hq):<30} {change:>+7.2f}% "
            f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
    base_runs, head_runs = _by_workload(base, False), _by_workload(head, False)
    for workload in sorted(set(base_runs) ^ set(head_runs)):
        lines.append(f"{workload}: untraced runs on one side only")

    lines.append("")
    for side, results in (("BASE", base), ("HEAD", head)):
        for result in results:
            if result["failed"]:
                lines.append(f"{side} {result['workload']} seed "
                             f"{result['seed']}: {result['failed']} of "
                             f"{result['attempted']} ops failed")

    digests: Dict[str, Dict[tuple, Tuple[set, set]]] = {}
    for side, results in ((0, base), (1, head)):
        for result in results:
            key = (result["seed"], result["trace"], result["size"])
            pair = digests.setdefault(result["workload"], {}).setdefault(
                key, (set(), set()))
            pair[side].add(result["sim_digest"])
    for workload, keys in sorted(digests.items()):
        common = {key: pair for key, pair in keys.items()
                  if pair[0] and pair[1]}
        differ = sorted(key[0] for key, (b, h) in common.items() if b != h)
        if not common:
            state = "no run with the same seed and size on both sides"
        elif differ:
            state = f"DIFFERENT for seeds {differ}"
        else:
            state = f"identical over {len(common)} seed/mode pairs"
        lines.append(f"sim_digest {workload}: {state}")

    lines.append("")
    base_traced, head_traced = _by_workload(base, True), _by_workload(head, True)
    for workload in sorted(set(base_traced) & set(head_traced)):
        b, h = base_traced[workload][-1], head_traced[workload][-1]
        diffs = [(name, value["value"], h["metrics"][name]["value"])
                 for name, value in b["metrics"].items()
                 if value["unit"] == "count" and name in h["metrics"]
                 and h["metrics"][name]["value"] != value["value"]]
        if not diffs:
            lines.append(f"counts {workload}: identical")
        for name, before, after in diffs:
            delta = (after - before) / before * 100 if before else float("inf")
            lines.append(f"counts {workload} {name}: {before:.0f} -> "
                         f"{after:.0f} ({delta:+.1f}%)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="parent's results")
    parser.add_argument("head", type=Path, help="change's results")
    args = parser.parse_args(argv)
    print(compare(load_results(args.base), load_results(args.head),
                  json.loads(BENCHMARK.read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
