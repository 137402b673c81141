"""Unit tests of compare.py's verdicts, on made-up result files."""

from __future__ import annotations

import compare

BENCHMARK = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]}


def result(ops_per_s: float, seed: int, failed: int = 0,
           participants_per_s: float = 0.0) -> dict:
    own = {"participants_per_s": {"value": participants_per_s,
                                  "unit": "1/s", "better": "higher",
                                  "bound": 0.1}} if participants_per_s else {}
    return {"workload": "w", "seed": seed, "size": "full", "trace": 0,
            "correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}},
            "workload_metrics": own, "sim_digest": "d",
            "finished_ns": seed}


def verdict_of(base, head, metric="ops_per_s"):
    rows = compare.verdicts(base, head, BENCHMARK)
    return next(row["verdict"] for row in rows if row["metric"] == metric)


def runs(values, **kwargs):
    return [result(value, seed, **kwargs) for seed, value in enumerate(values)]


BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_clear_gain_over_ten_pairs_is_improved():
    assert verdict_of(runs(BASE), runs([v * 1.3 for v in BASE])) == \
        "improved"


def test_a_gain_needs_ten_pairs():
    assert verdict_of(runs(BASE[:5]), runs([v * 1.3 for v in BASE[:5]])) \
        == "unchanged"


def test_loss_beyond_the_bound_is_worse():
    assert verdict_of(runs(BASE), runs([v * 0.7 for v in BASE])) == "worse"
    assert verdict_of(runs(BASE), runs([v * 0.9 for v in BASE])) == \
        "unchanged"


def test_failing_head_is_never_improved():
    head = runs([v * 1.3 for v in BASE])
    head[3] = result(13.0, 3, failed=2)
    assert verdict_of(runs(BASE), head) == "failed"


def test_workload_metrics_are_judged_with_their_own_bound():
    base = runs(BASE, participants_per_s=1000.0)
    head = runs(BASE, participants_per_s=850.0)
    assert verdict_of(base, head, "participants_per_s") == "worse"
    assert verdict_of(base, head) == "unchanged"
