"""Smoke test of the repository benchmark (benchmarks/perf/run.py).

Runs every workload at ``--size smoke`` three times at once: one
untraced run and two traced runs, each ``run.py`` in its own process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def start_bench(out: Path, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--size", "smoke",
         "--out", str(out), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen) -> str:
    stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr
    return stdout


def results(out: Path) -> dict:
    """Workload name -> the result file run.py wrote under ``out``."""
    found = {}
    for path in (out / "results").glob("*.json"):
        result = json.loads(path.read_text())
        found[result["workload"]] = result
    return found


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    outs = [tmp_path_factory.mktemp(name)
            for name in ("untraced", "traced_a", "traced_b")]
    procs = [start_bench(outs[0]),
             start_bench(outs[1], "--trace", "1"),
             start_bench(outs[2], "--trace", "1")]
    stdout = [finish(proc) for proc in procs]
    return {"final": json.loads(stdout[0].splitlines()[-1]),
            "untraced": results(outs[0]),
            "traced": [results(outs[1]), results(outs[2])]}


def test_every_metric_is_printed_with_its_unit(runs):
    final = runs["final"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    for workload in WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            printed = final["metrics"][f"{workload}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert printed["value"] > 0
        assert set(runs["untraced"][workload]["metrics"]) == \
            {metric["name"] for metric in BENCHMARK["end_to_end"]}
        traced = runs["traced"][0][workload]["metrics"]
        assert set(traced) == {m["name"] for m in BENCHMARK["per_layer"]}
        for metric in BENCHMARK["per_layer"]:
            assert traced[metric["name"]]["unit"] == metric["unit"]
    study = runs["untraced"]["campaign_study"]["workload_metrics"]
    assert set(study) == {"conditions_per_s", "participants_per_s"}
    assert all(metric["value"] > 0 and metric["unit"] == "1/s"
               for metric in study.values())


def test_output_checks_pass(runs):
    assert runs["final"]["correct"]
    for result in [*runs["untraced"].values(), *runs["traced"][0].values()]:
        assert result["correct"], result["workload"]
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_traced_runs_repeat_exactly(runs):
    first, second = runs["traced"]
    for workload in WORKLOADS:
        a, b = first[workload], second[workload]
        # Smoke runs trace every op, so the digests match the untraced run.
        assert a["sim_digest"] == b["sim_digest"] == \
            runs["untraced"][workload]["sim_digest"]
        calls = [name for name in a["metrics"] if name.endswith(".calls")]
        assert calls
        assert [a["metrics"][name]["value"] for name in calls] == \
            [b["metrics"][name]["value"] for name in calls]


@pytest.mark.parametrize("option, value", [
    ("--workloads", "no_such_workload"),
    ("--workload", "no_such_workload"),
    # The op counts are sized for run_seconds; no other length exists.
    ("--seconds", "5"),
])
def test_bad_arguments_are_rejected(tmp_path, option, value):
    proc = start_bench(tmp_path, option, value)
    stdout, stderr = proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert value in stderr
    assert not stdout.strip()
