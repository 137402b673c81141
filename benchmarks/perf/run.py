"""Repository benchmark: five closed-loop workloads, one command.

    python benchmarks/perf/run.py [--workloads NAME[,NAME...]|all]
        [--seed N] [--trace [0|1]] [--size full|smoke] [--out DIR]

Each workload runs in a fresh interpreter, so its set-up time and peak
memory belong to it alone. With ``--trace 0`` (the default) a run prints
the end-to-end metrics; with ``--trace 1`` it runs the first third of
the same ops twice, untraced and then under ``cProfile`` plus span
wrappers, and prints the per-layer metrics. Every run checks the
simulator's outputs and prints a ``sim_digest`` that a speed-only change
must leave unchanged.

Each workload does a fixed number of ops, sized for BENCHMARK.json's
``run_seconds``. ``--seconds`` is accepted only with that value, so a
caller that asks for another run length is refused rather than
silently measured for a different one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (name ->
``{"value", "unit"}``); with several workloads the metric names are
prefixed with the workload's. Full results go to
``<out>/results/<workload>-seed<N>-trace<T>-<time>.json`` and spans to
``<out>/trace/<workload>.spans.jsonl``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

WORKLOADS = ("paper_grid", "quic_heavy", "tcp_heavy", "impaired_split",
             "campaign_study")

#: Set-up is repeated this many times per run; ``setup_s`` is the
#: import time plus the median repetition.
SETUP_REPEATS = 3
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170
#: Worker exit code for "ran to the end, but an output check failed".
EXIT_INCORRECT = 3

Metrics = Dict[str, Tuple[float, str]]


def _workload_list(text: str) -> List[str]:
    names = list(WORKLOADS) if text == "all" else \
        [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {unknown}; choose from "
            f"{', '.join(WORKLOADS)} or all")
    return names


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    # The singular spelling is the one benchmark drivers pass.
    parser.add_argument(
        "--workloads", "--workload", dest="workloads", default="all",
        type=_workload_list, metavar="NAMES",
        help=f"comma-separated workloads or 'all' (default). "
             f"Known: {', '.join(WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0)")
    parser.add_argument("--seconds", type=float,
                        help=f"must be {RUN_SECONDS}, BENCHMARK.json's "
                             f"run_seconds, which the op counts are "
                             f"sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): traced run printing the "
                             "per-layer metrics")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a few ops per workload, for tests")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for results, spans and scratch "
                             "files (default: out/ beside this script)")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds not in (None, RUN_SECONDS):
        parser.error(f"--seconds {args.seconds:g}: the workloads are sized "
                     f"for {RUN_SECONDS} s; use --size smoke for a short run")
    if args.worker and len(args.workloads) != 1:
        parser.error("a worker runs exactly one workload")
    return args


# -- parent process: one worker per workload ----------------------------------


def spawn_worker(name: str, args: argparse.Namespace) -> Optional[dict]:
    """Run one workload in a fresh interpreter; its result, or None."""
    command = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--workloads", name, "--seed", str(args.seed),
               "--trace", str(args.trace),
               "--size", args.size, "--out", str(args.out.resolve())]
    # The simulator comes from this checkout only. A fixed hash seed
    # keeps the traced call counts identical from run to run.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # Take the worker and its campaign pool down together.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{name}: worker did not finish in {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode not in (0, EXIT_INCORRECT) or not lines:
        print(f"{name}: worker exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print(f"{name}: worker printed no result", file=sys.stderr)
        return None


def drive(args: argparse.Namespace) -> int:
    results = []
    for name in args.workloads:
        result = spawn_worker(name, args)
        if result is None:
            return 2
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{result['workload']}.{metric}": value
                   for result in results
                   for metric, value in result["metrics"].items()}
    summary = {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


# -- worker -------------------------------------------------------------------


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A beta-weighted mean of all order statistics: op times cluster by
    grid cell, and a single order statistic jumps between clusters
    when host noise reorders the ops near the quantile.
    """
    import numpy as np
    from scipy.stats import beta

    if not values:
        return 0.0
    ordered = np.sort(values)
    n = len(ordered)
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, q * (n + 1),
                               (1 - q) * (n + 1)))
    return float(weights @ ordered)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, ops, import_s: float, work_dir: Path):
    """End-to-end metrics of one untraced pass."""
    from tracing import NullTracer

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ready = workload.setup()
        setups.append(time.perf_counter() - start)
    gc.collect()
    outcome = workload.run(ops, ready, NullTracer(), work_dir)
    metrics: Metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (len(outcome.op_ms) / outcome.wall_s
                      if outcome.wall_s else 0.0, "1/s"),
        "op_ms_p50": (quantile(outcome.op_ms, 0.5), "ms"),
        "op_ms_p90": (quantile(outcome.op_ms, 0.9), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return outcome, metrics, {"wall_s": outcome.wall_s,
                              "ops": len(outcome.op_ms)}


def traced_run(workload, ops, out_dir: Path, work_dir: Path):
    """Per-layer metrics: the same ops untraced, then traced."""
    import workloads
    from tracing import (
        BOUNDARIES,
        LAYERS,
        NullTracer,
        Tracer,
        profile_breakdown,
    )

    ready = workload.setup()
    gc.collect()
    # Campaigns run inline in both passes, so every span lands in this
    # process and the overhead ratio compares like with like.
    reference = workload.run(ops, ready, NullTracer(), work_dir, inline=True)
    tracer = Tracer()
    workloads.install_trace_points(tracer)
    gc.collect()
    try:
        traced = workload.run(ops, ready, tracer, work_dir, inline=True,
                              replay=False)
    finally:
        tracer.unpatch()
    traced_wall = tracer.measured_s
    tracer.write(out_dir / "trace" / f"{workload.name}.spans.jsonl")
    if traced.digest.hexdigest() != reference.digest.hexdigest():
        traced.fail("traced outputs differ from the untraced pass")
    traced.failed += reference.failed

    self_s, calls, counts = profile_breakdown(tracer.profile)
    metrics: Metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    for name in BOUNDARIES:
        metrics[name] = (counts[name], "count")
    events = counts["netem.engine.events"]
    frames = counts["transport.quic.ack_frames"]
    metrics["netem.engine.host_us_per_event"] = (
        reference.wall_s / events * 1e6 if events else 0.0, "us")
    metrics["transport.quic.range_adds_per_ack_frame"] = (
        counts["transport.ranges.adds"] / frames if frames else 0.0, "ratio")

    loads = tracer.load_results
    sent = sum(r.transport.packets_or_segments_sent for r in loads)
    metrics["transport.retransmit_share"] = (
        sum(r.transport.retransmissions for r in loads) / sent
        if sent else 0.0, "ratio")
    metrics["browser.timeout_share"] = (
        sum(not r.completed for r in loads) / len(loads)
        if loads else 0.0, "ratio")

    simulate = tracer.total("produce_summary")
    store = tracer.total("RecordingCache.store")
    append = tracer.total("append_record")
    metrics["testbed.simulate_s"] = (simulate, "s")
    metrics["testbed.cache_store_s"] = (store, "s")
    metrics["testbed.manifest_append_s"] = (append, "s")
    metrics["testbed.orchestration_s"] = (
        tracer.total("Campaign.run") - simulate - store - append, "s")
    metrics["testbed.resume_s"] = (
        reference.totals.get("resume_s", 0.0), "s")
    metrics["study.index_s"] = (tracer.total("ConditionIndex.from_pairs"),
                                "s")
    metrics["study.build_partial_s"] = (tracer.total("build_partial"), "s")
    metrics["study.build_report_s"] = (tracer.total("build_report"), "s")
    metrics["trace_overhead_x"] = (
        traced.wall_s / reference.wall_s if reference.wall_s else 0.0, "x")
    metrics["trace.wall_s"] = (traced_wall, "s")
    extra = {"wall_s": traced_wall, "ops": len(traced.op_ms),
             "self_s_share_of_wall": sum(self_s.values()) / traced_wall,
             "spans": len(tracer.spans)}
    return traced, metrics, extra


def environment() -> Dict[str, object]:
    from repro.testbed.harness import SIM_BEHAVIOUR_VERSION
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(),
            "sim_behaviour": SIM_BEHAVIOUR_VERSION}


def worker(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    import workloads  # importing the simulator is part of set-up
    import_s = time.perf_counter() - start
    import repro
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"simulator imported from {repro.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2

    name = args.workloads[0]
    workload = workloads.WORKLOADS[name]
    ops = workload.ops(args.seed, args.size == "smoke")
    work_dir = args.out / "work" / f"{name}-{os.getpid()}"
    try:
        if args.trace:
            outcome, metrics, extra = traced_run(
                workload, workload.trace_ops(ops), args.out, work_dir)
            own_metrics = {}
        else:
            outcome, metrics, extra = timed_run(workload, ops, import_s,
                                                work_dir)
            own_metrics = workload.workload_metrics(outcome)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "workload": name, "seed": args.seed,
        "size": args.size, "trace": args.trace,
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
        # Not part of the final line: BENCHMARK.json's metrics are the
        # same for every workload. compare.py judges these too.
        "workload_metrics": {
            metric: {"value": value, "unit": unit, "better": better,
                     "bound": bound}
            for metric, (value, unit, better, bound) in own_metrics.items()},
        "sim_digest": outcome.digest.hexdigest(),
        "run": extra,
        "env": environment(),
        "finished_ns": time.time_ns(),
    }
    results_dir = args.out / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{args.seed}-trace{args.trace}-"
                   f"{result['finished_ns']}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"== {name}: seed {args.seed}, {extra['ops']} ops in "
          f"{extra['wall_s']:.2f} s, trace {'on' if args.trace else 'off'}")
    for metric, (value, unit, *_) in [*metrics.items(),
                                      *own_metrics.items()]:
        print(f"  {metric:<42} {value:>14.6g} {unit}")
    print(f"sim_digest {name} {result['sim_digest']}")
    print(f"checks {name}: {outcome.attempted} attempted, "
          f"{outcome.failed} failed")
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_INCORRECT


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    return worker(args) if args.worker else drive(args)


if __name__ == "__main__":
    sys.exit(main())
