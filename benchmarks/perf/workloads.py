"""The benchmark's five workloads: inputs, measured loop, output checks.

Every workload is a closed loop: one in-process client starts the next
operation only after the previous one returned. An operation ("op") is
one page load, or for ``campaign_study`` one campaign condition.

The inputs come from ``--seed`` alone and the simulator receives only
the generated ops. Which grid cells a run loads is fixed by the workload
and the run length, not by the seed: cells differ in cost by two orders
of magnitude, so a seed-chosen sample of a few hundred cells would make
throughput a property of the sample rather than of the code. The seed
sets every load's simulation seed (loss draws, jitter, server think
time), which changes what the transports do.

Run length is a fixed op count per workload, sized so that one run
measures about ``run_seconds`` (BENCHMARK.json) on the reference machine
(2 cores). Both sides of a comparison therefore do the same work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.browser import engine, recorder
from repro.netem.profiles import network_by_name
from repro.study.pipeline import ConditionIndex, build_partial, build_report
from repro.testbed import campaign
from repro.testbed.campaign import Campaign, CampaignSpec
from repro.testbed.harness import RecordingCache
from repro.transport.config import stack_by_name
from repro.web.corpus import CORPUS_SITE_NAMES, build_site

NETWORKS = ("DSL", "LTE", "DA2GC", "MSS")
STACKS = ("TCP", "TCP+", "TCP+BBR", "QUIC", "QUIC+BBR")
#: The paper's four heavy named sites (90-150 objects, 18-26 hosts).
HEAVY_SITES = ("etsy.com", "demorgen.be", "nytimes.com", "nature.com")
#: Mid-size sites (21-60 objects).
MID_SITES = ("wikipedia.org", "spotify.com") + tuple(
    f"site-{i:02d}.example" for i in range(4, 11))
#: Light sites (at most 20 objects).
LIGHT_SITES = ("gov.uk", "apache.org", "w3.org", "wordpress.com",
               "gravatar.com", "google.com", "site-01.example",
               "site-02.example", "site-03.example")

#: Load workloads at ``--size smoke``.
SMOKE_OPS = 3

#: A workload-specific metric: ``(value, unit, better, bound)``, judged
#: by compare.py like an end-to-end metric of BENCHMARK.json.
WorkloadMetrics = Dict[str, Tuple[float, str, str, float]]


def sim_seed(family: str, seed: int, index: int) -> int:
    """The simulation seed of op ``index``: a pure function of its args."""
    digest = hashlib.sha256(f"{family}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Outcome:
    """What one pass over a list of ops produced."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    op_ms: List[float] = field(default_factory=list)
    #: sha256 over every op's deterministic output.
    digest: Any = field(default_factory=hashlib.sha256)
    #: Workload-specific totals (conditions, participants, phase times).
    totals: Dict[str, float] = field(default_factory=dict)

    def fail(self, what: str, count: int = 1) -> None:
        print(f"FAILED: {what}", file=sys.stderr)
        self.failed += count


# -- page loads ---------------------------------------------------------------


@dataclass(frozen=True)
class LoadOp:
    index: int
    site: str
    network: str
    stack: str
    sim_seed: int


def _ordered(*values: float) -> bool:
    return all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def metric_problems(m: Dict[str, float]) -> List[str]:
    """Orderings the paper's five metrics always satisfy."""
    problems = []
    if not _ordered(m["FVC"], m["SI"], m["LVC"], m["PLT"]):
        problems.append(f"FVC <= SI <= LVC <= PLT violated: {m}")
    if not _ordered(m["FVC"], m["VC85"], m["LVC"]):
        problems.append(f"FVC <= VC85 <= LVC violated: {m}")
    return problems


def load_problems(result: engine.PageLoadResult) -> List[str]:
    """Output checks every page load must pass."""
    problems = metric_problems(result.metrics.as_dict())
    if result.completed and result.objects_loaded != result.objects_total:
        problems.append(f"completed with {result.objects_loaded}/"
                        f"{result.objects_total} objects")
    if not result.completed and result.metrics.plt != engine.DEFAULT_TIMEOUT:
        problems.append(f"timed out with PLT {result.metrics.plt}")
    return problems


def load_fingerprint(op: LoadOp, result: engine.PageLoadResult) -> bytes:
    """Everything a speed-only change must leave identical."""
    return json.dumps([
        op.site, op.network, op.stack, op.sim_seed, result.completed,
        result.objects_loaded, result.objects_total,
        result.metrics.as_dict(), dataclasses.asdict(result.transport),
    ], sort_keys=True).encode()


class LoadWorkload:
    """Back-to-back ``load_page`` calls over a fixed list of cells.

    Op ``i`` loads ``cells[i % len(cells)]``. A run is ``blocks`` slices
    of ``block`` ops each, so every run covers the networks and stacks
    in the same proportion.
    """

    def __init__(self, name: str, cells: Sequence[Tuple[str, str, str]],
                 block: int, blocks: int, family: str,
                 path_mode: str = "direct",
                 middleboxes: Optional[str] = None):
        self.name = name
        self.cells = tuple(cells)
        self.block = block
        self.blocks = blocks
        #: Seed family: workloads sharing one get the same sim seeds.
        self.family = family
        self.path_mode = path_mode
        self.middleboxes = middleboxes

    def ops(self, seed: int, smoke: bool) -> List[LoadOp]:
        count = SMOKE_OPS if smoke else self.blocks * self.block
        return [LoadOp(i, *self.cells[i % len(self.cells)],
                       sim_seed(self.family, seed, i))
                for i in range(count)]

    def trace_ops(self, ops: List[LoadOp]) -> List[LoadOp]:
        """The traced run's ops: the first third, in whole blocks."""
        blocks = max(1, len(ops) // 3 // self.block)
        return ops[:min(len(ops), blocks * self.block)]

    def workload_metrics(self, outcome: Outcome) -> WorkloadMetrics:
        """Page loads have only the end-to-end metrics."""
        return {}

    def setup(self) -> Dict[str, object]:
        """Build every site and warm each stack with one untimed load."""
        names = sorted({site for site, _, _ in self.cells})
        sites = {name: build_site(name) for name in names}
        profiles = {net: network_by_name(net)
                    for net in {net for _, net, _ in self.cells}}
        stacks = {st: stack_by_name(st)
                  for st in {st for _, _, st in self.cells}}
        lightest = min(names, key=lambda name: sites[name].object_count)
        network = self.cells[0][1]
        for stack in sorted(stacks):
            engine.load_page(sites[lightest], profiles[network],
                             stacks[stack], seed=0,
                             path_mode=self.path_mode,
                             middleboxes=self.middleboxes)
        return {"sites": sites, "profiles": profiles, "stacks": stacks}

    def _load(self, op: LoadOp, ready: Dict[str, object]):
        return engine.load_page(
            ready["sites"][op.site], ready["profiles"][op.network],
            ready["stacks"][op.stack], seed=op.sim_seed,
            path_mode=self.path_mode, middleboxes=self.middleboxes)

    def run(self, ops: List[LoadOp], ready: Dict[str, object], tracer,
            work_dir: Path, inline: bool = False,
            replay: bool = True) -> Outcome:
        """Time every op; ``replay`` re-runs the first and last after."""
        outcome = Outcome(attempted=len(ops))
        ends = {ops[0].index, ops[-1].index}
        fingerprints: Dict[int, bytes] = {}
        started = time.perf_counter()
        for op in ops:
            tracer.begin_op(op.index)
            op_start = time.perf_counter()
            try:
                with tracer.measured():
                    result = self._load(op, ready)
            except Exception:
                traceback.print_exc()
                outcome.fail(f"load {op} raised")
                continue
            outcome.op_ms.append((time.perf_counter() - op_start) * 1e3)
            for problem in load_problems(result):
                outcome.fail(f"load {op}: {problem}")
            fingerprint = load_fingerprint(op, result)
            outcome.digest.update(fingerprint)
            if op.index in ends:
                fingerprints[op.index] = fingerprint
        outcome.wall_s = time.perf_counter() - started
        # A deterministic simulator gives identical metrics and
        # transport totals when a load is replayed in-process.
        for op in (ops[0], ops[-1]) if replay else ():
            if op.index in fingerprints and load_fingerprint(
                    op, self._load(op, ready)) != fingerprints[op.index]:
                outcome.fail(f"load {op} did not replay identically")
        return outcome


def _paper_grid_cells() -> List[Tuple[str, str, str]]:
    """All 720 cells, in 36 blocks of 20.

    Block ``b`` holds every (network, stack) pair once; pair ``j`` goes
    to site ``(b + 7j) mod 36``, so a block visits 20 distinct sites and
    the 36 blocks together visit every cell exactly once.
    """
    sites = CORPUS_SITE_NAMES
    pairs = [(net, st) for net in NETWORKS for st in STACKS]
    return [(sites[(block + 7 * j) % len(sites)], net, st)
            for block in range(len(sites))
            for j, (net, st) in enumerate(pairs)]


def _cells(sites, networks, stacks) -> List[Tuple[str, str, str]]:
    return [(site, net, st) for site in sites for net in networks
            for st in stacks]


# -- campaign -> study ----------------------------------------------------------


@dataclass(frozen=True)
class CycleOp:
    index: int
    seed: int
    smoke: bool


class CampaignStudyWorkload:
    """Cold campaign, resume pass, then the study, once per cycle.

    Each cycle records a fresh grid into an empty cache with a process
    pool (whose start-up users pay on every campaign), relaunches the
    campaign on the finished directory, and runs the study over the
    recordings. An op is one condition of the cold campaign.
    """

    name = "campaign_study"
    processes = 2
    cycles = 2

    def grid(self, smoke: bool) -> Dict[str, object]:
        if smoke:
            # One ground and one in-flight network: the study's rating
            # contexts each need a condition.
            return {"sites": LIGHT_SITES[:2], "networks": ("DSL", "MSS"),
                    "stacks": ("TCP", "QUIC"), "runs": 1,
                    "participants_scale": 1.0}
        return {"sites": LIGHT_SITES, "networks": NETWORKS,
                "stacks": STACKS, "runs": 3, "participants_scale": 100.0}

    def ops(self, seed: int, smoke: bool) -> List[CycleOp]:
        return [CycleOp(k, sim_seed("campaign", seed, k), smoke)
                for k in range(1 if smoke else self.cycles)]

    def trace_ops(self, ops: List[CycleOp]) -> List[CycleOp]:
        return ops[:1]

    def workload_metrics(self, outcome: Outcome) -> WorkloadMetrics:
        """Campaign and study speed, each over its own phase only.

        ``ops_per_s`` spreads a cycle's wall time over its conditions,
        so a slower study would move it only by the study's share of
        the cycle; these two isolate each phase. Their bounds are twice
        the widest spread seen over ten seeds on a busy shared host
        (9 %), as for ``ops_per_s``.
        """
        totals = outcome.totals
        return {
            "conditions_per_s": (
                totals["conditions"] / totals["campaign_s"]
                if totals["campaign_s"] else 0.0, "1/s", "higher", 0.2),
            "participants_per_s": (
                totals["participants"] / totals["study_s"]
                if totals["study_s"] else 0.0, "1/s", "higher", 0.2),
        }

    def setup(self) -> Dict[str, object]:
        sites = {name: build_site(name) for name in LIGHT_SITES}
        lightest = min(LIGHT_SITES, key=lambda name: sites[name].object_count)
        for stack in STACKS:
            engine.load_page(sites[lightest], network_by_name(NETWORKS[0]),
                             stack_by_name(stack), seed=0)
        return {}

    def run(self, ops: List[CycleOp], ready: Dict[str, object], tracer,
            work_dir: Path, inline: bool = False,
            replay: bool = True) -> Outcome:
        """Time every cycle; ``inline`` simulates without the pool and
        ``replay`` re-simulates the first and last condition in-process."""
        outcome = Outcome()
        outcome.totals.update(conditions=0, participants=0, campaign_s=0.0,
                              resume_s=0.0, study_s=0.0)
        processes = 1 if inline else self.processes
        for op in ops:
            grid = self.grid(op.smoke)
            spec = CampaignSpec(
                sites=grid["sites"], networks=grid["networks"],
                stacks=grid["stacks"], seeds=[op.seed], runs=grid["runs"],
                name="perfbench")
            cache_dir = work_dir / f"cycle{op.index}"
            conditions = len(spec.conditions())
            outcome.attempted += conditions
            tracer.begin_op(f"cycle{op.index}")
            try:
                self._cycle(op, spec, cache_dir, processes,
                            grid["participants_scale"], tracer, outcome,
                            replay)
            except Exception:
                traceback.print_exc()
                outcome.fail(f"cycle {op} raised", conditions)
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
        return outcome

    def _cycle(self, op: CycleOp, spec: CampaignSpec, cache_dir: Path,
               processes: int, participants_scale: float, tracer,
               outcome: Outcome, replay: bool) -> None:
        totals = outcome.totals
        started = time.perf_counter()
        with tracer.measured():
            with tracer.span("Campaign.run"):
                cold = Campaign(spec, cache_dir=cache_dir).run(
                    processes=processes)
            resume_start = time.perf_counter()
            with tracer.span("Campaign.run:resume"):
                relaunch = Campaign(spec, cache_dir=cache_dir)
                resumed = relaunch.run(processes=processes)
            study_start = time.perf_counter()
            with tracer.span("ConditionIndex.from_pairs"):
                index = ConditionIndex.from_pairs(relaunch.summary_store())
            with tracer.span("build_partial"):
                partial = build_partial(
                    index, seed=op.seed,
                    participants_scale=participants_scale)
            with tracer.span("build_report"):
                report = build_report(partial, index)
                text = report.render()
        finished = time.perf_counter()
        outcome.wall_s += finished - started
        totals["campaign_s"] += resume_start - started
        totals["resume_s"] += study_start - resume_start
        totals["study_s"] += finished - study_start
        totals["conditions"] += len(cold.results)
        totals["participants"] += sum(f.initial for f in report.funnels)

        outcome.op_ms.extend(r.duration_s * 1e3 for r in cold.results
                             if r.status == "simulated")
        if not cold.ok:
            outcome.fail(f"cycle {op}: {len(cold.failed)} conditions "
                         f"failed", len(cold.failed))
        again = len(resumed.results) - resumed.counts.get("resumed", 0)
        if again:
            outcome.fail(f"cycle {op}: resume settled {again} conditions "
                         f"anew ({resumed.counts})", again)
        if not report.funnels or "Table 3" not in text or any(
                later > earlier for funnel in report.funnels
                for earlier, later in zip(funnel.as_row(),
                                          funnel.as_row()[1:])):
            outcome.fail(f"cycle {op}: Table 3 missing or a funnel grows")

        for key, summary in relaunch.summary_store():
            for problem in (problem for metrics in summary.run_metrics
                            for problem in metric_problems(metrics)):
                outcome.fail(f"cycle {op}: {key.label}: {problem}")
            outcome.digest.update(
                json.dumps(summary.to_json(), sort_keys=True).encode())
        outcome.digest.update(text.encode())
        # The pool's recordings must equal an in-process replay.
        conditions = spec.conditions()
        cache = RecordingCache(cache_dir)
        for condition in (conditions[0], conditions[-1]) if replay else ():
            stored = cache.load(condition.label, condition.fingerprint())
            if stored is None or stored.to_json() != \
                    condition.produce().to_json():
                outcome.fail(f"cycle {op}: {condition.label} did not "
                             f"replay identically")


WORKLOADS = {
    workload.name: workload for workload in (
        LoadWorkload("paper_grid", _paper_grid_cells(), block=20, blocks=8,
                     family="paper_grid"),
        LoadWorkload("quic_heavy",
                     _cells(HEAVY_SITES, ("MSS", "DA2GC"),
                            ("QUIC", "QUIC+BBR")),
                     block=16, blocks=7, family="heavy"),
        LoadWorkload("tcp_heavy",
                     _cells(HEAVY_SITES, ("MSS", "DA2GC"), ("TCP", "TCP+")),
                     block=16, blocks=15, family="heavy"),
        LoadWorkload("impaired_split",
                     _cells(MID_SITES, ("SAT+LAN",), ("TCP", "QUIC")),
                     block=18, blocks=14, family="impaired_split",
                     path_mode="split", middleboxes="adversarial"),
        CampaignStudyWorkload(),
    )
}


def install_trace_points(tracer) -> None:
    """Wrap each public function where the program looks it up."""
    tracer.patch(engine, "load_page", "load_page", keep_results=True)
    tracer.patch(recorder, "load_page", "load_page", keep_results=True)
    tracer.patch(
        campaign, "produce_summary", "produce_summary",
        op_of=lambda website, profile, stack, **kw:
        f"{website}/{profile.name}/{stack.name}/s{kw['seed']}")
    tracer.patch(RecordingCache, "store", "RecordingCache.store",
                 op_of=lambda cache, label, fingerprint, summary: label)
    tracer.patch(campaign, "append_record", "append_record",
                 op_of=lambda path, record: record.get("label"))
