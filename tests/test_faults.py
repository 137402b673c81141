"""Deterministic fault injection + crash-safe storage.

Tier-1 chaos smokes: one per fault kind (crash, stall, torn-write,
storm), plus the plan DSL/generator and the checksummed record I/O the
readers rely on to survive torn writes. The full crash matrix lives in
``test_chaos.py`` behind the ``slow`` marker.
"""

import json
import multiprocessing
import os
import sys
import time

import pytest

from repro.analysis.streaming import GridReport
from repro.testbed import faults
from repro.testbed.campaign import Campaign, CampaignSpec
from repro.testbed.distributed import (
    LeaseConfig,
    LeaseManager,
    join_campaign,
    run_worker,
)
from repro.testbed.store import (
    SummaryStore,
    append_record,
    campaign_report,
    read_jsonl,
    record_intact,
    seal_record,
)

GRID = dict(sites=["gov.uk"], networks=["DSL"], stacks=["TCP", "QUIC"],
            seeds=[5], runs=2)

FAST = LeaseConfig(ttl_s=30.0, heartbeat_s=5.0, poll_s=0.05)


def _spec(name):
    return CampaignSpec(name=name, **GRID)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """A process-global injector must never outlive its test."""
    yield
    faults.uninstall()


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        assert faults.FaultPlan.generate(7) == faults.FaultPlan.generate(7)
        assert faults.FaultPlan.generate(7) != faults.FaultPlan.generate(8)
        plan = faults.FaultPlan.generate(7, workers=3, count=5)
        assert len(plan.faults) == 5
        assert all(f.kind in faults.FAULT_KINDS for f in plan.faults)
        assert all(f.worker in ("w0", "w1", "w2") for f in plan.faults)

    def test_parse_round_trips_describe(self):
        plan = faults.FaultPlan.parse(
            "crash:w0@1; stall:*@0; torn-write:w1@2; crash:w0@0:pre")
        assert faults.FaultPlan.parse(plan.describe()) == plan
        assert plan.faults[0] == faults.Fault("crash", "w0", 1)
        assert plan.faults[3].point == "condition-start"

    def test_parse_seed_form_matches_generate(self):
        assert faults.FaultPlan.parse("seed:7") == \
            faults.FaultPlan.generate(7)

    def test_parse_json_file(self, tmp_path):
        plan = faults.FaultPlan.generate(3)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_json()))
        assert faults.FaultPlan.parse(str(path)) == plan

    def test_parse_rejects_garbage(self):
        for bad in ("", "crash", "crash:w0", "explode:w0@1",
                    "crash:w0@-1", "crash:w 0@1"):
            with pytest.raises(ValueError):
                faults.FaultPlan.parse(bad)

    def test_json_round_trip(self):
        plan = faults.FaultPlan.parse("crash:w0@1:pre; storm:*@0")
        assert faults.FaultPlan.from_json(plan.to_json()) == plan

    def test_install_from_env_is_idempotent(self):
        explicit = faults.install(faults.FaultPlan.parse("stall:*@0"))
        environ = {faults.PLAN_ENV: "crash:w9@9"}
        assert faults.install_from_env(environ) is explicit
        faults.uninstall()
        armed = faults.install_from_env(environ)
        assert armed is not None
        assert armed.plan.faults[0].worker == "w9"
        faults.uninstall()
        assert faults.install_from_env({}) is None

    def test_fire_without_injector_is_noop(self):
        faults.uninstall()
        assert faults.fire("heartbeat") is False
        assert faults.fire("condition", fingerprint="x") is False


class TestStallSmoke:
    def test_stall_suppresses_heartbeats_so_lease_goes_stale(
            self, tmp_path):
        """The stall fault freezes heartbeats from ``at`` onward while
        the process lives — exactly a hung host to its peers."""
        faults.install(faults.FaultPlan.parse("stall:w0@1"), worker="w0")
        leases = LeaseManager(tmp_path, "w0", FAST)
        assert leases.acquire("fp")
        leases.heartbeat()        # beat 0: still allowed (at=1)
        after_first = leases.path("fp").stat().st_mtime
        leases.heartbeat()        # beat 1 onward: suppressed
        leases.heartbeat()
        assert leases.path("fp").stat().st_mtime == after_first
        # The injector saw every beat; only the first got through.
        assert faults.active().count("heartbeat") == 3

    def test_stall_only_hits_addressed_worker(self, tmp_path):
        faults.install(faults.FaultPlan.parse("stall:w0@0"), worker="w1")
        leases = LeaseManager(tmp_path, "w1", FAST)
        assert leases.acquire("fp")
        assert faults.fire("heartbeat") is False


class TestStormSmoke:
    def test_storm_forces_stale_break_and_acquire_still_wins(
            self, tmp_path):
        """The ghost lease planted by the storm must be broken through
        the ordinary stale path — the acquire then succeeds."""
        spec = _spec("storm-smoke")
        campaign = Campaign(spec, cache_dir=tmp_path)
        campaign.write_spec()
        faults.install(faults.FaultPlan.parse("storm:*@0"), worker="w0")
        result = run_worker(campaign, worker_id="w0", lease=FAST,
                            processes=1, claim_chunk=1)
        assert result.ok
        lines = [json.loads(line)
                 for line in open(campaign.manifest_path)]
        fingerprints = [line["fingerprint"] for line in lines]
        assert len(fingerprints) == len(set(fingerprints)) == 2
        assert not list(
            (campaign.campaign_dir / "claims").glob("*.lease"))


def _chaos_worker(campaign_dir, cache_dir, worker, plan_text):
    """Subprocess body for kill-based smokes (crash / torn-write)."""
    faults.install(faults.FaultPlan.parse(plan_text), worker=worker)
    campaign = join_campaign(campaign_dir, cache_dir=cache_dir)
    result = run_worker(campaign, worker_id=worker, lease=FAST,
                        processes=1, claim_chunk=1)
    sys.exit(0 if result.ok else 2)


def _run_chaos_worker(campaign_dir, cache_dir, worker, plan_text):
    process = multiprocessing.get_context("fork").Process(
        target=_chaos_worker,
        args=(str(campaign_dir), str(cache_dir), worker, plan_text))
    process.start()
    process.join(timeout=300)
    assert not process.is_alive()
    return process.exitcode


class TestCrashSmoke:
    def test_injected_crash_leaves_adoptable_recording(self, tmp_path):
        """The default crash window (post-store, pre-manifest) must be
        healed by the next worker adopting the orphan recording."""
        spec = _spec("crash-smoke")
        campaign = Campaign(spec, cache_dir=tmp_path)
        campaign.write_spec()
        code = _run_chaos_worker(campaign.campaign_dir, tmp_path, "w0",
                                 "crash:w0@0")
        assert code == faults.CRASH_EXIT_CODE
        # The recording is stored but its manifest line never landed.
        manifest_lines = []
        if campaign.manifest_path.exists():
            manifest_lines = [json.loads(line) for line
                              in open(campaign.manifest_path) if line.strip()]
        assert len(manifest_lines) < 2
        assert len(list(campaign.cache.directory.glob("*.json"))) >= 1
        # The kill left a dangling lease on the crashed condition; age
        # it past the TTL (as real elapsed time would) so the next
        # worker may reclaim instead of waiting out FAST.ttl_s.
        dangling = list(
            (campaign.campaign_dir / "claims").glob("*.lease"))
        assert len(dangling) == 1
        old = time.time() - FAST.ttl_s - 5
        os.utime(dangling[0], (old, old))
        # A clean second worker completes the grid: the crashed
        # condition is adopted (cache hit), never simulated twice.
        code = _run_chaos_worker(campaign.campaign_dir, tmp_path,
                                 "w0.r1", "crash:w0@0")
        assert code == 0  # the fault is addressed to w0, not w0.r1
        lines = [json.loads(line)
                 for line in open(campaign.manifest_path)]
        fingerprints = [line["fingerprint"] for line in lines]
        assert len(fingerprints) == len(set(fingerprints)) == 2


class TestTornWriteSmoke:
    def test_torn_manifest_line_skipped_and_resimulated(self, tmp_path,
                                                        caplog):
        """A worker killed mid-append leaves a truncated JSON line; the
        readers skip it with a warning and the condition settles again
        — ``SummaryStore.open`` must never crash on it."""
        spec = _spec("torn-smoke")
        campaign = Campaign(spec, cache_dir=tmp_path)
        campaign.write_spec()
        code = _run_chaos_worker(campaign.campaign_dir, tmp_path, "w0",
                                 "torn-write:w0@0")
        assert code == faults.CRASH_EXIT_CODE
        raw = campaign.manifest_path.read_text()
        with pytest.raises(json.JSONDecodeError):
            json.loads(raw.splitlines()[-1])  # genuinely torn
        store = SummaryStore.open(campaign.campaign_dir,
                                  cache_dir=tmp_path)  # never raises
        assert store.recorded_count() == 0
        for lease in (campaign.campaign_dir / "claims").glob("*.lease"):
            old = time.time() - FAST.ttl_s - 5
            os.utime(lease, (old, old))
        code = _run_chaos_worker(campaign.campaign_dir, tmp_path,
                                 "w0.r1", "torn-write:w0@0")
        assert code == 0
        with caplog.at_level("WARNING"):
            records = list(read_jsonl(campaign.manifest_path))
        assert "torn line" in caplog.text
        fingerprints = [record["fingerprint"] for record in records]
        assert len(fingerprints) == len(set(fingerprints)) == 2
        # The torn line stays in the manifest; the report skips it.
        report = campaign_report(campaign.campaign_dir, GridReport())
        assert report.expected == 2 and not report.degraded


class TestCrashSafeRecords:
    def test_seal_and_verify_round_trip(self):
        record = {"fingerprint": "abc", "status": "simulated"}
        sealed = seal_record(record)
        assert record_intact(sealed)
        assert record_intact(record)  # legacy records have no crc
        tampered = dict(sealed, status="cached")
        assert not record_intact(tampered)

    def test_read_jsonl_skips_torn_and_corrupt_lines(self, tmp_path,
                                                     caplog):
        path = tmp_path / "log.jsonl"
        append_record(path, {"fingerprint": "a", "status": "simulated"})
        append_record(path, {"fingerprint": "b", "status": "simulated"})
        with open(path, "a") as handle:
            handle.write('{"fingerprint": "c", "stat')  # torn tail
        skipped = []
        with caplog.at_level("WARNING"):
            records = list(read_jsonl(
                path, on_skip=lambda n, reason: skipped.append(reason)))
        assert [r["fingerprint"] for r in records] == ["a", "b"]
        assert skipped == ["torn line (invalid JSON)"]

    def test_read_jsonl_skips_checksum_mismatch(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_record(path, {"fingerprint": "a", "status": "simulated"})
        # Bit-rot the sealed line without breaking its JSON.
        path.write_text(path.read_text().replace(
            '"simulated"', '"resumed"'))
        skipped = []
        records = list(read_jsonl(
            path, on_skip=lambda n, reason: skipped.append(reason)))
        assert records == []
        assert skipped == ["checksum mismatch"]
