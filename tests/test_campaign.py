"""Campaign orchestrator: specs, resume, failure policy, cache safety."""

import json
import multiprocessing
import os
import pickle
import signal
import time

import pytest

import repro.testbed.campaign as campaign_mod
import repro.testbed.harness as harness_mod
from repro.netem.profiles import DSL, trace_profile, with_loss
from repro.netem.trace import constant_rate_trace
from repro.testbed.campaign import (
    Campaign,
    CampaignError,
    CampaignSpec,
    Progress,
    run_campaign_spec,
)
from repro.testbed.harness import RecordingCache, Testbed

SMALL = dict(sites=["gov.uk"], networks=["DSL"], stacks=["TCP", "QUIC"],
             seeds=[5], runs=2)


class TestSpec:
    def test_axis_product(self):
        spec = CampaignSpec(sites=["a", "b"], networks=["DSL", "LTE"],
                            stacks=["TCP"], seeds=[0, 1, 2], runs=1)
        conditions = spec.conditions()
        assert len(conditions) == 2 * 2 * 1 * 3
        assert conditions[0].website == "a"
        assert {c.seed for c in conditions} == {0, 1, 2}

    def test_defaults_are_paper_grid(self):
        spec = CampaignSpec()
        assert len(spec.conditions()) == 36 * 4 * 5

    def test_object_axes(self):
        lossy = with_loss(DSL, 0.02)
        spec = CampaignSpec(sites=["gov.uk"], networks=[DSL, lossy],
                            stacks=["TCP"], runs=1)
        profiles = {c.profile.name for c in spec.conditions()}
        assert profiles == {"DSL", "DSL-loss2"}

    def test_fingerprint_changes_with_any_parameter(self):
        base = CampaignSpec(**SMALL)
        assert base.fingerprint() == CampaignSpec(**SMALL).fingerprint()
        changed = dict(SMALL, runs=3)
        assert base.fingerprint() != CampaignSpec(**changed).fingerprint()
        changed = dict(SMALL, networks=[with_loss(DSL, 0.01)])
        assert base.fingerprint() != CampaignSpec(**changed).fingerprint()

    def test_cached_fingerprint_leaves_pickle_and_equality_alone(self):
        condition = CampaignSpec(**SMALL).conditions()[0]
        before = pickle.dumps(condition)
        fingerprint = condition.fingerprint()
        assert pickle.dumps(condition) == before
        clone = pickle.loads(before)
        assert clone == condition and hash(clone) == hash(condition)
        assert clone.fingerprint() == fingerprint

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(runs=0)
        with pytest.raises(ValueError):
            CampaignSpec(seeds=[])


def _assert_campaign_matches_sequential_bytes(tmp_path, processes):
    """A campaign run with ``processes`` stores the sequential bytes."""
    bed = Testbed(runs=2, seed=5, cache_dir=str(tmp_path / "seq"))
    bed.sweep(sites=["gov.uk"], networks=["DSL"], stacks=["TCP", "QUIC"])
    seq = sorted((tmp_path / "seq").glob("*.json"))
    spec = CampaignSpec(name="eq", **SMALL)
    cache = tmp_path / "camp"
    result = Campaign(spec, cache_dir=cache).run(processes=processes)
    assert result.ok and result.counts == {"simulated": 2}
    camp = sorted(cache.glob("*.json"))
    assert [p.name for p in seq] == [p.name for p in camp]
    for a, b in zip(seq, camp):
        assert a.read_bytes() == b.read_bytes()


class TestRunAndResume:
    def test_inline_matches_sequential_sweep_bytes(self, tmp_path):
        _assert_campaign_matches_sequential_bytes(tmp_path, processes=1)

    def test_parallel_cache_bytes_match_sequential(self, tmp_path):
        _assert_campaign_matches_sequential_bytes(tmp_path, processes=2)

    def test_resume_skips_finished_conditions(self, tmp_path, monkeypatch):
        spec = CampaignSpec(name="resume", **SMALL)
        produced = []
        real_produce = harness_mod.produce_summary

        def counting_produce(website, profile, stack, **kwargs):
            produced.append((website, profile.name, stack.name))
            return real_produce(website, profile, stack, **kwargs)

        monkeypatch.setattr(campaign_mod, "produce_summary",
                            counting_produce)

        # Interrupt the campaign after the first condition lands.
        def interrupt(event: Progress) -> None:
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            Campaign(spec, cache_dir=tmp_path).run(
                processes=1, progress=interrupt)
        assert len(produced) == 1

        # Same spec, fresh Campaign: finishes without re-simulating.
        result = Campaign(spec, cache_dir=tmp_path).run(processes=1)
        assert result.ok
        assert len(produced) == 2  # only the second condition was produced
        statuses = sorted(r.status for r in result.results)
        # The interrupted condition was stored in the cache before the
        # manifest append ran, so it comes back as cached or resumed.
        assert statuses in (["cached", "simulated"],
                            ["resumed", "simulated"])

    def test_rerun_is_pure_resume(self, tmp_path):
        spec = CampaignSpec(name="rerun", **SMALL)
        first = run_campaign_spec(spec, cache_dir=tmp_path, processes=1)
        assert first.counts == {"simulated": 2}
        second = run_campaign_spec(spec, cache_dir=tmp_path, processes=1)
        assert second.counts == {"resumed": 2}

    def test_shared_cache_means_no_resimulation(self, tmp_path):
        # A different campaign (different manifest) over the same
        # conditions hits the content-addressed cache.
        spec_a = CampaignSpec(name="a", **SMALL)
        spec_b = CampaignSpec(name="b", **SMALL)
        run_campaign_spec(spec_a, cache_dir=tmp_path, processes=1)
        result = run_campaign_spec(spec_b, cache_dir=tmp_path, processes=1)
        assert result.counts == {"cached": 2}

    def test_progress_events(self, tmp_path):
        spec = CampaignSpec(name="prog", **SMALL)
        events = []
        run_campaign_spec(spec, cache_dir=tmp_path, processes=1,
                          progress=events.append)
        assert [e.done for e in events] == [1, 2]
        assert all(e.total == 2 for e in events)
        assert events[-1].eta_s == pytest.approx(0.0)

    def test_summaries_in_sweep_order(self, tmp_path):
        spec = CampaignSpec(name="order", **SMALL)
        campaign = Campaign(spec, cache_dir=tmp_path)
        campaign.run(processes=1)
        summaries = [s for _, s in campaign.iter_summaries()]
        assert [s.stack for s in summaries] == ["TCP", "QUIC"]

    def test_pruned_cache_resimulated_despite_manifest(self, tmp_path):
        """A manifest 'ok' whose recording was deleted must re-simulate,
        not claim success over a missing file."""
        spec = CampaignSpec(name="pruned", **SMALL)
        campaign = Campaign(spec, cache_dir=tmp_path)
        campaign.run(processes=1)
        for recording in tmp_path.glob("*.json"):
            recording.unlink()
        result = Campaign(spec, cache_dir=tmp_path).run(processes=1)
        assert result.counts == {"simulated": 2}
        assert len(list(campaign.iter_summaries())) == 2

    def test_manifest_tolerates_torn_line(self, tmp_path):
        spec = CampaignSpec(name="torn", **SMALL)
        campaign = Campaign(spec, cache_dir=tmp_path)
        campaign.run(processes=1)
        with open(campaign.manifest_path, "a") as handle:
            handle.write('{"fingerprint": "abc", "status"')  # killed mid-write
        result = Campaign(spec, cache_dir=tmp_path).run(processes=1)
        assert result.ok

    def test_trace_profile_axis(self, tmp_path):
        cell = trace_profile("steady4", constant_rate_trace(4.0),
                             min_rtt_ms=60.0)
        spec = CampaignSpec(sites=["gov.uk"], networks=[cell],
                            stacks=["TCP"], runs=1, name="trace")
        result = run_campaign_spec(spec, cache_dir=tmp_path, processes=1)
        assert result.ok
        _, summary = next(Campaign(spec,
                                   cache_dir=tmp_path).iter_summaries())
        assert summary.network == "steady4"
        assert summary.selected_metrics["PLT"] > 0


class TestBatching:
    """Batched worker tasks: same results, manifest and ordering."""

    GRID = dict(sites=["gov.uk"], networks=["DSL"],
                stacks=["TCP", "QUIC"], seeds=[5, 6], runs=2)

    def test_worker_batch_settles_each_condition(self, tmp_path):
        spec = CampaignSpec(name="batch-worker", **self.GRID)
        conditions = spec.conditions()
        campaign_mod._init_worker(str(tmp_path))
        results = campaign_mod._run_condition_batch(
            list(enumerate(conditions)))
        assert [index for index, _, _ in results] == \
            list(range(len(conditions)))
        assert all(error is None for _, error, _ in results)
        cache = RecordingCache(tmp_path)
        for condition in conditions:
            assert cache.load(condition.label,
                              condition.fingerprint()) is not None

    def test_batched_run_matches_unbatched_cache_bytes(self, tmp_path):
        spec = CampaignSpec(name="batch-eq", **self.GRID)
        a = Campaign(spec, cache_dir=tmp_path / "unbatched")
        result_a = a.run(processes=1)
        b = Campaign(spec, cache_dir=tmp_path / "batched")
        result_b = b.run(processes=2, batch_size=2)
        assert result_a.ok and result_b.ok
        names_a = sorted(p.name for p in (tmp_path / "unbatched").glob("*.json"))
        names_b = sorted(p.name for p in (tmp_path / "batched").glob("*.json"))
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "unbatched" / name).read_bytes() == \
                (tmp_path / "batched" / name).read_bytes()
        # Result ordering follows sweep order regardless of batching.
        assert [r.condition.label for r in result_a.results] == \
            [r.condition.label for r in result_b.results]

    def test_batched_resume_from_manifest(self, tmp_path):
        spec = CampaignSpec(name="batch-resume", **self.GRID)
        first = Campaign(spec, cache_dir=tmp_path).run(processes=2,
                                                       batch_size=2)
        assert first.ok
        second = Campaign(spec, cache_dir=tmp_path).run(processes=2,
                                                        batch_size=2)
        assert second.counts == {"resumed": len(second.results)}

    def test_worker_results_independent_of_parent_state(self, tmp_path):
        """Campaign bytes must not depend on what the parent simulated.

        Flow ids feed handshake-retry jitter (visible on lossy
        networks). They are allocated per load now, so forked workers —
        which inherit the parent's whole interpreter state — and inline
        runs (processes=1, same process as the pollution) must both
        store the same bytes as a fresh process, with no reset shim.
        """
        from repro.browser.engine import load_page
        from repro.netem.profiles import network_by_name
        from repro.transport.config import stack_by_name
        from repro.web.corpus import build_site

        spec = CampaignSpec(name="fresh-baseline", sites=["gov.uk"],
                            networks=["MSS"], stacks=["TCP", "QUIC"],
                            seeds=[0], runs=2)
        Campaign(spec, cache_dir=tmp_path / "clean").run(processes=2)
        # Pollute the parent exactly like a prior in-process sweep:
        # real page loads that used to advance the global counters.
        site = build_site("gov.uk", seed=0)
        for stack in ("TCP", "QUIC"):
            load_page(site, network_by_name("MSS"), stack_by_name(stack),
                      seed=11)
        Campaign(spec, cache_dir=tmp_path / "dirty").run(processes=2)
        Campaign(spec, cache_dir=tmp_path / "inline").run(processes=1)
        clean = sorted((tmp_path / "clean").glob("*.json"))
        dirty = sorted((tmp_path / "dirty").glob("*.json"))
        inline = sorted((tmp_path / "inline").glob("*.json"))
        assert [p.name for p in clean] == [p.name for p in dirty] \
            == [p.name for p in inline]
        for a, b, c in zip(clean, dirty, inline):
            assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_batch_size_rejected_below_one(self, tmp_path):
        spec = CampaignSpec(name="bad-batch", **self.GRID)
        with pytest.raises(ValueError, match="batch_size"):
            Campaign(spec, cache_dir=tmp_path).run(batch_size=0)

    def test_batch_size_one_equals_per_condition_tasks(self, tmp_path):
        spec = CampaignSpec(name="batch-one", **self.GRID)
        result = Campaign(spec, cache_dir=tmp_path).run(processes=2,
                                                        batch_size=1)
        assert result.ok
        assert result.counts == {"simulated": len(result.results)}


class TestFailurePolicy:
    @pytest.fixture
    def failing_once(self, monkeypatch):
        """produce_summary that fails on its first call for QUIC."""
        calls = {"failures": 0}
        real_produce = harness_mod.produce_summary

        def flaky(website, profile, stack, **kwargs):
            if stack.name == "QUIC" and calls["failures"] == 0:
                calls["failures"] += 1
                raise RuntimeError("transient worker crash")
            return real_produce(website, profile, stack, **kwargs)

        monkeypatch.setattr(campaign_mod, "produce_summary", flaky)
        return calls

    def test_retry_recovers(self, tmp_path, failing_once):
        spec = CampaignSpec(name="retry", **SMALL)
        result = run_campaign_spec(spec, cache_dir=tmp_path, processes=1,
                                   failure_policy="retry")
        assert result.ok
        by_stack = {r.condition.stack.name: r for r in result.results}
        assert by_stack["QUIC"].attempts == 2

    def test_skip_records_failure_and_continues(self, tmp_path, monkeypatch):
        def always_fail(website, profile, stack, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(campaign_mod, "produce_summary", always_fail)
        spec = CampaignSpec(name="skip", **SMALL)
        result = run_campaign_spec(spec, cache_dir=tmp_path, processes=1,
                                   failure_policy="skip")
        assert not result.ok
        assert result.counts == {"failed": 2}
        assert all("boom" in (r.error or "") for r in result.failed)
        # Failures are recorded in the manifest for post-mortems.
        campaign = Campaign(spec, cache_dir=tmp_path)
        lines = [json.loads(l) for l in
                 open(campaign.manifest_path)]
        assert all(l["status"] == "failed" for l in lines)

    def test_abort_raises(self, tmp_path, monkeypatch):
        def always_fail(website, profile, stack, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(campaign_mod, "produce_summary", always_fail)
        spec = CampaignSpec(name="abort", **SMALL)
        with pytest.raises(CampaignError):
            run_campaign_spec(spec, cache_dir=tmp_path, processes=1,
                              failure_policy="abort")

    def test_failed_conditions_retried_on_relaunch(self, tmp_path,
                                                   monkeypatch):
        def always_fail(website, profile, stack, **kwargs):
            raise RuntimeError("boom")

        spec = CampaignSpec(name="relaunch", **SMALL)
        monkeypatch.setattr(campaign_mod, "produce_summary", always_fail)
        first = run_campaign_spec(spec, cache_dir=tmp_path, processes=1,
                                  failure_policy="skip")
        assert first.counts == {"failed": 2}
        monkeypatch.undo()
        second = run_campaign_spec(spec, cache_dir=tmp_path, processes=1)
        assert second.ok and second.counts == {"simulated": 2}

    def test_unknown_policy_rejected(self, tmp_path):
        spec = CampaignSpec(name="bad", **SMALL)
        with pytest.raises(ValueError):
            Campaign(spec, cache_dir=tmp_path).run(failure_policy="explode")


def _store_worker(cache_dir, payload, barrier, repeats):
    """Store the same condition repeatedly, synchronised with a sibling."""
    cache = RecordingCache(cache_dir)
    summary = harness_mod.RecordingSummary.from_json(json.loads(payload))
    barrier.wait(timeout=30)
    for _ in range(repeats):
        cache.store("gov.uk_DSL_TCP_s5", "fingerprint00000000", summary)


class TestConcurrentWriters:
    def test_store_uses_unique_tmp_names(self, tmp_path, monkeypatch):
        """Regression: two stores must never share a tmp file path."""
        cache = RecordingCache(tmp_path)
        summary = _make_summary()
        sources = []
        real_replace = os.replace

        def capture(src, dst):
            sources.append(str(src))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", capture)
        cache.store("label", "fp", summary)
        cache.store("label", "fp", summary)
        assert len(sources) == 2
        assert sources[0] != sources[1]

    def test_two_processes_storing_same_condition(self, tmp_path):
        """Concurrent writers of one condition never tear the file."""
        cache = RecordingCache(tmp_path)
        summary = _make_summary()
        payload = json.dumps(summary.to_json())
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        workers = [
            ctx.Process(target=_store_worker,
                        args=(str(tmp_path), payload, barrier, 25))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        stored = cache.load("gov.uk_DSL_TCP_s5", "fingerprint00000000")
        assert stored is not None
        assert stored.selected_metrics == summary.selected_metrics
        # No leaked tmp files either.
        assert not list(tmp_path.glob("*.tmp"))


def _make_summary():
    return harness_mod.RecordingSummary(
        website="gov.uk", network="DSL", stack="TCP", runs=1,
        selection_metric="PLT",
        selected_metrics={"FVC": 0.1, "SI": 0.2, "PLT": 0.3, "LVC": 0.3},
        selected_curve=[(0.1, 0.5), (0.3, 1.0)],
        run_metrics=[{"FVC": 0.1, "SI": 0.2, "PLT": 0.3, "LVC": 0.3}],
        mean_retransmissions=0.0, mean_segments_sent=10.0,
        completed_fraction=1.0,
    )


def _campaign_worker(cache_dir, spec_kwargs):
    spec = CampaignSpec(name="killed", **spec_kwargs)
    Campaign(spec, cache_dir=cache_dir).run(processes=1)


@pytest.mark.slow
class TestKilledCampaign:
    def test_sigkilled_campaign_resumes(self, tmp_path):
        """A killed mid-flight campaign resumes without re-simulating."""
        grid = dict(sites=["gov.uk", "apache.org"], networks=["DSL", "LTE"],
                    stacks=["TCP", "QUIC"], seeds=[3], runs=2)
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_campaign_worker,
                           args=(str(tmp_path), grid))
        proc.start()
        spec = CampaignSpec(name="killed", **grid)
        manifest = Campaign(spec, cache_dir=tmp_path).manifest_path
        deadline = time.time() + 120
        while time.time() < deadline:
            if manifest.exists() and \
                    len(manifest.read_text().splitlines()) >= 2:
                break
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=30)

        done_before = len([
            l for l in manifest.read_text().splitlines() if l.strip()
        ])
        assert 1 <= done_before  # it really was mid-flight

        result = Campaign(spec, cache_dir=tmp_path).run(processes=1)
        assert result.ok
        counts = result.counts
        assert counts.get("resumed", 0) + counts.get("cached", 0) >= 1
        assert len(result.results) == 8


class TestBehaviourVersioning:
    """A behaviour bump must invalidate everything recorded before it."""

    SPEC = dict(sites=["gov.uk"], networks=["DSL"], stacks=["TCP"],
                seeds=[5], runs=1)

    def test_manifest_and_spec_record_behaviour_version(self, tmp_path):
        campaign = Campaign(CampaignSpec(name="stamped", **self.SPEC),
                            cache_dir=tmp_path)
        campaign.run(processes=1)
        spec = json.loads((campaign.campaign_dir / "spec.json").read_text())
        assert spec["sim_behaviour"] == harness_mod.SIM_BEHAVIOUR_VERSION
        for line in campaign.manifest_path.read_text().splitlines():
            assert json.loads(line)["sim_behaviour"] == \
                harness_mod.SIM_BEHAVIOUR_VERSION

    def test_stale_campaign_is_cache_miss_not_reuse(self, tmp_path,
                                                    monkeypatch):
        """Recordings from version N are never served at version N+1:
        the fingerprints (and with them the campaign dir) change, so the
        re-run simulates from scratch instead of resuming stale bytes."""
        first = Campaign(CampaignSpec(name="vbump", **self.SPEC),
                         cache_dir=tmp_path)
        assert first.run(processes=1).counts == {"simulated": 1}
        # The simulator's behaviour changes in some future PR...
        monkeypatch.setattr(harness_mod, "SIM_BEHAVIOUR_VERSION",
                            harness_mod.SIM_BEHAVIOUR_VERSION + 1)
        second = Campaign(CampaignSpec(name="vbump", **self.SPEC),
                          cache_dir=tmp_path)
        assert second.campaign_dir != first.campaign_dir
        assert second.run(processes=1).counts == {"simulated": 1}
