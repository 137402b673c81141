"""SummaryStore: streaming results path, live and post-hoc."""

import json

import pytest

import repro.testbed.campaign as campaign_mod
import repro.testbed.harness as harness_mod
from repro.testbed.campaign import Campaign, CampaignSpec
from repro.testbed.store import ConditionKey, StaleCampaignError, SummaryStore

GRID = dict(sites=["gov.uk"], networks=["DSL"], stacks=["TCP", "QUIC"],
            seeds=[5, 6], runs=2)


@pytest.fixture(scope="module")
def finished_campaign(tmp_path_factory):
    """A real, tiny, fully-recorded campaign directory on disk."""
    cache = tmp_path_factory.mktemp("store-cache")
    campaign = Campaign(CampaignSpec(name="store", **GRID),
                        cache_dir=cache)
    result = campaign.run(processes=1)
    assert result.ok
    return campaign


class TestConditionKey:
    def test_condition_key_axes(self, finished_campaign):
        condition = finished_campaign.spec.conditions()[0]
        key = condition.key
        assert key.website == "gov.uk"
        assert key.network == "DSL"
        assert key.stack == "TCP"
        assert key.seed == 5
        assert key.label == condition.label
        assert key.fingerprint == condition.fingerprint()
        assert key.axes(("network", "stack")) == ("DSL", "TCP")

    def test_unknown_axis_rejected(self, finished_campaign):
        key = finished_campaign.spec.conditions()[0].key
        with pytest.raises(KeyError):
            key.axis("bogus")


class TestLiveStore:
    def test_iter_summaries_lazy_pairs_in_sweep_order(
            self, finished_campaign):
        pairs = list(finished_campaign.iter_summaries())
        # Sweep order: site -> network -> stack -> seed.
        assert [(c.stack.name, c.seed) for c, _ in pairs] == \
            [("TCP", 5), ("TCP", 6), ("QUIC", 5), ("QUIC", 6)]
        assert [s.stack for _, s in pairs] == \
            ["TCP", "TCP", "QUIC", "QUIC"]
        assert all(s.website == "gov.uk" for _, s in pairs)

    def test_summary_store_matches_iter_summaries(self, finished_campaign):
        store = finished_campaign.summary_store()
        assert len(store) == 4
        from_store = {k.fingerprint: s.to_json() for k, s in store}
        from_iter = {c.fingerprint(): s.to_json()
                     for c, s in finished_campaign.iter_summaries()}
        assert from_store == from_iter

    def test_iter_summaries_raises_on_unrecorded(self, tmp_path):
        campaign = Campaign(CampaignSpec(name="unrun", **GRID),
                            cache_dir=tmp_path)
        with pytest.raises(KeyError):
            list(campaign.iter_summaries())

    def test_store_skips_missing_by_default(self, tmp_path):
        campaign = Campaign(CampaignSpec(name="unrun2", **GRID),
                            cache_dir=tmp_path)
        store = campaign.summary_store()
        assert list(store) == []
        with pytest.raises(KeyError):
            list(store.iter_summaries(missing="raise"))
        with pytest.raises(ValueError):
            list(store.iter_summaries(missing="ignore"))


class TestSink:
    def test_sink_streams_each_condition_once(self, tmp_path):
        spec = CampaignSpec(name="sink", **GRID)
        seen = []
        result = Campaign(spec, cache_dir=tmp_path).run(
            processes=1,
            sink=lambda c, s: seen.append((c.key.fingerprint,
                                           s.to_json())))
        assert result.ok
        assert len(seen) == 4
        assert len({fp for fp, _ in seen}) == 4

    def test_sink_fed_on_pure_resume(self, tmp_path):
        spec = CampaignSpec(name="sink-resume", **GRID)
        Campaign(spec, cache_dir=tmp_path).run(processes=1)
        seen = []
        result = Campaign(spec, cache_dir=tmp_path).run(
            processes=1, sink=lambda c, s: seen.append(c.key))
        assert result.counts == {"resumed": 4}
        assert len(seen) == 4

    def test_sink_matches_store_contents(self, tmp_path):
        spec = CampaignSpec(name="sink-eq", **GRID)
        campaign = Campaign(spec, cache_dir=tmp_path)
        streamed = {}
        campaign.run(processes=1,
                     sink=lambda c, s: streamed.update(
                         {c.key.fingerprint: s.to_json()}))
        stored = {k.fingerprint: s.to_json()
                  for k, s in campaign.summary_store()}
        assert streamed == stored

    def test_failed_conditions_not_sunk(self, tmp_path, monkeypatch):
        def flaky(website, profile, stack, **kwargs):
            if stack.name == "QUIC":
                raise RuntimeError("boom")
            return real(website, profile, stack, **kwargs)

        real = harness_mod.produce_summary
        monkeypatch.setattr(campaign_mod, "produce_summary", flaky)
        spec = CampaignSpec(name="sink-fail", **GRID)
        seen = []
        result = Campaign(spec, cache_dir=tmp_path).run(
            processes=1, failure_policy="skip",
            sink=lambda c, s: seen.append(c.key))
        assert not result.ok
        assert {k.stack for k in seen} == {"TCP"}


class TestPostHoc:
    def test_open_round_trip_without_resimulation(self, finished_campaign,
                                                  monkeypatch):
        """Reopening the campaign dir yields byte-identical summaries
        and never calls produce_summary."""
        def forbidden(*args, **kwargs):
            raise AssertionError("post-hoc store must not re-simulate")

        monkeypatch.setattr(harness_mod, "produce_summary", forbidden)
        monkeypatch.setattr(campaign_mod, "produce_summary", forbidden)

        store = SummaryStore.open(finished_campaign.campaign_dir)
        pairs = list(store)
        assert len(pairs) == 4
        live = {k.fingerprint: s.to_json()
                for k, s in finished_campaign.summary_store()}
        posthoc = {k.fingerprint: s.to_json() for k, s in pairs}
        assert posthoc == live
        for key, _ in pairs:
            assert isinstance(key, ConditionKey)
            assert key.website == "gov.uk"
            assert key.seed in (5, 6)

    def test_open_uses_manifest_axis_fields(self, finished_campaign):
        """keys() must not need to load summaries on new manifests."""
        store = SummaryStore.open(finished_campaign.campaign_dir)
        real_load = store.cache.load
        calls = []

        def counting(label, fingerprint):
            calls.append(label)
            return real_load(label, fingerprint)

        store.cache.load = counting
        keys = store.keys()
        assert len(keys) == 4
        assert calls == []

    def test_open_legacy_manifest_without_axis_fields(
            self, finished_campaign, tmp_path):
        """Manifests written before the axis fields still open: the
        axes are recovered from the summaries themselves."""
        legacy_dir = tmp_path / "legacy"
        legacy_dir.mkdir()
        stripped = []
        for line in finished_campaign.manifest_path.read_text().splitlines():
            record = json.loads(line)
            # Manifests that predate the axis fields also predate the
            # record checksum; keeping a modern crc on the stripped
            # record would (correctly) read as bit rot.
            for field in ("website", "network", "stack", "seed", "crc"):
                record.pop(field, None)
            stripped.append(json.dumps(record))
        (legacy_dir / "manifest.jsonl").write_text(
            "\n".join(stripped) + "\n")
        store = SummaryStore.open(
            legacy_dir, cache_dir=finished_campaign.cache.directory)
        pairs = list(store)
        assert len(pairs) == 4
        assert {k.seed for k, _ in pairs} == {5, 6}
        assert {k.stack for k, _ in pairs} == {"TCP", "QUIC"}
        # recorded_count reflects the manifest's claim even when the
        # cache is gone (keys() cannot reconstruct legacy keys then).
        assert store.recorded_count() == 4
        orphan = SummaryStore.open(legacy_dir,
                                   cache_dir=legacy_dir / "nope")
        assert orphan.recorded_count() == 4
        assert orphan.keys() == []

    def test_open_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SummaryStore.open(tmp_path / "nope")

    def test_failed_status_not_listed(self, tmp_path, monkeypatch):
        def always_fail(website, profile, stack, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(campaign_mod, "produce_summary", always_fail)
        campaign = Campaign(CampaignSpec(name="allfail", **GRID),
                            cache_dir=tmp_path)
        campaign.run(processes=1, failure_policy="skip")
        store = SummaryStore.open(campaign.campaign_dir)
        assert store.keys() == []
        assert list(store) == []

    def test_open_checks_recorded_behaviour_version(self, finished_campaign,
                                                    monkeypatch):
        """A dir recorded under an older SIM_BEHAVIOUR_VERSION must not
        be silently analysed as if it were current output."""
        store = SummaryStore.open(finished_campaign.campaign_dir)
        assert store.recorded_behaviour_version() == \
            harness_mod.SIM_BEHAVIOUR_VERSION
        # The simulator's behaviour changes in some future PR...
        monkeypatch.setattr(harness_mod, "SIM_BEHAVIOUR_VERSION",
                            harness_mod.SIM_BEHAVIOUR_VERSION + 1)
        with pytest.raises(StaleCampaignError, match="re-run"):
            SummaryStore.open(finished_campaign.campaign_dir)
        # ... but historical inspection stays possible on request.
        stale = SummaryStore.open(finished_campaign.campaign_dir,
                                  check_behaviour=False)
        assert len(list(stale)) == 4

    def test_open_cannot_check_unstamped_legacy_dir(self, finished_campaign,
                                                    tmp_path, monkeypatch):
        """Dirs from before version stamping carry no marker: open()
        accepts them (documented limitation) instead of guessing."""
        legacy_dir = tmp_path / "legacy-version"
        legacy_dir.mkdir()
        stripped = []
        for line in finished_campaign.manifest_path.read_text().splitlines():
            record = json.loads(line)
            record.pop("sim_behaviour", None)
            stripped.append(json.dumps(record))
        (legacy_dir / "manifest.jsonl").write_text(
            "\n".join(stripped) + "\n")
        monkeypatch.setattr(harness_mod, "SIM_BEHAVIOUR_VERSION",
                            harness_mod.SIM_BEHAVIOUR_VERSION + 1)
        store = SummaryStore.open(
            legacy_dir, cache_dir=finished_campaign.cache.directory)
        assert store.recorded_behaviour_version() is None

    def test_grid_report_from_posthoc_store(self, finished_campaign):
        """The acceptance path: Table-style pivot from a dir on disk."""
        from repro.analysis.streaming import grid_report
        from repro.report import render_grid

        store = SummaryStore.open(finished_campaign.campaign_dir)
        report = grid_report(store, rows=("network",), cols="stack")
        out = render_grid(report)
        assert "DSL" in out
        assert "TCP" in out and "QUIC" in out
        assert "±" in out

    def test_campaign_report_parses_manifest_once(self, finished_campaign,
                                                  monkeypatch):
        import repro.testbed.store as store_mod
        from repro.analysis.streaming import GridReport

        calls = []
        read_jsonl = store_mod.read_jsonl

        def counted(*args, **kwargs):
            calls.append(args)
            return read_jsonl(*args, **kwargs)

        monkeypatch.setattr(store_mod, "read_jsonl", counted)
        report = store_mod.campaign_report(finished_campaign.campaign_dir,
                                           GridReport())
        assert report.to_json()
        assert len(calls) == 1
