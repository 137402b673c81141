"""Lazy access to a campaign's recorded summaries.

:class:`SummaryStore` is the streaming bridge between the testbed and
the analysis layer: it iterates ``(ConditionKey, RecordingSummary)``
pairs straight off the campaign manifest and the content-addressed
recording cache, one summary in memory at a time, instead of
materialising the whole grid.

Two ways to build one:

* live — :meth:`Campaign.summary_store` binds a store to a campaign
  object whose spec is in memory (keys come from the spec's axis
  product, in deterministic sweep order);
* post-hoc — :meth:`SummaryStore.open` points at a finished campaign
  directory on disk and recovers the keys from ``manifest.jsonl``
  without re-running (or even being able to re-run) any condition.

Either way iteration is lazy: nothing is loaded until the pair is
yielded, and nothing yielded is retained, so per-axis aggregation over
an N-condition grid needs O(axes) memory, not O(N).

:func:`campaign_report` is the one way a campaign directory becomes a
:class:`~repro.analysis.streaming.GridReport`: every CLI report, live
or post-hoc, single-host or distributed, goes through it.
"""

from __future__ import annotations

import json
import logging
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.streaming import GridReport
from repro.testbed import faults, harness
from repro.testbed.harness import RecordingCache, RecordingSummary

logger = logging.getLogger(__name__)


class StaleCampaignError(ValueError):
    """A campaign dir was recorded under a different SIM_BEHAVIOUR_VERSION.

    Its summaries are not comparable with anything the current simulator
    produces; re-run the campaign (the content-hashed cache keys embed
    the version, so nothing stale is reused) or pass
    ``check_behaviour=False`` to :meth:`SummaryStore.open` to analyse the
    old recordings anyway.
    """

#: Axis names a :class:`ConditionKey` can be pivoted/grouped on.
CONDITION_AXES = ("website", "network", "stack", "seed", "path",
                  "middleboxes")

#: Campaign-directory subdirectory holding per-condition lease files
#: (the distributed claim protocol — see ``repro.testbed.distributed``).
CLAIMS_DIRNAME = "claims"

#: Campaign-directory subdirectory holding per-worker *study* partials
#: (``<worker>.json``, serialized ``repro.study.pipeline.StudyPartial``
#: state): perception-study aggregations computed over the campaign's
#: recorded summaries, sharded by participant block.
STUDY_PARTIALS_DIRNAME = "study_partials"

#: Campaign-directory subdirectory holding per-condition quarantine
#: markers (``<fingerprint>``): conditions the supervisor poisoned
#: after they repeatedly killed workers (see
#: ``repro.testbed.supervisor``). Live workers settle marked
#: conditions as ``poisoned`` instead of retrying them forever.
QUARANTINE_DIRNAME = "quarantine"

#: Manifest statuses that mean "a recording exists for this condition".
#: Owned here (the manifest-reading layer); the campaign orchestrator
#: imports it, so the two can never drift apart. ``shared`` only ever
#: appears in in-memory ConditionResults (a cooperating distributed
#: worker recorded the condition — that worker wrote the manifest line),
#: but it means the same thing: the recording exists.
OK_STATUSES = ("simulated", "cached", "resumed", "shared")

#: Labels end in ``_s<seed>`` (see ``harness.condition_label``).
_SEED_SUFFIX = re.compile(r"_s(\d+)$")


# -- crash-safe record I/O ---------------------------------------------------
#
# Everything a campaign writes incrementally (manifest lines, study
# partials) goes through these helpers: writers stamp a CRC over the
# record's canonical JSON, readers verify it and *skip-and-log* torn or
# corrupt data instead of raising — a killed writer degrades the record,
# never the readers. Records written before the CRC existed carry no
# ``crc`` field and are accepted as-is (legacy).


def record_crc(record: Dict[str, object]) -> str:
    """CRC-32 over the record's canonical JSON, sans the ``crc`` field."""
    body = json.dumps(
        {key: value for key, value in record.items() if key != "crc"},
        sort_keys=True)
    return format(zlib.crc32(body.encode("utf-8")), "08x")


def seal_record(record: Dict[str, object]) -> Dict[str, object]:
    """Return the record with its ``crc`` field stamped."""
    sealed = dict(record)
    sealed["crc"] = record_crc(sealed)
    return sealed


def record_intact(record: Dict[str, object]) -> bool:
    """True when the record carries no CRC (legacy) or it matches."""
    crc = record.get("crc")
    return crc is None or crc == record_crc(record)


def append_record(path: Union[str, Path],
                  record: Dict[str, object]) -> None:
    """Append one checksummed JSON line to an append-only log.

    The line is sealed (:func:`seal_record`), written in a single
    ``write`` + flush so concurrent appenders on a shared filesystem
    interleave whole lines, and routed through the ``manifest-append``
    fault point so chaos tests can tear it mid-write.
    """
    line = json.dumps(seal_record(record)) + "\n"
    faults.fire("manifest-append", path=str(path), line=line)
    # Heal a torn tail first: a writer killed mid-append leaves a
    # truncated line with no newline, and appending straight onto it
    # would glue THIS record into the garbage — corrupting a good
    # record instead of just losing the dead writer's. Starting on a
    # fresh line confines the damage to the torn line itself, which
    # readers skip.
    prefix = ""
    try:
        with open(path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                prefix = "\n"
    except (OSError, ValueError):
        pass  # missing or empty file: nothing to heal
    with open(path, "a") as handle:
        handle.write(prefix + line)
        handle.flush()


def read_jsonl(
    path: Union[str, Path],
    on_skip: Optional[Callable[[int, str], None]] = None,
) -> Iterator[Dict[str, object]]:
    """Yield verified records from an append-only JSON-lines log.

    Blank lines, torn lines (invalid JSON — a killed writer's final
    partial ``write``) and checksum-mismatched lines (bit rot, torn
    tail glued onto a later append) are skipped with a logged warning;
    ``on_skip(line_number, reason)`` additionally observes each skip so
    health reporting can count them. Never raises on bad content.
    """
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                reason = "torn line (invalid JSON)"
                logger.warning("%s:%d: skipping %s", path, number, reason)
                if on_skip is not None:
                    on_skip(number, reason)
                continue
            if not isinstance(record, dict):
                reason = "not a JSON object"
                logger.warning("%s:%d: skipping %s", path, number, reason)
                if on_skip is not None:
                    on_skip(number, reason)
                continue
            if not record_intact(record):
                reason = "checksum mismatch"
                logger.warning("%s:%d: skipping %s", path, number, reason)
                if on_skip is not None:
                    on_skip(number, reason)
                continue
            yield record


@dataclass(frozen=True)
class ConditionKey:
    """Axis coordinates plus cache identity of one recorded condition.

    A deliberately light counterpart to ``campaign.Condition``: it
    carries only what grouping and cache lookup need, so it can be
    reconstructed from a manifest on disk where the full profile/stack
    objects no longer exist.
    """

    website: str
    network: str
    stack: str
    seed: int
    label: str
    fingerprint: str
    #: Path topology mode ("direct" end-to-end, "split" per-segment
    #: proxies); "direct" for every condition recorded before the axis
    #: existed.
    path: str = "direct"
    #: In-path middlebox chain name ("none" when clean); "none" for
    #: every condition recorded before the axis existed.
    middleboxes: str = "none"

    def axis(self, name: str) -> object:
        """Value of one pivot axis (website / network / stack / seed /
        path / middleboxes)."""
        if name not in CONDITION_AXES:
            raise KeyError(
                f"unknown condition axis {name!r}; "
                f"expected one of {CONDITION_AXES}")
        return getattr(self, name)

    def axes(self, names: Sequence[str]) -> Tuple[object, ...]:
        """Tuple of axis values, e.g. a group-by key."""
        return tuple(self.axis(name) for name in names)


def _seed_from_label(label: str) -> int:
    match = _SEED_SUFFIX.search(label)
    return int(match.group(1)) if match else -1


class SummaryStore:
    """Iterates ``(ConditionKey, RecordingSummary)`` pairs lazily.

    ``keys`` fixes the key list up front (live mode: the campaign spec's
    sweep order); without it the keys are recovered from the campaign
    directory's ``manifest.jsonl`` (post-hoc mode), in manifest order
    with later records winning per fingerprint.
    """

    def __init__(
        self,
        cache: Union[RecordingCache, str, Path],
        keys: Optional[Sequence[ConditionKey]] = None,
        campaign_dir: Optional[Union[str, Path]] = None,
    ):
        self.cache = cache if isinstance(cache, RecordingCache) \
            else RecordingCache(cache)
        self.campaign_dir = Path(campaign_dir) \
            if campaign_dir is not None else None
        self._keys = list(keys) if keys is not None else None

    @classmethod
    def open(
        cls,
        campaign_dir: Union[str, Path],
        cache_dir: Optional[Union[str, Path]] = None,
        check_behaviour: bool = True,
    ) -> "SummaryStore":
        """Open a finished campaign directory without re-running anything.

        ``cache_dir`` defaults to the layout ``Campaign`` creates
        (``<cache>/campaigns/<name>-<fingerprint>``), i.e. two levels up
        from the campaign directory.

        Raises :class:`StaleCampaignError` when the directory records a
        ``sim_behaviour`` version (in ``spec.json`` or any manifest
        line) different from the running simulator's — those summaries
        are not comparable with current output. ``check_behaviour=False``
        opens it anyway (e.g. to inspect historical results). Dirs from
        before the version was recorded carry no marker and cannot be
        checked.
        """
        campaign_dir = Path(campaign_dir)
        manifest = campaign_dir / "manifest.jsonl"
        if not manifest.exists():
            raise FileNotFoundError(
                f"no campaign manifest at {manifest}")
        if cache_dir is None:
            cache_dir = campaign_dir.parent.parent
        store = cls(RecordingCache(cache_dir), campaign_dir=campaign_dir)
        if check_behaviour:
            recorded = store.recorded_behaviour_version()
            if recorded is not None and \
                    recorded != harness.SIM_BEHAVIOUR_VERSION:
                raise StaleCampaignError(
                    f"campaign dir {campaign_dir} was recorded under "
                    f"SIM_BEHAVIOUR_VERSION={recorded}, but the current "
                    f"simulator is version "
                    f"{harness.SIM_BEHAVIOUR_VERSION}, so its summaries "
                    f"are not comparable with current output; re-run "
                    f"the campaign, or open with check_behaviour=False "
                    f"to analyse the stale recordings")
        return store

    # -- keys ----------------------------------------------------------------

    @property
    def manifest_path(self) -> Optional[Path]:
        if self.campaign_dir is None:
            return None
        return self.campaign_dir / "manifest.jsonl"

    def _manifest_records(self) -> List[Dict[str, object]]:
        """Latest manifest record per fingerprint, in first-seen order.

        Torn and checksum-failed lines are skipped with a warning (see
        :func:`read_jsonl`) — a worker killed mid-append degrades one
        line, never the whole campaign directory.
        """
        manifest = self.manifest_path
        records: Dict[str, Dict[str, object]] = {}
        if manifest is None or not manifest.exists():
            return []
        for record in read_jsonl(manifest):
            records[str(record.get("fingerprint"))] = record
        return list(records.values())

    def _key_from_record(
            self, record: Dict[str, object]) -> Optional[ConditionKey]:
        label = str(record.get("label", ""))
        fingerprint = str(record.get("fingerprint", ""))
        if not label or not fingerprint:
            return None
        if "website" in record:  # axis fields written since the manifest
            return ConditionKey(  # format gained them
                website=str(record["website"]),
                network=str(record["network"]),
                stack=str(record["stack"]),
                seed=int(record.get("seed", _seed_from_label(label))),
                label=label, fingerprint=fingerprint,
                path=str(record.get("path", "direct")),
                middleboxes=str(record.get("middleboxes", "none")),
            )
        # Legacy manifest line: recover the axes from the summary itself.
        summary = self.cache.load(label, fingerprint)
        if summary is None:
            return None
        return ConditionKey(
            website=summary.website, network=summary.network,
            stack=summary.stack, seed=_seed_from_label(label),
            label=label, fingerprint=fingerprint,
            path=getattr(summary, "path", "direct"),
            middleboxes=getattr(summary, "middleboxes", "none"),
        )

    def keys(self) -> List[ConditionKey]:
        """Every recorded condition's key (no summaries loaded for
        manifests that carry axis fields)."""
        return self.recorded_keys()[0]

    def recorded_keys(self) -> Tuple[List[ConditionKey], int]:
        """``keys()`` and ``recorded_count()`` from one manifest parse."""
        if self._keys is not None:
            return list(self._keys), len(self._keys)
        records = [record for record in self._manifest_records()
                   if record.get("status") in OK_STATUSES]
        keys = [key for key in map(self._key_from_record, records)
                if key is not None]
        return keys, len(records)

    def recorded_behaviour_version(self) -> Optional[int]:
        """The ``SIM_BEHAVIOUR_VERSION`` this campaign dir was recorded
        under, or ``None`` when the dir predates version stamping (no
        ``spec.json`` field and no manifest line carries one).

        ``spec.json`` is consulted first (written once per campaign);
        manifest lines are the fallback for dirs whose spec was written
        by an older simulator but whose conditions ran under a newer
        one — any stamped line settles it.
        """
        if self.campaign_dir is None:
            return None
        spec_path = self.campaign_dir / "spec.json"
        if spec_path.exists():
            try:
                spec = json.loads(spec_path.read_text())
            except json.JSONDecodeError:
                spec = {}
            if "sim_behaviour" in spec:
                return int(spec["sim_behaviour"])
        for record in self._manifest_records():
            if "sim_behaviour" in record:
                return int(record["sim_behaviour"])
        return None

    def study_partial_paths(self) -> List[Path]:
        """Per-worker study-pipeline partials, sorted by worker id.

        Written by ``repro study --campaign-dir DIR --shard I:K``; an
        empty list means no study shard has been flushed for this
        campaign yet.
        """
        if self.campaign_dir is None:
            return []
        partials = self.campaign_dir / STUDY_PARTIALS_DIRNAME
        if not partials.is_dir():
            return []
        return sorted(path for path in partials.glob("*.json")
                      if not path.name.startswith("."))

    def recorded_count(self) -> int:
        """How many conditions the manifest says were recorded ok.

        Unlike ``len(self.keys())`` this never loads a summary, so on a
        legacy manifest with an empty/wrong cache it still reports the
        manifest's claim — callers can compare it against what
        iteration actually yields to detect a missing cache.
        """
        if self._keys is not None:
            return len(self._keys)
        return sum(record.get("status") in OK_STATUSES
                   for record in self._manifest_records())

    # -- iteration -----------------------------------------------------------

    def load(self, key: ConditionKey) -> Optional[RecordingSummary]:
        """The summary recorded for one key, or None if missing/pruned."""
        return self.cache.load(key.label, key.fingerprint)

    def iter_summaries(
        self, missing: str = "skip",
    ) -> Iterator[Tuple[ConditionKey, RecordingSummary]]:
        """Yield ``(key, summary)`` pairs one at a time.

        ``missing`` says what to do when a key's recording is absent
        from the cache (pruned, or the condition failed): ``"skip"``
        (default — report on what exists) or ``"raise"`` (KeyError).
        """
        if missing not in ("skip", "raise"):
            raise ValueError(
                f"missing must be 'skip' or 'raise', got {missing!r}")
        for key in self.keys():
            summary = self.load(key)
            if summary is None:
                if missing == "raise":
                    raise KeyError(
                        f"condition {key.label} not recorded yet")
                continue
            yield key, summary

    def __iter__(self) -> Iterator[Tuple[ConditionKey, RecordingSummary]]:
        return self.iter_summaries()

    def __len__(self) -> int:
        return len(self.keys())


def campaign_report(
    campaign_dir: Union[str, Path],
    report: GridReport,
    cache_dir: Optional[Union[str, Path]] = None,
    check_behaviour: bool = True,
) -> GridReport:
    """Stream a campaign directory's recorded summaries into ``report``.

    Every recorded condition is added once (its latest manifest line).
    When the directory's ``spec.json`` rebuilds, summaries stream in
    the spec's sweep order, conditions the spec expects but no
    recording covers (failed, quarantined, pruned) are marked with
    :meth:`GridReport.mark_coverage`, and :meth:`GridReport.reorder`
    pins rows and columns — and so the default Welch baseline column —
    to the spec's order even when some are missing. The report then
    depends only on what was recorded, never on which worker finished
    first: a live report equals the post-hoc one, and a recovered chaos
    run equals a fault-free one.

    Raises :class:`StaleCampaignError` like :meth:`SummaryStore.open`,
    and :class:`FileNotFoundError` when the manifest lists recorded
    conditions but the cache holds none of them (wrong or pruned cache
    directory); a partly pruned cache logs a warning instead.
    """
    # campaign imports this module, so its spec parser is imported late.
    from repro.testbed.campaign import spec_from_json

    store = SummaryStore.open(campaign_dir, cache_dir=cache_dir,
                              check_behaviour=check_behaviour)
    try:
        conditions = spec_from_json(json.loads(
            (store.campaign_dir / "spec.json").read_text())).conditions()
    except (OSError, ValueError, KeyError, TypeError):
        conditions = []  # no usable spec: manifest order, no coverage
    expected = {condition.fingerprint(): condition.label
                for condition in conditions}
    rank = {fingerprint: index
            for index, fingerprint in enumerate(expected)}
    covered = set()
    keys, listed = store.recorded_keys()
    for key in sorted(keys,
                      key=lambda key: rank.get(key.fingerprint, len(rank))):
        summary = store.load(key)
        if summary is not None:
            report.add(key, summary)
            covered.add(key.fingerprint)
    if listed and not covered:
        raise FileNotFoundError(
            f"manifest lists {listed} recorded conditions but none were "
            f"found in the cache ({store.cache.directory}) — wrong or "
            f"pruned cache directory?")
    if len(covered) < listed:
        logger.warning(
            "%d of %d recorded conditions missing from the cache (%s); "
            "the report covers the remaining %d", listed - len(covered),
            listed, store.cache.directory, len(covered))
    if not expected:
        return report
    report.mark_coverage(len(expected), [
        label for fingerprint, label in expected.items()
        if fingerprint not in covered])
    return report.reorder(condition.key for condition in conditions)
