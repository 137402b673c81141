"""Testbed orchestration: condition sweeps and campaigns with caching.

Mirrors the paper's measurement campaign: every (website, network, stack)
condition is recorded ``runs`` times, a typical run is selected, and the
result is summarised for the user studies and analyses. Sweeps are cached
on disk because the full 36 x 4 x 5 grid is tens of thousands of page
loads.

Layers:

* :class:`Testbed` — sequential sweeps with a content-addressed disk
  cache (cache keys hash the *full* condition parameters, so changing
  any parameter can never return a stale recording).
* :class:`Campaign` / :class:`CampaignSpec` — declarative, resumable
  campaigns over arbitrary axes (sites × networks × stacks × seeds,
  including derived loss-sweep and trace-driven network profiles), with
  per-condition completion manifests, live progress and a worker
  failure policy.
* :class:`SummaryStore` / :class:`ConditionKey` — streaming access to a
  campaign's recordings: lazy ``(key, summary)`` iteration, live (via
  :meth:`Campaign.summary_store` or the ``sink`` argument of
  :meth:`Campaign.run`) or post-hoc from a campaign directory on disk;
  :func:`campaign_report` renders a directory as a grid report in the
  spec's sweep order.
* :mod:`repro.testbed.distributed` — cooperative multi-host execution:
  lease-based claims let any number of :func:`run_worker` processes
  (``repro campaign --join DIR``) share one campaign directory without
  double-simulating.
"""

from repro.testbed.campaign import (
    Campaign,
    CampaignError,
    CampaignResult,
    CampaignSpec,
    Condition,
    ConditionResult,
    Progress,
    ProgressPrinter,
    run_campaign_spec,
    spec_from_json,
)
from repro.testbed.distributed import (
    LeaseConfig,
    LeaseManager,
    default_worker_id,
    join_campaign,
    run_worker,
)
from repro.testbed.harness import (
    RecordingCache,
    RecordingSummary,
    Testbed,
    condition_fingerprint,
)
from repro.testbed.store import (
    CONDITION_AXES,
    ConditionKey,
    StaleCampaignError,
    SummaryStore,
    campaign_report,
)

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "Condition",
    "ConditionKey",
    "ConditionResult",
    "CONDITION_AXES",
    "Progress",
    "ProgressPrinter",
    "RecordingCache",
    "RecordingSummary",
    "LeaseConfig",
    "LeaseManager",
    "StaleCampaignError",
    "SummaryStore",
    "Testbed",
    "campaign_report",
    "condition_fingerprint",
    "default_worker_id",
    "join_campaign",
    "run_campaign_spec",
    "run_worker",
    "spec_from_json",
]
