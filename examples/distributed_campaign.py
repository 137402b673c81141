#!/usr/bin/env python3
"""Cooperative multi-worker campaigns over one shared directory.

Three worker processes share one campaign grid through the lease-based
claim protocol (repro.testbed.distributed): each claims conditions via
atomic claims/<fingerprint>.lease files, simulates only what it holds,
and appends manifest lines stamped with its worker id. No condition is
ever simulated twice, a killed worker's leases expire and are reclaimed
by its peers, and the report over the shared directory is exactly the
one a single sequential worker would have produced.

On real deployments the workers run on different hosts mounting the
same filesystem — this demo uses local processes, which is the same
code path (the CLI equivalent is ``repro campaign --join DIR`` per
host; see README.md for the walkthrough).

Run:  python examples/distributed_campaign.py
"""

import json
import multiprocessing

from repro.analysis.streaming import GridReport
from repro.report import render_grid
from repro.testbed import Campaign, CampaignSpec, campaign_report
from repro.testbed.distributed import (
    LeaseConfig,
    join_campaign,
    run_worker,
)

CACHE = ".repro-cache"
SPEC = CampaignSpec(
    sites=["gov.uk", "apache.org", "wikipedia.org"],
    networks=["DSL", "LTE"],
    stacks=["TCP", "QUIC"],
    seeds=[0, 1],
    runs=3,
    name="distributed-demo",
)
LEASE = LeaseConfig(ttl_s=60.0, heartbeat_s=10.0, poll_s=0.2)


def worker(campaign_dir: str, worker_id: str) -> None:
    """One cooperative worker — in production, one per host."""
    campaign = join_campaign(campaign_dir, cache_dir=CACHE)
    result = run_worker(campaign, worker_id=worker_id, lease=LEASE,
                        processes=1, claim_chunk=2)
    print(f"  {worker_id}: {result.counts}")


def main() -> None:
    campaign = Campaign(SPEC, cache_dir=CACHE)
    campaign.write_spec()  # materialise the dir so workers can join it
    print(f"{len(SPEC.conditions())} conditions in "
          f"{campaign.campaign_dir}")

    workers = [
        multiprocessing.Process(
            target=worker, args=(str(campaign.campaign_dir), f"w{i}"))
        for i in range(3)
    ]
    for process in workers:
        process.start()
    for process in workers:
        process.join()

    # Every condition landed exactly once, attributed to its worker.
    lines = [json.loads(line) for line in open(campaign.manifest_path)]
    by_worker = {}
    for line in lines:
        by_worker[line["worker"]] = by_worker.get(line["worker"], 0) + 1
    unique = len({line["fingerprint"] for line in lines})
    print(f"\nmanifest: {len(lines)} lines, {unique} unique "
          f"conditions, split {by_worker}")

    # One report over the shared directory, in the spec's sweep order —
    # identical to a single sequential worker's.
    report = campaign_report(campaign.campaign_dir, GridReport(),
                             cache_dir=CACHE)
    print()
    print(render_grid(report))


if __name__ == "__main__":
    main()
