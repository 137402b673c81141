"""E-S1 — Study throughput: scalar reference vs vectorized pipeline.

Measures simulated participants/second for the microworker A/B and
rating studies at a multiple of the paper's participant counts
(``--scale``, default 10x: 4 870 A/B + 15 630 rating participants).

* ``scalar`` — the per-participant scalar reference path
  (:mod:`repro.study.reference`) materializing sessions, then the R1-R7
  conformance filters — the shape of the pre-vectorization pipeline.
* ``vectorized`` — :func:`repro.study.pipeline.build_partial`: the block
  engines in aggregate mode (no event draws, no session objects),
  folding straight into mergeable funnel/vote/moment state.

Both paths draw from the same RNG block tree, so they produce the same
votes (pinned exactly by tests/test_study_equivalence.py); the
equivalence is what makes the speedup a pure optimization.

Run standalone to merge a ``study_throughput`` snapshot into
``BENCH_hotpath.json`` (schema in benchmarks/README.md):

    PYTHONPATH=src python benchmarks/bench_study_throughput.py --label after

Numbers are machine-dependent: compare labels recorded on the same
machine, only within one ``SIM_BEHAVIOUR_VERSION``.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.study.design import StudyPlan  # noqa: E402
from repro.study.filtering import apply_filters  # noqa: E402
from repro.study.participants import GROUPS  # noqa: E402
from repro.study.pipeline import ConditionIndex, build_partial  # noqa: E402
from repro.study.reference import (  # noqa: E402
    run_ab_study_reference,
    run_rating_study_reference,
)
from repro.study.simulate import scaled_participants  # noqa: E402
from repro.testbed.harness import Testbed  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_hotpath.json"

SITES = ["gov.uk", "apache.org"]
GROUP = "microworker"
SEED = 5


def _participants(scale: float) -> tuple:
    behavior = GROUPS[GROUP]
    return (scaled_participants(behavior.participants_ab, scale, GROUP),
            scaled_participants(behavior.participants_rating, scale,
                                GROUP))


def bench_scalar(testbed, plan, scale: float) -> dict:
    """Scalar reference runners + conformance filters."""
    n_ab, n_rating = _participants(scale)
    start = time.perf_counter()
    ab = run_ab_study_reference(testbed, group=GROUP, plan=plan,
                                participants=n_ab, seed=SEED)
    rating = run_rating_study_reference(testbed, group=GROUP, plan=plan,
                                        participants=n_rating, seed=SEED)
    apply_filters(ab.sessions, GROUP, "ab")
    apply_filters(rating.sessions, GROUP, "rating")
    elapsed = time.perf_counter() - start
    total = n_ab + n_rating
    return {"participants": total, "seconds": round(elapsed, 3),
            "participants_per_s": round(total / elapsed, 1)}


def bench_vectorized(index, plan, scale: float) -> dict:
    """Vectorized aggregate pipeline (one shard, whole population)."""
    n_ab, n_rating = _participants(scale)
    start = time.perf_counter()
    build_partial(index, plan, seed=SEED, participants_scale=scale,
                  groups=(GROUP,))
    elapsed = time.perf_counter() - start
    total = n_ab + n_rating
    return {"participants": total, "seconds": round(elapsed, 3),
            "participants_per_s": round(total / elapsed, 1)}


def bench_study_throughput(scale: float) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        testbed = Testbed(runs=2, seed=3, cache_dir=tmp)
        testbed.sweep(sites=SITES)
        plan = StudyPlan(sites=SITES)
        index = ConditionIndex.from_testbed(testbed, plan)

        scalar = bench_scalar(testbed, plan, scale)
        vectorized = bench_vectorized(index, plan, scale)
    speedup = round(vectorized["participants_per_s"] /
                    scalar["participants_per_s"], 2)
    print(f"  scalar sessions: {scalar['seconds']:7.2f}s "
          f"({scalar['participants_per_s']:9.1f} participants/s)")
    print(f"  vector pipeline: {vectorized['seconds']:7.2f}s "
          f"({vectorized['participants_per_s']:9.1f} participants/s)")
    print(f"  speedup: {speedup}x")
    return {"scale": scale, "group": GROUP, "scalar": scalar,
            "vectorized": vectorized, "speedup": speedup}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="after",
                        help="snapshot label merged into BENCH_hotpath.json")
    parser.add_argument("--output", default=str(BENCH_PATH))
    parser.add_argument("--scale", type=float, default=10.0,
                        help="participant multiple of the paper's "
                             "counts (default: 10)")
    args = parser.parse_args(argv)

    results = bench_study_throughput(args.scale)

    path = Path(args.output)
    doc = {"schema": 1, "benchmarks": {}}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["benchmarks"].setdefault(
        "study_throughput", {})[args.label] = results
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} [{args.label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
