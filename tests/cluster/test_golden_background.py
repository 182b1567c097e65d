"""Byte-for-byte pins of the background work: member rebuilds and
shard migrations, paced without jobs and run as leased jobs.

One sha256 per case in ``golden_background_reports.sha256`` over the
run report (its timeline and span sections included), every span and
the recorded event stream.  Node failure and rebalance run on the
two-node cluster the CI smokes use; the member-failure case runs a
fault plan on one node.  A rebuild tick that issues a batch in another
order, a migration send or progress note that moves, or a recovery
event with other fields shows up as a changed digest.

If a case fails, find the behaviour change -- do NOT regenerate the
digests without understanding why they moved.  Print the digests of
the tree on ``PYTHONPATH`` with
``python tests/cluster/test_golden_background.py``.
"""

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Optional

import pytest

from repro.cluster.rebalance import RebalanceSpec
from repro.cluster.replay import ClusterConfig
from repro.experiments import runner
from repro.faults import FailSlowSpec, FaultPlan, NodeFailureSpec
from repro.jobs import JobsConfig, LeasePolicy
from repro.obs.events import TraceLevel
from repro.obs.report import build_run_report
from repro.obs.timeline import TimelineConfig
from repro.obs.trace import TraceRecorder
from repro.sim.replay import ReplayConfig

SCALE = 0.02
SEED = 1
GOLDEN = Path(__file__).with_name("golden_background_reports.sha256")

#: The lease policy of ``test_cluster_jobs.py``: short enough that the
#: fail-slow window expires a rebuild step's lease.
JOBS = JobsConfig(
    workers=2,
    lease=LeasePolicy(
        duration=0.3, poll_interval=0.02, sweep_interval=0.1,
        max_retries=4, backoff=0.02,
    ),
)


def _sha(
    cluster: ClusterConfig,
    jobs: Optional[JobsConfig] = None,
    level: TraceLevel = TraceLevel.SUMMARY,
) -> str:
    """Two nodes, two copies of web-vm and mail, timeline and spans
    armed and a recorder at ``level``."""
    recorder = TraceRecorder(level, max_events=None)
    result = runner.execute(
        runner.RunSpec(
            ["web-vm", "mail"], "POD", tenants=runner.Tenants(copies=2),
            nodes=2,
            replay=ReplayConfig(
                jobs=jobs, spans=True, timeline=TimelineConfig(window=5.0)
            ),
            cluster=cluster, seed=SEED, scale=SCALE,
        ),
        recorder=recorder,
    )
    return _digest(result, recorder)


def _digest(result, recorder: TraceRecorder) -> str:
    report = build_run_report(
        result, seed=SEED, scale=SCALE, recorder=recorder, clock=lambda: 0.0
    )
    h = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    for span in result.spans.spans:
        h.update(json.dumps(span.as_dict(), sort_keys=True).encode())
    for event in recorder.events:
        h.update(json.dumps(event.as_dict(), sort_keys=True).encode())
    return h.hexdigest()


def _member_failure() -> str:
    """A fault plan's member failure on one node, paced without jobs."""
    plan = FaultPlan.from_dict({
        "seed": 5,
        "member_failure": {
            "disk": 2, "time": 20.0, "rows_per_batch": 64, "interval": 0.02,
        },
    })
    recorder = TraceRecorder(TraceLevel.SUMMARY, max_events=None)
    result = runner.execute(
        runner.RunSpec(
            "web-vm", "POD",
            replay=ReplayConfig(
                faults=plan, spans=True, timeline=TimelineConfig(window=5.0)
            ),
            seed=SEED, scale=SCALE,
        ),
        recorder=recorder,
    )
    return _digest(result, recorder)


CASES: Dict[str, Callable[[], str]] = {
    "node-failure": lambda: _sha(ClusterConfig(
        node_failure=NodeFailureSpec(
            node=1, time=10.0, rows_per_batch=64, interval=0.02
        ),
        verify_content=True,
    )),
    "node-failure-capacity-aware": lambda: _sha(ClusterConfig(
        node_failure=NodeFailureSpec(
            node=0, disk=2, time=50.0, rows_per_batch=64, interval=0.02,
            capacity_aware=True,
        ),
        verify_content=True,
    )),
    # The CI jobs smoke: node 1's rebuild stalls behind a 40x fail-slow
    # window, its lease expires and the job is re-claimed.
    "node-failure-leased-fail-slow": lambda: _sha(
        ClusterConfig(
            node_failure=NodeFailureSpec(
                node=1, time=8.0, rows_per_batch=64, interval=0.02
            ),
            fail_slow=(
                FailSlowSpec(disk=4, start=8.0, end=12.0, multiplier=40.0),
            ),
            verify_content=True,
        ),
        JOBS,
    ),
    # Every migration send is a CHUNK-level RPC event: the stream pins
    # them against the migration's progress events.
    "rebalance-add": lambda: _sha(
        ClusterConfig(
            rebalance=RebalanceSpec(time=15.0, add_nodes=1, entries_per_batch=64),
            verify_content=True,
        ),
        level=TraceLevel.CHUNK,
    ),
    "rebalance-add-remove": lambda: _sha(ClusterConfig(
        rebalance=RebalanceSpec(time=50.0, add_nodes=1, remove_node=0),
        verify_content=True,
    )),
    "rebalance-leased": lambda: _sha(
        ClusterConfig(
            rebalance=RebalanceSpec(time=15.0, add_nodes=1, entries_per_batch=64),
            verify_content=True,
        ),
        JOBS,
    ),
    "member-failure": _member_failure,
}


def _golden() -> Dict[str, str]:
    out: Dict[str, str] = {}
    for line in GOLDEN.read_text().splitlines():
        if line.strip():
            digest, case = line.split(maxsplit=1)
            out[case] = digest
    return out


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_background_work_matches_committed_sha(case):
    assert CASES[case]() == _golden()[case]


if __name__ == "__main__":
    for name in CASES:
        print(CASES[name](), name)
