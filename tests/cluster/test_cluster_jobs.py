"""Cluster-layer leased jobs: rebuild, migration and per-node scrub.

Mirrors the CI jobs smoke: a two-node cluster where node 1 loses a
member disk while one of its surviving spindles sits in a 40x
fail-slow window.  With jobs armed the rebuild runs as a leased job,
the window expires its lease mid-step, and the recovery sweep +
epoch-fenced re-claim carry it to completion with a clean step ledger
and clean per-node content oracles.
"""

import dataclasses

from repro.cluster.rebalance import RebalanceSpec
from repro.cluster.replay import ClusterConfig
from repro.experiments.runner import RunSpec, Tenants, execute
from repro.faults import FailSlowSpec, NodeFailureSpec
from repro.jobs import JobsConfig, LeasePolicy, ScrubberSpec
from repro.sim.replay import ReplayConfig

JOBS = JobsConfig(
    workers=2,
    lease=LeasePolicy(
        duration=0.3, poll_interval=0.02, sweep_interval=0.1,
        max_retries=4, backoff=0.02,
    ),
)


def _run(cluster_config, jobs=JOBS):
    return execute(RunSpec(
        ["web-vm", "mail"], "select-dedupe", tenants=Tenants(copies=2),
        nodes=2, replay=ReplayConfig(jobs=jobs), cluster=cluster_config,
        seed=1, scale=0.02,
    ))


class TestClusterStaleLeaseRecovery:
    def test_fail_slow_window_forces_epoch_fenced_reclaim(self):
        result = _run(
            ClusterConfig(
                node_failure=NodeFailureSpec(
                    node=1, time=8.0, rows_per_batch=64, interval=0.02
                ),
                fail_slow=(
                    FailSlowSpec(disk=4, start=8.0, end=12.0, multiplier=40.0),
                ),
                verify_content=True,
            )
        )
        jobs = result.jobs_stats
        assert jobs is not None
        counters = jobs["counters"]
        assert counters["stale_leases_detected"] > 0
        assert counters["stale_lease_reclaims"] == counters["stale_leases_detected"]

        rebuilds = [j for j in jobs["jobs"] if j["kind"] == "rebuild"]
        assert len(rebuilds) == 1
        assert rebuilds[0]["state"] == "done"
        assert rebuilds[0]["epoch"] > 1
        # step ledger clean: no row batch lost or double-applied
        assert jobs["oracle"]["violations"] == []
        # node failure completed through the leased path
        assert result.cluster_stats["node_failure"]["done"]
        # per-node content oracles saw nothing wrong
        for node_oracle in result.cluster_stats["oracle"]:
            assert node_oracle["mismatches"] == 0

    def test_fail_slow_disk_out_of_range_rejected(self):
        import pytest

        from repro.errors import ClusterError

        with pytest.raises(ClusterError):
            _run(
                ClusterConfig(
                    fail_slow=(
                        FailSlowSpec(disk=99, start=1.0, end=2.0, multiplier=4.0),
                    )
                )
            )


class TestClusterJobsRoster:
    def test_rebalance_and_scrub_run_as_leased_jobs(self):
        jobs = dataclasses.replace(
            JOBS,
            scrub=ScrubberSpec(start=0.5, region_blocks=4096, interval=0.02,
                               regions=20),
        )
        result = _run(
            ClusterConfig(
                rebalance=RebalanceSpec(time=6.0, add_nodes=1,
                                        entries_per_batch=256, interval=0.01),
                verify_content=True,
            ),
            jobs=jobs,
        )
        roster = result.jobs_stats["jobs"]
        kinds = sorted(j["kind"] for j in roster)
        # one migration + one scrubber per original node
        assert kinds == ["migrate", "scrub", "scrub"]
        assert all(j["state"] == "done" for j in roster)
        assert result.jobs_stats["oracle"]["violations"] == []
        migrated = [j for j in roster if j["kind"] == "migrate"][0]
        assert migrated["detail"]["entries_migrated"] > 0

    def test_cluster_jobs_off_unchanged(self):
        baseline = _run(ClusterConfig(verify_content=True), jobs=None)
        assert baseline.jobs_stats is None
        assert baseline.cluster_stats is not None
