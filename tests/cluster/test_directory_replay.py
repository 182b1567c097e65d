"""Replicated-directory replay integration.

The contracts this file pins:

1. **Golden bit-identity.**  With ``directory=None`` (and at R=1, GC
   off) the cluster replay must stay byte-identical to the
   pre-directory code path -- the default report's sha256 is committed
   in ``golden_cluster_report.sha256`` and checked here.  Armed
   directory runs are pinned too, one sha256 per configuration in
   ``golden_directory_reports.sha256``: a drifted repair order,
   refcount or wire charge shows up as a changed report.
2. **Armed R=1 equivalence.**  Arming the directory at R=1 changes the
   bookkeeping machinery but not a single replay decision: metrics and
   shard contents match the legacy path exactly.
3. **Kill under quorum.**  Killing a metadata node mid-run degrades
   nothing user-visible: the run completes, divergence is healed by
   read repair, online GC reclaims dead entries, and the content
   oracle plus the job step ledger stay clean.
4. **Stop-the-world baseline.**  ``mode="stw"`` really stalls
   foreground arrivals -- the disruption the online GC exists to avoid.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterConfig,
    Consistency,
    DirectoryConfig,
    GcSpec,
    KillSpec,
    RebalanceSpec,
)
from repro.errors import ClusterError, ConfigError
from repro.experiments import runner
from repro.jobs import JobsConfig
from repro.obs.report import build_run_report
from repro.obs.timeline import TimelineConfig
from repro.sim.replay import ReplayConfig

SCALE = 0.05
SEED = 7
GOLDEN = Path(__file__).with_name("golden_cluster_report.sha256")
GOLDEN_DIRECTORY = Path(__file__).with_name("golden_directory_reports.sha256")


def _report_sha(result):
    report = build_run_report(result, seed=SEED, scale=SCALE, clock=lambda: 0.0)
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()


def _run(nodes=2, cluster_config=None, replay_config=None, scale=SCALE):
    return runner.execute(runner.RunSpec(
        ["web-vm", "mail"], "POD", tenants=runner.Tenants(copies=2),
        nodes=nodes, replay=replay_config or ReplayConfig(),
        cluster=cluster_config or ClusterConfig(), seed=SEED, scale=scale,
    ))


def _trace_end(scale=SCALE):
    volumes = runner.multi_tenant_traces(
        ["web-vm", "mail"], copies=2, scale=scale, seed=SEED
    )
    return max(rec.time for t in volumes for rec in t.records)


def _killed_config():
    """R=3 QUORUM, node 1's metadata killed at a quarter of the run,
    online GC from a tenth of it."""
    t_end = _trace_end()
    return ClusterConfig(
        directory=DirectoryConfig(
            replication=3,
            consistency=Consistency.QUORUM,
            gc=GcSpec(start=0.1 * t_end, interval=0.02, batch=64),
            kill=KillSpec(node=1, time=0.25 * t_end),
        ),
        verify_content=True,
    )


def _run_killed(replay_config=None):
    return _run(
        nodes=3,
        cluster_config=_killed_config(),
        replay_config=(
            replay_config
            if replay_config is not None
            else ReplayConfig(jobs=JobsConfig())
        ),
    )


def _golden_directory():
    out = {}
    for line in GOLDEN_DIRECTORY.read_text().splitlines():
        digest, case = line.split(" ", 1)
        out[case] = digest
    return out


#: Armed-directory configurations pinned by sha256 (besides the
#: ``killed`` fixture below).
DIRECTORY_CASES = {
    # The benchmark's shape: 3 nodes, R=2 QUORUM, online GC as a leased
    # job, content oracle on.
    "r2-quorum-gc": lambda: _run(
        nodes=3,
        cluster_config=ClusterConfig(
            verify_content=True,
            directory=DirectoryConfig(
                replication=2, consistency=Consistency.QUORUM, gc=GcSpec()
            ),
        ),
        replay_config=ReplayConfig(jobs=JobsConfig()),
    ),
    # R=3 ALL with a metadata kill: every lookup after the kill is
    # degraded to the two survivors.
    "r3-all-kill": lambda: _run(
        nodes=3,
        cluster_config=ClusterConfig(
            verify_content=True,
            directory=DirectoryConfig(
                replication=3,
                consistency=Consistency.ALL,
                kill=KillSpec(node=1, time=0.25 * _trace_end()),
            ),
        ),
    ),
    # The killed configuration with spans and timeline armed, so the
    # per-link lookup, repair and GC wire charges are pinned too.
    "killed-telemetry": lambda: _run_killed(
        ReplayConfig(
            jobs=JobsConfig(), spans=True, timeline=TimelineConfig(window=5.0)
        )
    ),
}


class TestGoldenBitIdentity:
    def test_default_report_matches_committed_sha(self):
        """The R=1/GC-off default replay is pinned byte for byte.  If
        this fails, the directory feature gate leaked into the legacy
        path -- do NOT regenerate the golden without understanding why.
        """
        assert _report_sha(_run()) == GOLDEN.read_text().strip()

    @pytest.mark.parametrize("case", sorted(DIRECTORY_CASES))
    def test_armed_directory_report_matches_committed_sha(self, case):
        """Armed-directory replays are pinned byte for byte; a moved
        digest means the directory decided or charged something
        differently."""
        assert _report_sha(DIRECTORY_CASES[case]()) == _golden_directory()[case]


class TestArmedR1Equivalence:
    @pytest.fixture(scope="class")
    def pair(self):
        legacy = _run()
        armed = _run(
            cluster_config=ClusterConfig(
                directory=DirectoryConfig(replication=1)
            )
        )
        return legacy, armed

    def test_metrics_identical(self, pair):
        legacy, armed = pair
        ls, as_ = legacy.summary(), armed.summary()
        for key in ("mean_response", "p99_response", "makespan", "requests"):
            assert ls[key] == as_[key]
        for key in ("remote_lookups", "remote_duplicate_blocks"):
            assert ls["cluster"][key] == as_["cluster"][key]
        assert (
            legacy.cluster_stats["shard_entries"]
            == armed.cluster_stats["shard_entries"]
        )

    def test_node_sections_identical_modulo_directory(self, pair):
        legacy, armed = pair
        for ln, an in zip(legacy.nodes, armed.nodes):
            an = dict(an)
            assert an.pop("directory", None) is not None
            assert ln == an

    def test_directory_section_present_only_when_armed(self, pair):
        legacy, armed = pair
        assert "directory" not in legacy.cluster_stats
        d = armed.cluster_stats["directory"]
        assert d["replication"] == 1
        assert d["read_repairs"] == 0  # single copy: nothing to diverge


class TestKillUnderQuorum:
    @pytest.fixture(scope="class")
    def killed(self):
        return _run_killed()

    def test_report_matches_committed_sha(self, killed):
        assert _report_sha(killed) == _golden_directory()["killed"]

    def test_run_completes_and_heals_by_read_repair(self, killed):
        d = killed.cluster_stats["directory"]
        assert d["down_members"] == [1] and d["kills"] == 1
        assert d["read_repairs"] > 0
        assert d["repair_pushes"] >= d["read_repairs"]
        assert d["unavailable_lookups"] == 0  # quorum survives one kill
        assert killed.nodes[1]["directory"]["down"] is True
        # the killed node's data plane kept serving I/O
        assert killed.nodes[1]["requests_served"] > 0

    def test_gc_reclaimed_without_collecting_live_blocks(self, killed):
        gc = killed.cluster_stats["directory"]["gc"]
        assert gc["gc_reclaimed_blocks"] > 0
        assert gc["gc_live_skips"] == 0
        assert gc["decrements_applied"] > 0
        assert gc["journal_records"] > 0
        assert gc["gc_rounds"] > 0

    def test_job_ledger_and_oracle_clean(self, killed):
        jobs = killed.jobs_stats
        assert jobs["oracle"]["violations"] == []
        roster = [j for j in jobs["jobs"] if j["kind"] == "gc"]
        assert len(roster) == 1 and roster[0]["state"] == "done"
        detail = roster[0]["detail"]
        assert detail["rounds_done"] == detail["rounds_total"]
        assert roster[0]["steps_committed"] == detail["rounds_total"]
        for o in killed.cluster_stats["oracle"]:
            assert o["mismatches"] == 0 and o["reads_checked"] > 0

    def test_remote_references_upgraded(self, killed):
        d = killed.cluster_stats["directory"]
        assert d["remote_refs_registered"] > 0
        assert d["registrations"] > 0 and d["lookups"] > d["registrations"]

    def test_deterministic(self, killed):
        again = _run_killed()
        assert again.cluster_stats["directory"] == killed.cluster_stats[
            "directory"
        ]
        assert again.summary() == killed.summary()


class TestStopTheWorldBaseline:
    def test_sweep_stalls_foreground_arrivals(self):
        t_end = _trace_end(scale=0.02)
        result = _run(
            scale=0.02,
            cluster_config=ClusterConfig(
                directory=DirectoryConfig(
                    replication=2,
                    gc=GcSpec(
                        start=0.5 * t_end, entry_cost=2e-3, mode="stw"
                    ),
                )
            ),
        )
        gc = result.cluster_stats["directory"]["gc"]
        assert gc["mode"] == "stw"
        assert gc["stw_processed_intents"] > 0
        assert gc["stw_stalled_requests"] > 0


class TestValidation:
    def test_directory_plus_rebalance_rejected(self):
        with pytest.raises(ConfigError):
            _run(
                cluster_config=ClusterConfig(
                    directory=DirectoryConfig(replication=2),
                    rebalance=RebalanceSpec(time=1.0, add_nodes=1),
                )
            )

    def test_replication_exceeding_cluster_rejected(self):
        with pytest.raises(ClusterError):
            _run(
                nodes=2,
                cluster_config=ClusterConfig(
                    directory=DirectoryConfig(replication=3)
                ),
            )

    def test_kill_of_unknown_node_rejected(self):
        with pytest.raises(ClusterError):
            _run(
                nodes=2,
                cluster_config=ClusterConfig(
                    directory=DirectoryConfig(
                        replication=2, kill=KillSpec(node=5, time=1.0)
                    )
                ),
            )

    def test_online_gc_without_jobs_rejected(self):
        with pytest.raises(ConfigError):
            _run(
                cluster_config=ClusterConfig(
                    directory=DirectoryConfig(replication=2, gc=GcSpec())
                )
            )
