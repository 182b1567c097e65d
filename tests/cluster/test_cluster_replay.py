"""Cluster replay integration: golden one-node bit-identity, multi-node
determinism, accounting conservation, and live-rebalance safety.

The three load-bearing contracts of the cluster subsystem:

1. **One-node identity.**  ``replay_cluster`` with a single node and no
   cluster features is the same replay as ``replay_traces`` -- summary,
   scheme stats and the full run report must match byte for byte.
2. **Determinism.**  The same seed and configuration reproduce a
   multi-node run report byte-for-byte (the cluster layer introduces
   no hidden entropy: routing, the fabric and migration pacing are all
   pure functions of their inputs).
3. **Conservation.**  Per-node breakdowns sum to the cluster totals,
   and live rebalancing never breaks POD invariants or serves a wrong
   read (content oracle per node).
"""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.baselines.base import SchemeConfig
from repro.baselines.native import Native
from repro.cluster import ClusterConfig, NetworkModel, RebalanceSpec
from repro.cluster.replay import _ClusterReplay
from repro.dedup.chunking import ChunkingConfig
from repro.errors import ConfigError
from repro.experiments import runner
from repro.faults import FaultPlan, NodeFailureSpec
from repro.obs.report import build_run_report
from repro.sim.replay import ReplayConfig
from repro.sim.request import OpType
from repro.traces.format import Trace, TraceRecord

SCALE = 0.05
SEED = 7


def _report_bytes(result, **kwargs):
    """Canonical byte serialisation of a run report (fixed clock)."""
    report = build_run_report(
        result, seed=SEED, scale=SCALE, clock=lambda: 0.0, **kwargs
    )
    return json.dumps(report, sort_keys=True).encode()


class TestGoldenOneNode:
    """N=1 cluster replay is *the* single-node replay, bit for bit."""

    def test_summary_and_stats_identical_to_run_multi(self):
        multi = runner.execute(runner.RunSpec(
            ["web-vm"], "POD", tenants=runner.Tenants(copies=2), seed=SEED,
            scale=SCALE,
        ))
        one = runner.execute(runner.RunSpec(
            ["web-vm"], "POD", tenants=runner.Tenants(copies=2), nodes=1,
            seed=SEED, scale=SCALE,
        ))
        # exact == on floats is deliberate: bit-identity, not closeness.
        assert one.summary() == multi.summary()
        assert one.scheme_stats == multi.scheme_stats
        assert one.capacity_blocks == multi.capacity_blocks
        assert one.utilisation == multi.utilisation
        assert one.epoch_timeline == multi.epoch_timeline
        # no cluster decoration on the plain one-node path
        assert one.nodes == []
        assert one.cluster_stats is None

    @pytest.mark.parametrize(
        "traces, copies",
        [(("web-vm", "mail"), 2), (("homes",), 3)],
        ids=["web-vm+mail", "homes-x3"],
    )
    def test_report_byte_identical_to_run_multi(self, traces, copies):
        multi = runner.RunSpec(
            traces, "POD", tenants=runner.Tenants(copies=copies),
            seed=SEED, scale=SCALE,
        )
        one = dataclasses.replace(multi, nodes=1)
        assert _report_bytes(runner.execute(one)) == \
            _report_bytes(runner.execute(multi))


class TestMultiNodeDeterminism:
    def test_same_seed_reproduces_report_bytes(self):
        a = runner.execute(runner.RunSpec(
            ["web-vm", "mail"], "POD", tenants=runner.Tenants(copies=2),
            nodes=2, seed=SEED, scale=SCALE,
        ))
        b = runner.execute(runner.RunSpec(
            ["web-vm", "mail"], "POD", tenants=runner.Tenants(copies=2),
            nodes=2, seed=SEED, scale=SCALE,
        ))
        assert _report_bytes(a) == _report_bytes(b)

    def test_network_latency_is_actually_charged(self):
        """A slower fabric must not speed anything up; remote lookups
        must pay for it in mean response time."""
        fast = runner.execute(runner.RunSpec(
            ["web-vm"], "POD", tenants=runner.Tenants(copies=2), nodes=2,
            cluster=ClusterConfig(net=NetworkModel(latency=1e-6)), seed=SEED,
            scale=SCALE,
        ))
        slow = runner.execute(runner.RunSpec(
            ["web-vm"], "POD", tenants=runner.Tenants(copies=2), nodes=2,
            cluster=ClusterConfig(net=NetworkModel(latency=5e-3)), seed=SEED,
            scale=SCALE,
        ))
        f, s = fast.summary(), slow.summary()
        assert s["mean_response"] > f["mean_response"]
        assert s["cluster"]["remote_lookups"] == f["cluster"]["remote_lookups"]


class TestAccountingConservation:
    @pytest.fixture(scope="class")
    def two_node(self):
        return runner.execute(runner.RunSpec(
            ["web-vm", "mail"], "POD", tenants=runner.Tenants(copies=2),
            nodes=2, seed=SEED, scale=SCALE,
        ))

    def test_node_sections_present(self, two_node):
        assert len(two_node.nodes) == 2
        assert [n["node_id"] for n in two_node.nodes] == [0, 1]
        assert two_node.cluster_stats is not None
        assert two_node.cluster_stats["nodes"] == 2

    def test_per_node_sums_equal_cluster_totals(self, two_node):
        cluster = two_node.cluster_stats
        for key in ("remote_lookups", "remote_duplicate_blocks", "rebalance_misses"):
            assert sum(n[key] for n in two_node.nodes) == cluster[key]
        assert (
            sum(n["capacity_blocks"] for n in two_node.nodes)
            == two_node.capacity_blocks
        )
        # node counters are whole-run; the headline excludes warm-up
        assert (
            sum(n["writes_total"] for n in two_node.nodes) >= two_node.writes_total
        )

    def test_every_request_served_exactly_once(self, two_node):
        volumes = runner.multi_tenant_traces(
            ["web-vm", "mail"], copies=2, scale=SCALE, seed=SEED
        )
        total = sum(len(t.records) for t in volumes)
        assert sum(n["requests_served"] for n in two_node.nodes) == total

    def test_cross_node_duplicates_detected(self, two_node):
        """Tenant clones land on different nodes (round-robin), so the
        shared golden image shows up as remote duplicates."""
        cluster = two_node.cluster_stats
        assert cluster["remote_lookups"] > 0
        assert cluster["remote_duplicate_blocks"] > 0
        assert cluster["fabric"]["rpcs"] > 0
        assert cluster["fabric"]["bytes_moved"] > 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            runner.execute(runner.RunSpec(
                ["web-vm"], "POD", tenants=runner.Tenants(copies=2), nodes=0,
                seed=SEED, scale=SCALE,
            ))
        with pytest.raises(ConfigError):
            runner.execute(runner.RunSpec(
                ["web-vm"], "POD", tenants=runner.Tenants(copies=2), nodes=5,
                seed=SEED, scale=SCALE,
            ))


class TestContentOracleReport:
    """``verify_content`` checks every read on every node, and the
    per-node oracle summary reaches ``cluster_stats`` (and the report's
    ``cluster`` section) at any node count, one node included."""

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_oracle_summary_reported(self, nodes):
        result = runner.execute(runner.RunSpec(
            ["mail"], "POD", tenants=runner.Tenants(copies=2), nodes=nodes,
            cluster=ClusterConfig(verify_content=True), seed=1, scale=0.02,
        ))
        assert result.cluster_stats is not None
        oracle = result.cluster_stats["oracle"]
        assert [o["node"] for o in oracle] == list(range(nodes))
        assert all(o["reads_checked"] > 0 and o["mismatches"] == 0 for o in oracle)
        # Every read is checked once, on its owner node.
        reads = sum(n["read_requests"] for n in result.nodes)
        assert reads == result.metrics.as_dict()["read_requests"] > 0
        report = build_run_report(result, seed=1, scale=0.02, clock=lambda: 0.0)
        assert report["cluster"]["oracle"] == oracle


class TestContentOracleVersusChunking:
    """Both content oracles check reads against the raw trace
    fingerprints, which content-defined chunking rewrites: the pairing
    is refused before any request replays, not reported as wrong
    reads at the end."""

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_verify_content_with_cdc_rejected_up_front(self, nodes):
        with pytest.raises(ConfigError, match="content-defined chunking"):
            runner.execute(runner.RunSpec(
                ["mail"], "POD", {"chunking": ChunkingConfig()},
                tenants=runner.Tenants(copies=2), nodes=nodes,
                cluster=ClusterConfig(verify_content=True), seed=1, scale=0.02,
            ))

    def test_faults_with_cdc_rejected_up_front(self):
        with pytest.raises(ConfigError, match="content-defined chunking"):
            runner.execute(runner.RunSpec(
                "mail", "POD", {"chunking": ChunkingConfig()},
                replay=ReplayConfig(faults=FaultPlan()), seed=1, scale=0.02,
            ))

    def test_node_failure_and_fault_plan_rejected_together(self):
        with pytest.raises(ConfigError, match="node_failure cannot be combined"):
            runner.execute(runner.RunSpec(
                ["mail"], "POD", tenants=runner.Tenants(copies=1), nodes=1,
                replay=ReplayConfig(failed_disk=1),
                cluster=ClusterConfig(
                    node_failure=NodeFailureSpec(node=0, disk=2, time=1.0)
                ),
                seed=1, scale=0.02,
            ))

    def test_faults_need_exactly_one_node(self):
        with pytest.raises(ConfigError, match="multi-node"):
            runner.execute(runner.RunSpec(
                ["mail"], "POD", tenants=runner.Tenants(copies=2), nodes=2,
                replay=ReplayConfig(faults=FaultPlan()), seed=1, scale=0.02,
            ))


class TestLiveRebalance:
    @pytest.fixture(scope="class")
    def rebalanced(self):
        volumes = runner.multi_tenant_traces(
            ["web-vm", "mail"], copies=2, scale=SCALE, seed=SEED
        )
        t_end = max(rec.time for t in volumes for rec in t.records)
        return runner.execute(runner.RunSpec(
            ["web-vm", "mail"], "POD", tenants=runner.Tenants(copies=2),
            nodes=2,
            replay=ReplayConfig(check_invariants=True, sanitize_every=500),
            cluster=ClusterConfig(
                rebalance=RebalanceSpec(
                    time=0.25 * t_end, add_nodes=1, entries_per_batch=64
                ),
                verify_content=True,
            ),
            seed=SEED, scale=SCALE,
        ))

    def test_migration_ran_and_drained(self, rebalanced):
        rb = rebalanced.cluster_stats["rebalance"]
        assert rb["add_nodes"] == 1
        assert rb["entries_total"] > 0
        assert rb["entries_migrated"] == rb["entries_total"]
        assert rb["entries_remaining"] == 0
        # ring gained the directory-only member
        assert rebalanced.cluster_stats["ring_members"] == [0, 1, 2]
        assert "2" in rebalanced.cluster_stats["shard_entries"]

    def test_invariants_clean_during_rebalance(self, rebalanced):
        assert rebalanced.sanitizer is not None
        assert rebalanced.sanitizer.summary()["violations_found"] == 0

    def test_no_wrong_reads(self, rebalanced):
        oracle = rebalanced.cluster_stats["oracle"]
        assert [o["node"] for o in oracle] == [0, 1]
        for o in oracle:
            assert o["mismatches"] == 0
            assert o["reads_checked"] > 0

    def test_rebalance_misses_are_the_only_dedup_cost(self, rebalanced):
        """Misses during the in-flight window are counted, never fatal."""
        cluster = rebalanced.cluster_stats
        assert cluster["rebalance_misses"] >= 0
        assert sum(
            n["rebalance_misses"] for n in rebalanced.nodes
        ) == cluster["rebalance_misses"]


def _event_loop(nodes):
    """An armed, not yet run, event loop over one tiny volume per node."""
    traces = [
        Trace(
            f"v{n}",
            [TraceRecord(1.0, OpType.WRITE, 0, 2, (10 + n, 20 + n))],
            logical_blocks=8,
        )
        for n in range(nodes)
    ]
    schemes = [
        Native(SchemeConfig(logical_blocks=8, memory_bytes=4096))
        for _ in range(nodes)
    ]
    return _ClusterReplay(
        traces, schemes, ClusterConfig(), ReplayConfig(),
        assignment=list(range(nodes)), collector=None, recorder=None,
        per_volume_metrics=True,
    )


class _FabricStub:
    """Records round trips and completes each at a fixed time per
    destination."""

    last_service = 0.0
    last_queue_wait = 0.0

    def __init__(self, done_at):
        self.done_at = done_at
        self.calls = []

    def round_trip(self, now, src, dst, nbytes):
        self.calls.append((now, src, dst, nbytes))
        return self.done_at[dst]


class TestReplaySteps:
    """Steps of the event loop, one method each, checked alone."""

    def test_send_links_visits_destinations_in_sorted_order(self):
        loop = _event_loop(nodes=3)
        loop.fabric = stub = _FabricStub({0: 2.0, 1: 5.0, 2: 3.0})
        latest = loop.send_links(1.0, 0, {2: 3, 0: 2, 1: 1}, 64)
        assert stub.calls == [(1.0, 0, 0, 128), (1.0, 0, 1, 64), (1.0, 0, 2, 192)]
        # The RPCs run in parallel: the latest completion, not a sum.
        assert latest == 5.0

    def test_send_links_without_counts_returns_now(self):
        loop = _event_loop(nodes=2)
        loop.fabric = stub = _FabricStub({})
        assert loop.send_links(4.5, 1, {}, 64) == 4.5
        assert stub.calls == []

    @pytest.mark.parametrize(
        "stw_until, blocked, admitted, release",
        [
            (0.0, 0.0, 0.0, None),  # nothing holds it: handled at once
            (0.0, 3.0, 0.0, 3.0),  # crash recovery
            (0.0, 0.0, 4.0, 4.0),  # admission
            (0.0, 3.0, 4.0, 4.0),  # the later of the two
            (0.0, 5.0, 4.0, 5.0),
            (6.0, 3.0, 4.0, 6.0),  # a stop-the-world sweep holds it
            (6.0, 7.0, 4.0, 7.0),  # ... and crash recovery past it
            (6.0, 3.0, 8.0, 8.0),  # ... and admission past it
        ],
    )
    def test_arrival_release_rule(self, stw_until, blocked, admitted, release):
        """An arrival is released at the latest of the end of a
        stop-the-world sweep, the injector's block and admission; the
        handler always gets its arrival time."""
        loop = _event_loop(nodes=1)
        handled, scheduled, charged = [], [], []

        def admit(vid, t, nblocks):
            charged.append(t)
            return max(t, admitted)

        loop.handle_request = lambda request, arrival: handled.append(
            (request, arrival)
        )
        loop.sim.schedule_callback = lambda t, fn, *args: scheduled.append(
            (t, fn, args)
        )
        loop.stw_until = stw_until
        loop.injector = SimpleNamespace(blocked_until_for=lambda vid: blocked)
        loop.admission = SimpleNamespace(admit=admit)
        request = loop.requests[0]
        loop.on_arrival(1.0, request)
        if release is None:
            assert handled == [(request, 1.0)] and scheduled == []
        else:
            assert handled == []
            assert scheduled == [(release, loop.handle_request, (request, 1.0))]
        # Admission is charged at the later of the sweep's end and the
        # injector's release.
        assert charged == [max(1.0, stw_until, blocked)]
        assert loop.stw_stalled == (1 if stw_until > 1.0 else 0)
