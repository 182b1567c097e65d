"""Golden regression + multi-volume shared-dedup-domain integration.

Two contracts of the namespace refactor:

1. **Single-volume bit-identity.**  ``replay_trace`` is now the N=1
   special case of ``replay_traces``; the exact summary values below
   were captured from the pre-refactor code path (same seeds, same
   scale) and must keep reproducing to the last bit.  Any deviation
   means the refactor changed the classic replay semantics.

2. **Shared dedup domain.**  Replaying K tenant clones through ONE
   scheme instance must collapse cross-volume duplicates: POD's
   capacity grows sublinearly in K while Native's stays linear, and
   the per-volume metric breakdowns attribute the dedupe correctly.
"""

import pytest

from repro.baselines.base import SchemeConfig
from repro.baselines.registry import DEFAULT_REGISTRY
from repro.experiments import runner
from repro.sim.replay import ReplayConfig, replay_trace, replay_traces
from repro.traces.synthetic import clone_tenants, generate_trace, paper_traces

SCALE = 0.05
SEED = 7

#: (trace, scheme) -> (requests, mean_response, read_mean_response,
#: write_mean_response, capacity_blocks, removed_write_pct,
#: writes_eliminated_blocks), captured on the pre-namespace main.
GOLDEN = {
    ("web-vm", "POD"): (
        1500, 0.029931439484267297, 0.02682216193888085,
        0.031189124783524737, 4658, 38.670411985018724, 1244,
    ),
    ("web-vm", "Native"): (
        1500, 0.05601857263412324, 0.02816170419471166,
        0.06728651941860433, 5778, 0.0, 0,
    ),
    ("mail", "Select-Dedupe"): (
        3200, 0.04327705286316734, 0.05207815840063561,
        0.04074018025252834, 24592, 48.470209339774556, 13614,
    ),
}


class TestGoldenSingleVolume:
    @pytest.mark.parametrize("trace_name,scheme_name", sorted(GOLDEN))
    def test_summary_bit_identical_to_pre_refactor(self, trace_name, scheme_name):
        result = runner.execute(runner.RunSpec(
            trace_name, scheme_name, seed=SEED, scale=SCALE,
        ))
        s = result.summary()
        got = (
            s["requests"],
            s["mean_response"],
            s["read_mean_response"],
            s["write_mean_response"],
            s["capacity_blocks"],
            s["removed_write_pct"],
            s["writes_eliminated_blocks"],
        )
        # exact == on floats is deliberate: the contract is
        # bit-identity, not closeness.
        assert got == GOLDEN[(trace_name, scheme_name)]
        # classic replays carry no per-volume section
        assert result.volumes == []
        assert "volumes" not in s

    def test_replay_trace_equals_replay_traces_of_one(self):
        spec = paper_traces()["web-vm"]
        trace = generate_trace(spec, seed=SEED, scale=SCALE)

        def build():
            return DEFAULT_REGISTRY.build(
                "POD",
                SchemeConfig(
                    logical_blocks=trace.logical_blocks,
                    memory_bytes=spec.scaled(SCALE).memory_bytes,
                    icache_epoch=max(1.0, 16.0 * SCALE),
                ),
            )

        a = replay_trace(trace, build(), ReplayConfig())
        b = replay_traces([trace], build(), ReplayConfig(),
                          per_volume_metrics=False)
        sa, sb = a.summary(), b.summary()
        assert sa == sb
        assert a.scheme_stats == b.scheme_stats


def _family(copies):
    spec = paper_traces()["web-vm"].scaled(SCALE)
    base = generate_trace(spec, seed=SEED, scale=1.0)
    return spec, clone_tenants(base, copies, divergence=0.15, seed=SEED)


def _shared_run(scheme_name, copies):
    spec, volumes = _family(copies)
    scheme = DEFAULT_REGISTRY.build(
        scheme_name,
        SchemeConfig(
            logical_blocks=sum(t.logical_blocks for t in volumes),
            memory_bytes=spec.memory_bytes * copies,
            icache_epoch=max(1.0, 16.0 * SCALE),
        ),
    )
    return replay_traces(volumes, scheme, ReplayConfig())


def _isolated_capacity(scheme_name, copies):
    spec, volumes = _family(copies)
    total = 0
    for trace in volumes:
        scheme = DEFAULT_REGISTRY.build(
            scheme_name,
            SchemeConfig(
                logical_blocks=trace.logical_blocks,
                memory_bytes=spec.memory_bytes,
                icache_epoch=max(1.0, 16.0 * SCALE),
            ),
        )
        total += replay_trace(trace, scheme, ReplayConfig()).capacity_blocks
    return total


class TestSharedDedupDomain:
    def test_pod_capacity_sublinear_native_linear(self):
        pod1 = _shared_run("POD", 1).capacity_blocks
        pod3 = _shared_run("POD", 3).capacity_blocks
        native1 = _shared_run("Native", 1).capacity_blocks
        native3 = _shared_run("Native", 3).capacity_blocks
        # Native stores every tenant's blocks privately: linear in K.
        assert native3 == pytest.approx(3 * native1, rel=0.02)
        # POD collapses the shared golden image across tenants: clearly
        # sublinear in K.  (Select-Dedupe only removes *performance-
        # profitable* duplicates, so the collapse is partial -- the
        # contract is sublinearity, not perfect dedupe.)
        assert pod3 / pod1 < 0.8 * (native3 / native1)
        assert pod3 < 0.8 * native3

    def test_shared_domain_beats_isolated_volumes(self):
        """Consolidating K tenants into one dedup domain must never
        store more than K isolated per-tenant deployments."""
        shared = _shared_run("POD", 3).capacity_blocks
        isolated = _isolated_capacity("POD", 3)
        assert shared < isolated

    def test_per_volume_breakdowns(self):
        result = _shared_run("POD", 3)
        assert len(result.volumes) == 3
        ids = [v["volume_id"] for v in result.volumes]
        assert ids == [0, 1, 2]
        for v in result.volumes:
            assert v["requests"] > 0
            assert v["mean_response"] > 0.0
        # tenant 0 writes first at every shared fingerprint, so its
        # dedupes are intra-volume; the clones dedupe against it.
        assert result.volumes[0]["cross_volume_deduped_blocks"] == 0
        clones_cross = sum(
            v["cross_volume_deduped_blocks"] for v in result.volumes[1:]
        )
        assert clones_cross > 0
        # summary carries the same section
        assert result.summary()["volumes"] == result.volumes

    def test_run_multi_driver(self):
        """The runner-level driver: families salted apart, per-volume
        metrics attached, invariants clean."""
        result = runner.execute(runner.RunSpec(
            ["web-vm", "mail"], "POD", tenants=runner.Tenants(copies=2),
            replay=ReplayConfig(check_invariants=True,
                                       sanitize_every=500),
            seed=SEED, scale=SCALE,
        ))
        assert len(result.volumes) == 4
        names = [v["name"] for v in result.volumes]
        assert names == ["web-vm/t0", "web-vm/t1", "mail/t0", "mail/t1"]
        # family salting: the first tenant of EVERY family is a first
        # writer, so neither t0 shows cross-volume dedupe (no aliasing
        # between unrelated web-vm and mail content).
        assert result.volumes[0]["cross_volume_deduped_blocks"] == 0
        assert result.volumes[2]["cross_volume_deduped_blocks"] == 0
        assert result.volumes[1]["cross_volume_deduped_blocks"] > 0
        assert result.volumes[3]["cross_volume_deduped_blocks"] > 0
        assert result.sanitizer is not None
        assert result.sanitizer.summary()["violations_found"] == 0
