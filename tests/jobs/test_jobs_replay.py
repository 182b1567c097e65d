"""End-to-end leased jobs inside the replay simulator.

The headline acceptance scenario lives here: a fail-slow window on a
surviving disk stalls the rebuild worker mid-step, its lease expires,
the recovery sweep returns the job to claimable, and a second worker
re-claims it at the next epoch -- the stalled worker's late commit is
fenced, the rebuild completes, and the oracle step ledger proves no
row batch was lost or double-applied.

Also covered: the background scrubber discovering correlated burst
LSEs before foreground reads do, per-tenant admission throttling, the
per-volume NVRAM-loss stall, and the golden guarantee that the
jobs-off path is bit-identical to a config with no jobs field at all.
"""

import dataclasses
import json

from repro.baselines.base import SchemeConfig
from repro.core.select_dedupe import SelectDedupe
from repro.faults import (
    FailSlowSpec,
    FaultPlan,
    LseBurstSpec,
    MemberFailureSpec,
    NvramLossSpec,
)
from repro.experiments.runner import RunSpec, Tenants, execute
from repro.jobs import AdmissionSpec, JobsConfig, LeasePolicy, ScrubberSpec
from repro.obs.report import build_run_report
from repro.sim.replay import ReplayConfig, replay_trace
from repro.traces.synthetic import WEB_VM, generate_trace

_TRACE = generate_trace(WEB_VM, scale=0.02)

# Lease short enough that a 40x fail-slow window expires it mid-step.
JOBS = JobsConfig(
    workers=2,
    lease=LeasePolicy(
        duration=0.3, poll_interval=0.02, sweep_interval=0.1,
        max_retries=4, backoff=0.02,
    ),
)


def _scheme():
    return SelectDedupe(
        SchemeConfig(
            logical_blocks=_TRACE.logical_blocks, memory_bytes=128 * 1024
        )
    )


def _replay(config):
    return replay_trace(_TRACE, _scheme(), config)


class TestStaleLeaseRecovery:
    """The acceptance scenario from the issue, as a pinned test."""

    def test_fail_slow_expires_rebuild_lease_and_recovery_completes(self):
        plan = FaultPlan(
            seed=7,
            member_failure=MemberFailureSpec(
                disk=2, time=5.0, rows_per_batch=64, interval=0.02
            ),
            fail_slow=(FailSlowSpec(disk=1, start=5.0, end=9.0, multiplier=40.0),),
        )
        result = _replay(
            ReplayConfig(
                faults=plan, fault_seed=7, check_invariants=True, jobs=JOBS
            )
        )

        jobs = result.jobs_stats
        assert jobs is not None
        counters = jobs["counters"]
        # the fail-slow window stalled the holder past its lease...
        assert counters["stale_leases_detected"] > 0
        # ...every expired lease was re-claimed...
        assert counters["stale_lease_reclaims"] == counters["stale_leases_detected"]
        # ...and the superseded holder's late commits were fenced
        assert counters["fenced_commits"] > 0

        rebuilds = [j for j in jobs["jobs"] if j["kind"] == "rebuild"]
        assert len(rebuilds) == 1
        rebuild = rebuilds[0]
        assert rebuild["state"] == "done"
        assert rebuild["epoch"] > 1  # re-claimed at a higher epoch
        assert rebuild["stale_reclaims"] > 0
        # every disk row was scanned exactly once
        assert rebuild["steps_committed"] * 64 >= rebuild["detail"]["disk_rows"]
        assert rebuild["detail"]["rows_scanned"] == rebuild["detail"]["disk_rows"]

        # the step ledger chains 0 -> total: nothing lost, nothing doubled
        assert jobs["oracle"]["violations"] == []
        # and the data plane is still correct end to end
        assert result.fault_stats["oracle"]["mismatches"] == 0
        assert result.fault_stats["counters"]["member_failures"] == 1
        assert result.sanitizer is not None
        assert result.sanitizer.violations == []

    def test_without_fail_slow_no_lease_expires(self):
        plan = FaultPlan(
            seed=7,
            member_failure=MemberFailureSpec(
                disk=2, time=5.0, rows_per_batch=64, interval=0.02
            ),
        )
        result = _replay(
            ReplayConfig(
                faults=plan, fault_seed=7, check_invariants=True, jobs=JOBS
            )
        )
        counters = result.jobs_stats["counters"]
        assert counters["stale_leases_detected"] == 0
        assert counters["fenced_commits"] == 0
        assert result.jobs_stats["jobs"][0]["state"] == "done"
        assert result.jobs_stats["oracle"]["violations"] == []

    def test_jobs_counters_mirrored_into_registry(self):
        plan = FaultPlan(
            seed=7,
            member_failure=MemberFailureSpec(
                disk=2, time=5.0, rows_per_batch=64, interval=0.02
            ),
            fail_slow=(FailSlowSpec(disk=1, start=5.0, end=9.0, multiplier=40.0),),
        )
        result = _replay(ReplayConfig(faults=plan, fault_seed=7, jobs=JOBS))
        counters = result.metrics.registry.counters()
        assert counters["jobs.stale_lease_reclaims"] > 0
        assert (
            counters["jobs.steps_committed"]
            == result.jobs_stats["counters"]["steps_committed"]
        )


class TestScrubber:
    def test_scrubber_discovers_burst_lses_before_foreground_reads(self):
        plan = FaultPlan(
            seed=11,
            lse_bursts=LseBurstSpec(
                bursts=2, length=4, track_blocks=64, adjacency=2
            ),
        )
        jobs = dataclasses.replace(
            JOBS, scrub=ScrubberSpec(start=0.5, region_blocks=4096, interval=0.01)
        )
        result = _replay(
            ReplayConfig(faults=plan, fault_seed=11, check_invariants=True,
                         jobs=jobs)
        )
        fault_counters = result.fault_stats["counters"]
        # the correlated bursts injected adjacent-track errors...
        assert fault_counters["lse_burst_blocks"] > 0
        # ...and the scrub pass found latent errors proactively
        assert fault_counters["lse_scrub_discoveries"] > 0

        scrubs = [j for j in result.jobs_stats["jobs"] if j["kind"] == "scrub"]
        assert len(scrubs) == 1
        assert scrubs[0]["state"] == "done"
        assert scrubs[0]["detail"]["blocks_scrubbed"] > 0
        assert result.jobs_stats["oracle"]["violations"] == []
        assert result.fault_stats["oracle"]["mismatches"] == 0

    def test_scrub_pass_is_deterministic(self):
        jobs = dataclasses.replace(
            JOBS, scrub=ScrubberSpec(start=0.5, region_blocks=4096, interval=0.01)
        )
        a = _replay(ReplayConfig(jobs=jobs))
        b = _replay(ReplayConfig(jobs=jobs))
        assert a.jobs_stats == b.jobs_stats

    def test_scrub_of_a_degraded_array_never_reads_the_failed_member(self):
        # A degraded row is reconstructed from its survivors, for the
        # scrubber as for any foreground read.
        jobs = dataclasses.replace(
            JOBS, scrub=ScrubberSpec(start=0.5, region_blocks=4096, interval=0.01)
        )
        result = replay_trace(
            _TRACE, _scheme(), ReplayConfig(failed_disk=1, jobs=jobs),
            batch_size=None,
        )
        scrubs = [j for j in result.jobs_stats["jobs"] if j["kind"] == "scrub"]
        assert scrubs[0]["detail"]["blocks_scrubbed"] > 0
        assert result.utilisation[1]["ops"] == 0


class TestAdmission:
    def test_token_bucket_throttles_and_admits_in_order(self):
        jobs = dataclasses.replace(
            JOBS,
            admission=AdmissionSpec(
                rate_blocks=2048.0, burst_blocks=256.0, maintenance_yield=0.25
            ),
        )
        result = execute(RunSpec(
            ["web-vm", "mail"], "select-dedupe", tenants=Tenants(copies=2),
            replay=ReplayConfig(jobs=jobs), seed=3, scale=0.02,
        ))
        adm = result.jobs_stats["admission"]
        assert adm["requests_throttled"] > 0
        assert adm["throttle_delay_total"] > 0.0
        assert adm["tenants"] >= 2  # per-volume buckets, not one global
        # most traffic still flows: throttling delays, never drops
        assert adm["requests_admitted"] > adm["requests_throttled"]

    def test_admission_off_has_no_summary(self):
        result = execute(RunSpec(
            ["web-vm", "mail"], "select-dedupe", tenants=Tenants(copies=2),
            replay=ReplayConfig(jobs=JOBS), seed=3, scale=0.02,
        ))
        assert "admission" not in result.jobs_stats


class TestPerVolumeNvramLoss:
    def test_volume_scope_stalls_only_hit_volumes(self):
        plan = FaultPlan(
            seed=5, nvram_loss=(NvramLossSpec(time=6.0, scope="volume"),)
        )
        result = execute(RunSpec(
            ["web-vm", "mail"], "select-dedupe", tenants=Tenants(copies=2),
            replay=ReplayConfig(faults=plan, fault_seed=5), seed=3, scale=0.02,
        ))
        counters = result.fault_stats["counters"]
        assert counters["nvram_losses"] == 1
        assert counters["nvram_volume_recoveries"] > 0
        assert result.fault_stats["oracle"]["mismatches"] == 0

    def test_global_scope_is_the_default(self):
        assert NvramLossSpec(time=1.0).scope == "global"
        plan = FaultPlan.from_dict(
            {"seed": 1, "nvram_loss": [{"time": 1.0, "scope": "volume"}]}
        )
        assert plan.nvram_loss[0].scope == "volume"
        assert FaultPlan.from_dict(plan.as_dict()) == plan


class TestGoldenJobsOff:
    """Same seed with jobs disabled => byte-identical run report."""

    def _report(self, config):
        result = _replay(config)
        return build_run_report(
            result,
            seed=0,
            scale=0.02,
            config={"trace": "web-vm"},
            clock=lambda: 0.0,
        )

    def test_jobs_off_report_is_bit_identical(self):
        plain = self._report(ReplayConfig())
        explicit_off = self._report(ReplayConfig(jobs=None))
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            explicit_off, sort_keys=True
        )
        assert "jobs" not in plain

    def test_jobs_off_with_faults_is_bit_identical(self):
        plan = FaultPlan(
            seed=7,
            member_failure=MemberFailureSpec(
                disk=2, time=5.0, rows_per_batch=64, interval=0.02
            ),
        )
        base = ReplayConfig(faults=plan, fault_seed=7, check_invariants=True)
        plain = self._report(base)
        explicit_off = self._report(dataclasses.replace(base, jobs=None))
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            explicit_off, sort_keys=True
        )
        assert "jobs" not in plain
        # the ledger keys stay off the jobs-off oracle summary too
        assert "job_steps" not in plain["faults"]["oracle"]

    def test_jobs_armed_report_is_purely_additive(self):
        armed = self._report(ReplayConfig(jobs=JOBS))
        plain = self._report(ReplayConfig())
        assert "jobs" in armed
        assert armed["jobs"]["counters"]["jobs_submitted"] == 0
        for key, value in plain.items():
            assert json.dumps(armed[key], sort_keys=True) == json.dumps(
                value, sort_keys=True
            ), key
