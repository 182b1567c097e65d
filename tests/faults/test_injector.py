"""Integration tests: every fault class injected into real replays.

Each test arms one fault class (or a combination) against a scaled-down
web-vm replay and asserts three things: the fault actually fired (the
counters prove it), the system paid a plausible cost (response times,
recovery histograms), and the content oracle stayed clean -- no
injected fault ever turns into silently wrong data.
"""

import json

import pytest

from repro.baselines.base import SchemeConfig
from repro.cli import main
from repro.core.pod import POD
from repro.core.select_dedupe import SelectDedupe
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan
from repro.obs.events import EVENT_FIELDS, FAULT_EVENT_TYPES, TraceLevel
from repro.obs.trace import TraceRecorder
from repro.sim.replay import ReplayConfig, replay_trace
from repro.storage.raid import RaidLevel
from repro.traces.synthetic import WEB_VM, generate_trace

_TRACE = generate_trace(WEB_VM, scale=0.02)

#: The CLI's ``run`` on the same trace (``--fault-seed`` is a CLI flag:
#: it reseeds the ``--faults`` plan as it loads).
CLI_RUN = ["run", "--trace", "web-vm", "--scheme", "select-dedupe",
           "--scale", "0.02"]


def run(plan=None, cls=SelectDedupe, memory_kib=128, recorder=None, **cfg):
    scheme = cls(SchemeConfig(logical_blocks=_TRACE.logical_blocks,
                              memory_bytes=memory_kib * 1024))
    config = ReplayConfig(faults=plan, check_invariants=True, **cfg)
    return replay_trace(_TRACE, scheme, config, recorder=recorder)


@pytest.fixture(scope="module")
def healthy():
    return run(None)


# ----------------------------------------------------------------------
# zero-overhead off path + determinism
# ----------------------------------------------------------------------


class TestOffPathAndDeterminism:
    def test_empty_plan_is_bit_identical_to_no_plan(self, healthy):
        """Arming an *empty* plan (injector + oracle shadowing every
        request) must not change a single simulated completion time."""
        shadowed = run(FaultPlan())
        assert shadowed.metrics.as_dict() == healthy.metrics.as_dict()
        assert shadowed.fault_stats is not None
        assert shadowed.fault_stats["oracle"]["mismatches"] == 0
        assert healthy.fault_stats is None

    def test_same_seed_reproduces_exactly(self):
        plan = FaultPlan.from_dict({
            "seed": 13,
            "latent_sector_errors": {"random_count": 10},
            "nvram_loss": [{"time": 9.0, "lose_journal_tail": 5}],
            "index_corruption": [{"time": 6.0, "entries": 2}],
        })
        a, b = run(plan), run(plan)
        assert a.fault_stats == b.fault_stats
        assert a.metrics.as_dict() == b.metrics.as_dict()

    def test_fault_seed_overrides_plan_seed(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"seed": 1, "latent_sector_errors": {"random_count": 10}}
        ))
        out = tmp_path / "r.json"
        assert main(CLI_RUN + ["--faults", str(plan), "--fault-seed", "77",
                               "--report-out", str(out)]) == 0
        assert json.loads(out.read_text())["faults"]["seed"] == 77

    def test_fault_seed_without_plan_rejected(self, capsys):
        assert main(CLI_RUN + ["--fault-seed", "3"]) == 1
        assert "error: --fault-seed requires --faults" in capsys.readouterr().err

    def test_seed_changes_lse_placement(self):
        scheme = SelectDedupe(SchemeConfig(
            logical_blocks=_TRACE.logical_blocks, memory_bytes=128 * 1024))
        plan = FaultPlan.from_dict(
            {"latent_sector_errors": {"random_count": 20}}
        )
        a = FaultInjector(plan.with_seed(1)).resolve_lse_pbas(scheme)
        b = FaultInjector(plan.with_seed(1)).resolve_lse_pbas(scheme)
        c = FaultInjector(plan.with_seed(2)).resolve_lse_pbas(scheme)
        assert a == b
        assert a != c


# ----------------------------------------------------------------------
# latent sector errors
# ----------------------------------------------------------------------


class TestLatentSectorErrors:
    def test_reconstruction_on_healthy_raid5(self, healthy):
        plan = FaultPlan.from_dict(
            {"seed": 11, "latent_sector_errors": {"random_count": 40}}
        )
        r = run(plan)
        c = r.fault_stats["counters"]
        assert c["lse_injected"] == 40
        assert c.get("lse_reconstructions", 0) > 0
        assert c.get("lse_unrecoverable", 0) == 0
        # every injected error is recovered, healed, or still latent
        assert (c.get("lse_sectors_recovered", 0)
                + c.get("lse_healed_by_write", 0)
                + c.get("lse_still_latent", 0)) == c["lse_injected"]
        # reconstruction + retries cost real disk time
        assert r.metrics.as_dict()["makespan"] >= healthy.metrics.as_dict()["makespan"]
        assert r.fault_stats["recovery_latency"]["count"] >= c["lse_reconstructions"]
        assert r.fault_stats["oracle"]["mismatches"] == 0

    def test_unrecoverable_without_parity(self):
        plan = FaultPlan.from_dict(
            {"seed": 11, "latent_sector_errors": {"random_count": 40}}
        )
        r = run(plan, raid_level=RaidLevel.RAID0, ndisks=4)
        c = r.fault_stats["counters"]
        assert c.get("lse_unrecoverable", 0) > 0
        assert c.get("lse_reconstructions", 0) == 0
        # the oracle still vouches for content: the *data* was never
        # wrong, the reads were just slow and unrepaired
        assert r.fault_stats["oracle"]["mismatches"] == 0

    def test_pinned_pba_outside_volume_rejected(self):
        from repro.errors import FaultError

        plan = FaultPlan.from_dict(
            {"latent_sector_errors": {"pbas": [10 ** 9]}}
        )
        with pytest.raises(FaultError, match="outside the volume"):
            run(plan)

    def test_retry_policy_charged(self):
        base = {"seed": 11, "latent_sector_errors": {"random_count": 40}}
        none = run(FaultPlan.from_dict({**base, "lse_retry":
                                        {"max_retries": 0}}))
        many = run(FaultPlan.from_dict({**base, "lse_retry":
                                        {"max_retries": 3, "backoff": 5e-3}}))
        assert none.fault_stats["counters"].get("lse_retries", 0) == 0
        assert many.fault_stats["counters"]["lse_retries"] > 0
        assert (many.metrics.as_dict()["mean_response"]
                > none.metrics.as_dict()["mean_response"])


# ----------------------------------------------------------------------
# fail-slow disks
# ----------------------------------------------------------------------


class TestFailSlow:
    def test_window_slows_the_replay(self, healthy):
        plan = FaultPlan.from_dict({
            "fail_slow": [{"disk": d, "start": 0.0, "end": 1e9,
                           "multiplier": 4.0} for d in range(4)],
        })
        r = run(plan)
        assert r.fault_stats["counters"]["fail_slow_windows"] == 4
        assert (r.metrics.as_dict()["mean_response"]
                > 1.5 * healthy.metrics.as_dict()["mean_response"])
        assert r.fault_stats["oracle"]["mismatches"] == 0

    def test_window_outside_run_is_free(self, healthy):
        plan = FaultPlan.from_dict({
            "fail_slow": [{"disk": 0, "start": 1e6, "end": 2e6,
                           "multiplier": 8.0}],
        })
        r = run(plan)
        assert r.metrics.as_dict() == healthy.metrics.as_dict()

    def test_unknown_disk_rejected(self):
        from repro.errors import FaultError

        plan = FaultPlan.from_dict(
            {"fail_slow": [{"disk": 9, "start": 0.0, "end": 1.0}]}
        )
        with pytest.raises(FaultError, match="unknown disk"):
            run(plan)


# ----------------------------------------------------------------------
# member failure + rebuild
# ----------------------------------------------------------------------


class TestMemberFailure:
    PLAN = {
        "member_failure": {"disk": 2, "time": 5.0, "rows_per_batch": 256,
                           "interval": 0.01, "capacity_aware": True},
    }

    def test_fail_rebuild_heal_cycle(self, healthy):
        r = run(FaultPlan.from_dict(self.PLAN))
        c = r.fault_stats["counters"]
        assert c["member_failures"] == 1
        assert c["rebuilds_completed"] == 1
        rb = r.fault_stats["rebuild"]
        assert rb["done"] and rb["progress"] == 1.0
        # capacity-aware: a mostly-empty volume skips most rows
        assert rb["rows_skipped"] > rb["rows_rebuilt"]
        assert rb["rows_scanned"] == rb["rows_skipped"] + rb["rows_rebuilt"]
        # the degraded window + rebuild load cost something
        assert (r.metrics.as_dict()["mean_response"]
                >= healthy.metrics.as_dict()["mean_response"])
        assert r.fault_stats["oracle"]["mismatches"] == 0

    def test_requires_raid5(self):
        with pytest.raises(ConfigError, match="RAID-5"):
            run(FaultPlan.from_dict(self.PLAN),
                raid_level=RaidLevel.RAID0, ndisks=4)

    def test_rejected_on_already_degraded_array(self):
        with pytest.raises(ConfigError, match="already runs degraded"):
            run(FaultPlan.from_dict(self.PLAN), failed_disk=1)


# ----------------------------------------------------------------------
# NVRAM power loss
# ----------------------------------------------------------------------


class TestNvramLoss:
    def test_torn_tail_recovers_cleanly(self):
        plan = FaultPlan.from_dict({
            "nvram_loss": [{"time": 10.0, "tear_journal_tail": 3}],
        })
        r = run(plan)
        c = r.fault_stats["counters"]
        assert c["nvram_losses"] == 1
        assert c["torn_tails_detected"] == 1
        assert c["journal_records_replayed"] > 0
        # journaling visible in scheme stats
        assert r.scheme_stats["journal_records_appended"] > 0
        assert r.fault_stats["oracle"]["mismatches"] == 0

    def test_lost_tail_quarantines_and_heals(self):
        plan = FaultPlan.from_dict({
            "nvram_loss": [{"time": 8.0, "lose_journal_tail": 60,
                            "tear_journal_tail": 0}],
        })
        r = run(plan)
        c = r.fault_stats["counters"]
        assert c.get("lbas_quarantined", 0) > 0
        oracle = r.fault_stats["oracle"]
        # mismatches outside the declared at-risk set are bugs
        assert oracle["mismatches"] == 0
        # later writes heal quarantined LBAs back to full service
        stats = r.scheme_stats
        assert stats["quarantine_heals"] + stats["quarantined_lbas"] >= c["lbas_quarantined"]

    def test_recovery_stall_charges_response_time(self):
        base = {"nvram_loss": [{"time": 10.0, "tear_journal_tail": 0,
                                "lose_journal_tail": 0,
                                "base_recovery_cost": 0.0,
                                "replay_cost_per_record": 0.0}]}
        slow = {"nvram_loss": [{"time": 10.0, "tear_journal_tail": 0,
                                "lose_journal_tail": 0,
                                "base_recovery_cost": 2.0,
                                "replay_cost_per_record": 0.0}]}
        free = run(FaultPlan.from_dict(base))
        paid = run(FaultPlan.from_dict(slow))
        assert (paid.metrics.as_dict()["mean_response"]
                > free.metrics.as_dict()["mean_response"])

    def test_repeated_losses_survive(self):
        plan = FaultPlan.from_dict({
            "nvram_loss": [
                {"time": 6.0, "lose_journal_tail": 10},
                {"time": 14.0, "tear_journal_tail": 4},
            ],
        })
        r = run(plan)
        assert r.fault_stats["counters"]["nvram_losses"] == 2
        assert r.fault_stats["oracle"]["mismatches"] == 0


# ----------------------------------------------------------------------
# index corruption
# ----------------------------------------------------------------------


class TestIndexCorruption:
    def test_bit_flips_never_corrupt_data(self):
        plan = FaultPlan.from_dict({
            "seed": 5,
            "index_corruption": [{"time": 6.0, "entries": 3},
                                 {"time": 12.0, "entries": 3, "bit": 7}],
        })
        r = run(plan, memory_kib=1024)
        c = r.fault_stats["counters"]
        assert c.get("index_corruptions", 0) > 0
        assert r.fault_stats["oracle"]["mismatches"] == 0

    def test_skip_counted_when_index_empty(self):
        from repro.baselines.native import Native

        plan = FaultPlan.from_dict({
            "index_corruption": [{"time": 6.0, "entries": 1}],
        })
        r = run(plan, cls=Native)
        assert r.fault_stats["counters"]["index_corruptions_skipped"] == 1


# ----------------------------------------------------------------------
# everything at once + observability
# ----------------------------------------------------------------------

EVERYTHING = {
    "seed": 7,
    "latent_sector_errors": {"random_count": 6},
    "fail_slow": [{"disk": 0, "start": 0.0, "end": 50.0, "multiplier": 3.0}],
    "member_failure": {"disk": 2, "time": 20.0, "rows_per_batch": 256,
                       "interval": 0.01, "capacity_aware": True},
    "nvram_loss": [{"time": 10.0, "lose_journal_tail": 8}],
    "index_corruption": [{"time": 6.0, "entries": 2}],
}


class TestCombined:
    @pytest.mark.parametrize("cls", [SelectDedupe, POD], ids=lambda c: c.name)
    def test_all_five_classes_with_oracle_and_invariants(self, cls):
        r = run(FaultPlan.from_dict(EVERYTHING), cls=cls, memory_kib=1024)
        c = r.fault_stats["counters"]
        assert c["lse_injected"] == 6
        assert c["fail_slow_windows"] == 1
        assert c["member_failures"] == 1
        assert c["nvram_losses"] == 1
        assert c.get("index_corruptions", 0) + c.get(
            "index_corruptions_skipped", 0) > 0
        assert r.fault_stats["oracle"]["mismatches"] == 0
        assert r.sanitizer is not None
        assert r.sanitizer.violations == []

    def test_fault_events_respect_field_contract(self):
        recorder = TraceRecorder(level=TraceLevel.SUMMARY)
        run(FaultPlan.from_dict(EVERYTHING), memory_kib=1024,
            recorder=recorder)
        fault_events = [e for e in recorder.events
                        if e.etype in FAULT_EVENT_TYPES]
        assert fault_events, "a full plan must emit fault events"
        kinds = {e.etype for e in fault_events}
        assert kinds == FAULT_EVENT_TYPES  # both inject and recover seen
        for event in fault_events:
            assert set(event.fields) == set(EVENT_FIELDS[event.etype])

    def test_registry_carries_fault_metrics(self):
        r = run(FaultPlan.from_dict(EVERYTHING), memory_kib=1024)
        registry = r.metrics.registry
        counters = registry.counters()
        assert counters.get("faults.lse_injected") == 6
        assert counters.get("faults.member_failures") == 1
        hists = registry.histograms()
        assert "faults.recovery_latency" in hists
        assert "faults.blast_radius" in hists
        assert hists["faults.recovery_latency"].count > 0

    def test_report_and_rendering_include_faults(self):
        from repro.obs import build_run_report, render_run_report

        r = run(FaultPlan.from_dict(EVERYTHING), memory_kib=1024)
        report = build_run_report(r, seed=7, scale=0.02, clock=lambda: 0.0)
        assert report["faults"]["counters"]["nvram_losses"] == 1
        text = render_run_report(report)
        assert "fault injection" in text
        assert "oracle.mismatches" in text

    def test_healthy_report_has_empty_faults_section(self, healthy):
        from repro.obs import build_run_report

        report = build_run_report(healthy, clock=lambda: 0.0)
        assert report["faults"] == {}
