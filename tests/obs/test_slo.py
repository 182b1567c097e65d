"""Unit tests for SLO objectives, policies and burn-rate evaluation."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs.slo import (
    SLO_SCHEMA_VERSION,
    SloObjective,
    SloPolicy,
    evaluate_slo,
)
from repro.obs.timeline import TimelineConfig, TimelineSampler


def objective(**kw):
    base = dict(name="o", metric="latency", threshold=0.01)
    base.update(kw)
    return SloObjective(**base)


class TestObjectiveValidation:
    def test_accepts_the_three_scopes(self):
        assert objective(scope="run").scope_kind == "run"
        v = objective(scope="volume:3")
        assert (v.scope_kind, v.scope_id) == ("volume", 3)
        n = objective(scope="node:1")
        assert (n.scope_kind, n.scope_id) == ("node", 1)

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            objective(metric="iops")
        with pytest.raises(ConfigError):
            objective(op="delete")
        with pytest.raises(ConfigError):
            objective(threshold=0.0)
        with pytest.raises(ConfigError):
            objective(target=1.0)
        with pytest.raises(ConfigError):
            objective(burn_threshold=0.0)
        with pytest.raises(ConfigError):
            objective(scope="disk:0")
        with pytest.raises(ConfigError):
            objective(scope="volume:x")

    @pytest.mark.parametrize("scope", ["volume:-1", "node:-1", "volume:-7"])
    def test_rejects_negative_scope_ids(self, scope):
        # A replay without per-volume tracking stamps volume id -1 on
        # every completion, so "volume:-1" would count the whole run.
        with pytest.raises(ConfigError, match="non-negative"):
            objective(scope=scope)
        with pytest.raises(ConfigError, match="non-negative"):
            SloPolicy.from_dict(
                {"objectives": [{"name": "o", "metric": "latency",
                                 "threshold": 0.01, "scope": scope}]}
            )

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            SloObjective.from_dict(
                {"name": "o", "metric": "latency", "threshold": 0.01,
                 "severity": "high"}
            )

    def test_from_dict_needs_the_required_triple(self):
        with pytest.raises(ConfigError):
            SloObjective.from_dict({"name": "o"})


class TestPolicy:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            SloPolicy(objectives=(objective(), objective()))

    def test_empty_policy(self):
        assert SloPolicy().is_empty()
        assert not SloPolicy(objectives=(objective(),)).is_empty()

    def test_round_trip_and_hashability(self):
        pol = SloPolicy(objectives=(
            objective(name="a"),
            objective(name="b", metric="throughput", threshold=5.0),
        ))
        assert SloPolicy.from_dict(pol.as_dict()) == pol
        assert hash(pol) == hash(SloPolicy.from_dict(pol.as_dict()))

    def test_from_dict_rejects_unknown_top_level_keys(self):
        with pytest.raises(ConfigError):
            SloPolicy.from_dict({"objectives": [], "version": 2})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"objectives": [
            {"name": "a", "metric": "latency", "threshold": 0.01},
        ]}))
        pol = SloPolicy.load(str(path))
        assert pol.objectives[0].name == "a"
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            SloPolicy.load(str(bad))

    def test_shipped_example_policy_loads(self):
        from pathlib import Path

        example = (
            Path(__file__).resolve().parents[2] / "examples" / "slo.json"
        )
        pol = SloPolicy.load(str(example))
        assert not pol.is_empty()
        metrics = {o.metric for o in pol.objectives}
        assert metrics == {"latency", "throughput"}


class TestLatencyEvaluation:
    def _timeline(self, policy):
        s = TimelineSampler(TimelineConfig(window=1.0), policy=policy)
        # window 0: all good; window 1: half bad; window 2: all bad
        for _ in range(4):
            s.note_request(0.5, is_read=True, nblocks=1, response=0.001)
        for i in range(4):
            s.note_request(1.5, is_read=True, nblocks=1,
                           response=0.001 if i % 2 else 0.05)
        for _ in range(4):
            s.note_request(2.5, is_read=True, nblocks=1, response=0.05)
        s.note_activity(2.5, "fail_slow")
        s.finish(3.0)
        return s.as_dict()

    def test_burn_rate_and_violations(self):
        pol = SloPolicy(objectives=(
            objective(name="rd", op="read", target=0.9, burn_threshold=1.0),
        ))
        out = evaluate_slo(pol, self._timeline(pol))
        assert out["schema_version"] == SLO_SCHEMA_VERSION
        (obj,) = out["objectives"]
        assert obj["windows_evaluated"] == 3
        assert (obj["good_total"], obj["bad_total"]) == (6, 6)
        # error rates 0, 0.5, 1.0 over budget 0.1 -> burns 0, 5, 10
        assert obj["worst_burn"] == pytest.approx(10.0)
        assert [v["index"] for v in obj["violations"]] == [1, 2]
        assert obj["violations"][0]["burn_rate"] == pytest.approx(5.0)

    def test_violations_carry_concurrent_activity(self):
        pol = SloPolicy(objectives=(
            objective(name="rd", op="read", target=0.9),
        ))
        out = evaluate_slo(pol, self._timeline(pol))
        by_index = {
            v["index"]: v for v in out["objectives"][0]["violations"]
        }
        assert by_index[2]["annotations"] == ["fail_slow"]
        assert by_index[1]["annotations"] == []

    def test_quiet_windows_are_not_evaluated(self):
        pol = SloPolicy(objectives=(objective(name="rd", op="read"),))
        s = TimelineSampler(TimelineConfig(window=1.0), policy=pol)
        s.note_request(0.5, is_read=True, nblocks=1, response=0.001)
        s.note_gauges(5.5, queue_lag=1.0)  # traffic-free window
        out = evaluate_slo(pol, s.as_dict())
        assert out["objectives"][0]["windows_evaluated"] == 1


class TestThroughputEvaluation:
    def test_active_range_only(self):
        """A scope that finishes early isn't charged for idle tail
        windows, but gaps *inside* its active range count as bad."""
        pol = SloPolicy(objectives=(
            SloObjective(name="tput", metric="throughput", threshold=2.0,
                         target=0.9, burn_threshold=0.1),
        ))
        s = TimelineSampler(TimelineConfig(window=1.0), policy=pol)
        for t in (0.5, 0.6, 0.7):
            s.note_request(t, is_read=True, nblocks=1, response=0.001)
        # window 1: silent (inside active range -> bad, rate 0)
        s.note_request(2.5, is_read=True, nblocks=1, response=0.001)
        s.finish(10.0)  # long idle tail, outside the active range
        out = evaluate_slo(pol, s.as_dict())
        (obj,) = out["objectives"]
        assert obj["windows_evaluated"] == 3  # windows 0..2 only
        assert obj["good_total"] == 1  # window 0 at 3 req/s
        assert [v["index"] for v in obj["violations"]] == [1, 2]
        assert obj["violations"][0]["value"] == 0.0
        assert obj["violations"][0]["burn_rate"] == pytest.approx(1.0)

    def test_empty_policy_evaluates_to_nothing(self):
        s = TimelineSampler(TimelineConfig())
        s.note_request(0.5, is_read=True, nblocks=1, response=0.001)
        out = evaluate_slo(SloPolicy(), s.as_dict())
        assert out["objectives"] == []
        assert out["violations_total"] == 0
