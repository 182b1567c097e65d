"""Unit tests for replay-harness internals and configuration."""

import pytest

from repro.baselines.base import SchemeConfig
from repro.baselines.native import Native
from repro.constants import BLOCKS_PER_STRIPE_UNIT
from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.sim.replay import (
    DEFAULT_BATCH_SIZE,
    ReplayConfig,
    ReplayResult,
    replay_trace,
    size_disks,
)
from repro.sim.request import OpType
from repro.storage.disk import DiskParams
from repro.storage.raid import RaidLevel
from repro.traces.format import Trace, TraceRecord

SU = BLOCKS_PER_STRIPE_UNIT


class TestSizeDisks:
    def test_default_disk_large_enough_untouched(self):
        params = size_disks(1000, ReplayConfig())
        assert params.total_blocks == DiskParams().total_blocks

    def test_grows_for_big_volumes(self):
        need = DiskParams().total_blocks * 4
        params = size_disks(need, ReplayConfig())
        geometry = ReplayConfig().geometry()
        rows = params.total_blocks // SU
        assert rows * geometry.data_disks * SU >= need

    def test_respects_custom_params(self):
        custom = DiskParams(total_blocks=1 << 24, rpm=15000)
        params = size_disks(1000, ReplayConfig(disk_params=custom))
        assert params.rpm == 15000
        assert params.total_blocks == 1 << 24

    def test_mechanical_params_preserved_when_growing(self):
        custom = DiskParams(total_blocks=64, seek_max=0.5)
        params = size_disks(10_000_000, ReplayConfig(disk_params=custom))
        assert params.seek_max == 0.5
        assert params.total_blocks > 64


class TestReplayConfig:
    def test_geometry(self):
        g = ReplayConfig(raid_level=RaidLevel.RAID0, ndisks=2).geometry()
        assert g.ndisks == 2 and g.level is RaidLevel.RAID0

    def test_hashable_for_memoisation(self):
        a = ReplayConfig()
        b = ReplayConfig()
        assert hash(a) == hash(b) and a == b

    def test_spans_field_distinguishes(self):
        assert ReplayConfig() != ReplayConfig(spans=True)

    @pytest.mark.parametrize("batch_size", [DEFAULT_BATCH_SIZE, None])
    def test_unknown_failed_disk_rejected_up_front(self, batch_size):
        """Both single-node loops reject a failed member the array
        does not have before replaying anything."""
        trace = Trace(
            "t", [TraceRecord(0.0, OpType.READ, 0, 1)], logical_blocks=8
        )
        scheme = Native(SchemeConfig(logical_blocks=8, memory_bytes=4096))
        with pytest.raises(ConfigError, match="no member disk 7"):
            replay_trace(
                trace, scheme, ReplayConfig(failed_disk=7), batch_size=batch_size
            )

    @pytest.mark.parametrize("batch_size", [DEFAULT_BATCH_SIZE, None])
    def test_non_positive_epoch_interval_rejected(self, batch_size):
        """Both loops reject a scheme whose epoch interval is not
        positive, through the set-up they share."""
        trace = Trace(
            "t", [TraceRecord(0.0, OpType.READ, 0, 1)], logical_blocks=8
        )
        scheme = Native(SchemeConfig(logical_blocks=8, memory_bytes=4096))
        scheme.epoch_interval = 0.0
        with pytest.raises(ConfigError, match="epoch interval must be positive"):
            replay_trace(trace, scheme, ReplayConfig(), batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [DEFAULT_BATCH_SIZE, None])
    def test_non_positive_sanitize_every_rejected(self, batch_size):
        """The sanitizer cadence is checked when the config is built,
        and only when invariant checking is on."""
        trace = Trace(
            "t", [TraceRecord(0.0, OpType.READ, 0, 1)], logical_blocks=8
        )
        scheme = Native(SchemeConfig(logical_blocks=8, memory_bytes=4096))
        with pytest.raises(ConfigError, match="sanitize_every must be positive"):
            replay_trace(
                trace,
                scheme,
                ReplayConfig(check_invariants=True, sanitize_every=0),
                batch_size=batch_size,
            )
        result = replay_trace(
            trace, scheme, ReplayConfig(sanitize_every=0), batch_size=batch_size
        )
        assert result.sanitizer is None


class TestReplayResult:
    def _result(self, writes, removed):
        return ReplayResult(
            trace_name="t",
            scheme_name="s",
            metrics=MetricsCollector(),
            scheme_stats={},
            utilisation={},
            capacity_blocks=1,
            writes_total=writes,
            write_requests_removed=removed,
        )

    def test_removed_pct(self):
        assert self._result(200, 50).removed_write_pct == pytest.approx(25.0)

    def test_removed_pct_zero_writes(self):
        assert self._result(0, 0).removed_write_pct == 0.0

    def test_summary_merges_metrics(self):
        s = self._result(10, 1).summary()
        assert s["trace"] == "t" and s["removed_write_pct"] == pytest.approx(10.0)


class TestSchemeConfigValidation:
    def test_valid_defaults(self):
        cfg = SchemeConfig(logical_blocks=1024, memory_bytes=1024)
        assert cfg.make_regions().logical_blocks == 1024

    def test_bad_logical(self):
        with pytest.raises(ConfigError):
            SchemeConfig(logical_blocks=0, memory_bytes=1024)

    def test_bad_memory(self):
        with pytest.raises(ConfigError):
            SchemeConfig(logical_blocks=1024, memory_bytes=-1)

    def test_bad_index_fraction(self):
        with pytest.raises(ConfigError):
            SchemeConfig(logical_blocks=1024, memory_bytes=0, index_fraction=1.5)

    def test_bad_thresholds(self):
        with pytest.raises(ConfigError):
            SchemeConfig(logical_blocks=1024, memory_bytes=0, select_threshold=0)
        with pytest.raises(ConfigError):
            SchemeConfig(logical_blocks=1024, memory_bytes=0, idedup_threshold=0)

    def test_regions_include_log_fraction(self):
        cfg = SchemeConfig(logical_blocks=1000, memory_bytes=0, log_fraction=0.25)
        assert cfg.make_regions().log_blocks == 250


class TestDoctests:
    def test_module_doctests(self):
        import doctest

        import repro.core.categorize as categorize
        import repro.storage.volume as volume

        for module in (categorize, volume):
            failures, _tests = doctest.testmod(module)
            assert failures == 0, module.__name__
