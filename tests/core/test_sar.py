"""Behavioural tests for the SAR (SSD-assisted) extension."""

import pytest

from repro.baselines.base import SchemeConfig
from repro.core.sar import SARDedupe
from repro.errors import ConfigError
from repro.sim.replay import ReplayConfig, replay_trace
from repro.storage.ssd import Ssd, SsdParams
from repro.errors import StorageError
from tests.conftest import Oracle


def make(ssd_kb=256):
    return SARDedupe(
        SchemeConfig(
            logical_blocks=4096,
            memory_bytes=64 * 1024,
            ssd_bytes=ssd_kb * 1024,
        )
    )


class TestSsdModel:
    def test_service_time_flat(self):
        p = SsdParams()
        assert p.service_time(1) < 1e-3  # no seeks, sub-millisecond
        assert p.service_time(8) > p.service_time(1)

    def test_fcfs_horizon(self):
        ssd = Ssd(SsdParams())
        first = ssd.service(0.0, 4)
        second = ssd.service(0.0, 4)
        assert second > first
        ssd.reset()
        assert ssd.busy_until == 0.0

    def test_invalid_params(self):
        with pytest.raises(StorageError):
            SsdParams(total_blocks=0)
        with pytest.raises(StorageError):
            SsdParams().service_time(0)


class TestAdmission:
    def test_remapped_dedupe_admitted(self):
        s = make()
        o = Oracle(s)
        o.write(0, [1])
        planned = o.write(100, [1])  # LBA 100 -> block 0: fragmented ref
        assert planned.eliminated
        assert planned.ssd_write_blocks == 1
        assert s.ssd_admitted_blocks == 1
        o.check()

    def test_same_location_rewrite_not_admitted(self):
        s = make()
        o = Oracle(s)
        o.write(0, [1])
        planned = o.write(0, [1])  # same LBA, same content: no remap
        assert planned.eliminated
        assert planned.ssd_write_blocks == 0

    def test_config_requires_ssd(self):
        with pytest.raises(ConfigError):
            SARDedupe(SchemeConfig(logical_blocks=1024, memory_bytes=64 * 1024))


class TestReads:
    def test_ssd_resident_blocks_skip_hdd(self):
        s = make()
        o = Oracle(s)
        o.write(0, [1, 2, 3, 4])
        o.write(100, [1, 2, 3, 4])  # deduped, blocks staged on SSD
        planned = o.read(100, 4)
        assert planned.ssd_read_blocks == 4
        assert planned.volume_ops == []
        assert s.ssd_served_blocks == 4
        o.check()

    def test_mixed_read_splits_traffic(self):
        s = make()
        o = Oracle(s)
        o.write(0, [1, 2])
        o.write(100, [1, 2])   # staged
        o.write(102, [50, 51])  # plain HDD data
        planned = o.read(100, 4)
        assert planned.ssd_read_blocks == 2
        assert sum(op.nblocks for op in planned.volume_ops) == 2

    def test_overwrite_invalidates_ssd_copy(self):
        s = make()
        o = Oracle(s)
        o.write(0, [1])
        o.write(100, [1])    # block 0 staged
        o.write(100, [9])    # LBA 100 rewritten uniquely
        o.write(0, [8])      # block 0's home content replaced (refs gone)
        planned = o.read(0, 1)
        assert planned.ssd_read_blocks == 0  # stale copy was dropped
        o.check()

    def test_ssd_capacity_lru(self):
        s = make(ssd_kb=8)  # 2 blocks of SSD
        o = Oracle(s)
        for i in range(4):
            o.write(i, [100 + i])
        for i in range(4):
            o.write(200 + i, [100 + i])  # four remapped refs, SSD holds 2
        assert len(s._ssd) == 2
        o.check()

    def test_power_failure_drops_residency(self):
        s = make()
        o = Oracle(s)
        o.write(0, [1])
        o.write(100, [1])
        s.simulate_power_failure()
        planned = o.read(100, 1)
        assert planned.ssd_read_blocks == 0
        o.check()


class TestReplayIntegration:
    def _trace(self):
        from repro.traces.synthetic import WEB_VM, generate_trace

        return generate_trace(WEB_VM, scale=0.005)

    def test_replay_with_ssd(self):
        trace = self._trace()
        scheme = SARDedupe(
            SchemeConfig(
                logical_blocks=trace.logical_blocks,
                memory_bytes=64 * 1024,
                ssd_bytes=4 * 1024 * 1024,
            )
        )
        result = replay_trace(trace, scheme, ReplayConfig(ssd_params=SsdParams()))
        assert result.metrics.requests > 0
        assert scheme.ssd_admitted_blocks > 0

    def test_replay_without_ssd_params_is_config_error(self):
        trace = self._trace()
        scheme = SARDedupe(
            SchemeConfig(
                logical_blocks=trace.logical_blocks,
                memory_bytes=64 * 1024,
                ssd_bytes=4 * 1024 * 1024,
            )
        )
        with pytest.raises(ConfigError):
            replay_trace(trace, scheme)

    @pytest.mark.parametrize("batch_size", [4096, None])
    def test_refused_before_planning(self, batch_size):
        """Without ssd_params the run is refused up front, on the driver
        and the event loop alike: no request reaches the scheme."""
        trace = self._trace()
        scheme = SARDedupe(
            SchemeConfig(
                logical_blocks=trace.logical_blocks,
                memory_bytes=64 * 1024,
                ssd_bytes=4 * 1024 * 1024,
            )
        )
        with pytest.raises(ConfigError, match="no ssd_params configured"):
            replay_trace(trace, scheme, ReplayConfig(), batch_size=batch_size)
        assert scheme.writes_total == scheme.reads_total == 0

    def test_sar_reads_no_slower_than_plain_select(self):
        from repro.core.select_dedupe import SelectDedupe

        trace = self._trace()

        def read_mean(cls, **kw):
            scheme = cls(
                SchemeConfig(
                    logical_blocks=trace.logical_blocks,
                    memory_bytes=64 * 1024,
                    **kw,
                )
            )
            config = ReplayConfig(ssd_params=SsdParams()) if kw else ReplayConfig()
            return replay_trace(trace, scheme, config).metrics.read_summary().mean

        select = read_mean(SelectDedupe)
        sar = read_mean(SARDedupe, ssd_bytes=4 * 1024 * 1024)
        assert sar <= select * 1.02
