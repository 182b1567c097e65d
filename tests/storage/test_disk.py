"""Unit tests for the HDD service-time model."""

import pytest

from repro.errors import StorageError
from repro.storage.disk import Disk, DiskParams


class TestDiskParams:
    def test_defaults_valid(self):
        p = DiskParams()
        assert p.total_blocks > 0

    def test_avg_rotational_latency_7200rpm(self):
        p = DiskParams(rpm=7200)
        # Half a revolution at 7200 RPM is ~4.17 ms.
        assert p.avg_rotational_latency == pytest.approx(60.0 / 7200 / 2)

    def test_seek_zero_distance_is_free(self):
        assert DiskParams().seek_time(0) == 0.0

    def test_seek_monotone_in_distance(self):
        p = DiskParams()
        seeks = [p.seek_time(d) for d in (1, 10, 1000, 100000, p.total_blocks)]
        assert all(a <= b for a, b in zip(seeks, seeks[1:]))

    def test_seek_bounded_by_min_max(self):
        p = DiskParams()
        assert p.seek_time(1) >= p.seek_min
        assert p.seek_time(p.total_blocks * 10) <= p.seek_max + 1e-12

    def test_negative_seek_distance_rejected(self):
        with pytest.raises(StorageError):
            DiskParams().seek_time(-1)

    def test_transfer_time_linear(self):
        p = DiskParams()
        assert p.transfer_time(8) == pytest.approx(2 * p.transfer_time(4))

    def test_invalid_params_rejected(self):
        with pytest.raises(StorageError):
            DiskParams(total_blocks=0)
        with pytest.raises(StorageError):
            DiskParams(rpm=0)
        with pytest.raises(StorageError):
            DiskParams(seek_min=2e-3, seek_max=1e-3)
        with pytest.raises(StorageError):
            DiskParams(transfer_rate=0)


class TestDiskService:
    def test_sequential_access_skips_seek_and_rotation(self):
        d = Disk(DiskParams())
        d.service(0.0, 100, 4)  # head now at 104
        t_seq = d.service_time(104, 4)
        p = d.params
        assert t_seq == pytest.approx(p.controller_overhead + p.transfer_time(4))

    def test_random_access_pays_seek_and_rotation(self):
        d = Disk(DiskParams())
        t = d.service_time(500000, 1)
        p = d.params
        assert t > p.seek_time(500000) + p.avg_rotational_latency

    def test_fcfs_busy_horizon(self):
        d = Disk(DiskParams())
        first = d.service(0.0, 1000, 1)
        second = d.service(0.0, 1000, 1)
        assert second > first
        assert d.busy_until == second

    def test_idle_disk_starts_at_issue_time(self):
        d = Disk(DiskParams())
        expected = d.service_time(0, 1)  # head at 0: transfer only
        done = d.service(10.0, 0, 1)
        assert done == pytest.approx(10.0 + expected)

    def test_head_advances(self):
        d = Disk(DiskParams())
        d.service(0.0, 200, 8)
        assert d.head == 208

    def test_out_of_range_access_rejected(self):
        d = Disk(DiskParams(total_blocks=100))
        with pytest.raises(StorageError):
            d.service_time(99, 2)
        with pytest.raises(StorageError):
            d.service_time(-1, 1)
        for service in (d.service, d.service_rmw):
            with pytest.raises(StorageError):
                service(0.0, 99, 2)
            with pytest.raises(StorageError):
                service(0.0, -1, 1)
        assert d.ops_serviced == 0 and d.head == 0 and d.busy_until == 0.0

    def test_reset(self):
        d = Disk(DiskParams())
        d.service(0.0, 100, 1)
        d.reset()
        assert d.head == 0 and d.busy_until == 0.0 and d.ops_serviced == 0

    def test_counters(self):
        d = Disk(DiskParams())
        d.service(0.0, 0, 4)
        d.service(0.0, 100, 2)
        assert d.ops_serviced == 2
        assert d.blocks_moved == 6
        assert d.busy_time > 0
