"""Unit tests for the discrete-event engine (clock, callback heap and
arrival cursor) and the disk-service functions the replay's nodes
issue through."""

import pytest

from repro.baselines.base import SchemeConfig
from repro.baselines.native import Native
from repro.cluster.node import ClusterNode
from repro.errors import ClusterError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.request import DiskOp, OpType
from repro.storage.disk import Disk, DiskParams, disk_utilisation
from repro.storage.namespace import NamespaceMapper
from repro.storage.raid import (
    RaidArray,
    RaidGeometry,
    RaidLevel,
    service_disk_ops,
    service_volume_ops,
)
from repro.storage.volume import VolumeOp


def make_sim():
    return Simulator()


def make_disks(ndisks=1, blocks=65536):
    params = DiskParams(total_blocks=blocks)
    return [Disk(params, disk_id=i) for i in range(ndisks)]


class TestSimulatorBasics:
    def test_disk_count_must_match_geometry(self):
        geometry = RaidGeometry(level=RaidLevel.RAID0, ndisks=4)
        scheme = Native(SchemeConfig(logical_blocks=8, memory_bytes=4096))
        with pytest.raises(ClusterError):
            ClusterNode(
                0, scheme, make_disks(1), RaidArray(geometry),
                NamespaceMapper([("t", 8)]),
            )

    def test_callbacks_run_in_order(self):
        sim = make_sim()
        order = []
        sim.schedule_callback(2.0, order.append, "late")
        sim.schedule_callback(1.0, order.append, "early")
        sim.run()
        assert order == ["early", "late"]
        assert sim.now == 2.0

    def test_callback_in_past_rejected(self):
        sim = make_sim()
        sim.schedule_callback(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_callback(0.5, lambda: None)

    def test_arrival_without_handler_raises(self):
        sim = make_sim()
        sim.set_arrivals([0.0], ["x"])
        with pytest.raises(SimulationError):
            sim.run()

    def test_arrival_handler_called(self):
        sim = make_sim()
        got = []
        sim.set_arrivals([1.5], ["payload"])
        sim.run(arrival_handler=lambda now, p: got.append((now, p)))
        assert got == [(1.5, "payload")]
        assert sim.now == 1.5 and sim.events_processed == 1

    def test_run_resumes_with_later_callbacks(self):
        # A run stops when nothing is left; callbacks scheduled after
        # it run on the next call, at their own times.
        sim = make_sim()
        fired = []
        sim.schedule_callback(1.0, fired.append, 1)
        sim.run()
        assert fired == [1] and sim.now == 1.0
        sim.schedule_callback(10.0, fired.append, 10)
        sim.run()
        assert fired == [1, 10] and sim.now == 10.0

    def test_self_rescheduling_callback_runs_until_it_stops(self):
        sim = make_sim()
        count = []

        def reschedule():
            count.append(sim.now)
            if len(count) < 25:
                sim.schedule_callback(sim.now + 1.0, reschedule)

        sim.schedule_callback(0.0, reschedule)
        sim.run()
        assert count == [float(k) for k in range(25)]
        assert sim.events_processed == 25

    def test_arrivals_handed_over_once(self):
        sim = make_sim()
        sim.set_arrivals([1.0], ["a"])
        with pytest.raises(SimulationError, match="already"):
            sim.set_arrivals([2.0], ["b"])

    @pytest.mark.parametrize(
        "times", [[2.0, 1.0], [-1.0], [0.0, 0.5, 0.25]], ids=["desc", "neg", "late"]
    )
    def test_unsorted_or_past_arrivals_rejected(self, times):
        with pytest.raises(SimulationError, match="sorted"):
            make_sim().set_arrivals(times, list(range(len(times))))

    def test_arrival_count_must_match_times(self):
        with pytest.raises(SimulationError):
            make_sim().set_arrivals([0.0, 1.0], ["a"])


class TestDiskService:
    def test_single_op_completion_time(self):
        disks = make_disks()
        done = service_disk_ops(disks, 0.0, [DiskOp(0, OpType.READ, 100, 4)])
        expected = disks[0].params.controller_overhead
        expected += disks[0].params.seek_time(100)
        expected += disks[0].params.avg_rotational_latency
        expected += disks[0].params.transfer_time(4)
        assert done == pytest.approx(expected)

    def test_empty_ops_complete_immediately(self):
        assert service_disk_ops(make_disks(), 3.0, []) == 3.0

    def test_fcfs_queueing_on_one_disk(self):
        disks = make_disks()
        first = service_disk_ops(disks, 0.0, [DiskOp(0, OpType.READ, 1000, 1)])
        second = service_disk_ops(disks, 0.0, [DiskOp(0, OpType.READ, 50000, 1)])
        # The second op waits for the first even though both were
        # issued at t=0.
        assert second > first

    def test_parallel_disks_overlap(self):
        disks = make_disks(ndisks=2)
        both = service_disk_ops(
            disks,
            0.0,
            [DiskOp(0, OpType.READ, 1000, 1), DiskOp(1, OpType.READ, 1000, 1)],
        )
        solo = Disk(disks[0].params).service(0.0, 1000, 1)
        # Two disks in parallel take as long as one op, not two.
        assert both == pytest.approx(solo)

    def test_unknown_disk_rejected(self):
        with pytest.raises(SimulationError):
            service_disk_ops(make_disks(), 0.0, [DiskOp(5, OpType.READ, 0, 1)])

    def test_volume_ops_route_through_raid(self):
        disks = make_disks(ndisks=4)
        raid = RaidArray(RaidGeometry(level=RaidLevel.RAID0, ndisks=4))
        done = service_volume_ops(raid, disks, 0.0, [VolumeOp(OpType.READ, 0, 64)])
        assert done > 0.0
        # A 64-block read at stripe unit 16 touches all four disks.
        assert sum(d.ops_serviced for d in disks) == 4

    def test_utilisation_reporting(self):
        disks = make_disks()
        service_disk_ops(disks, 0.0, [DiskOp(0, OpType.WRITE, 0, 8)])
        util = disk_utilisation(disks)
        assert util[0]["ops"] == 1
        assert util[0]["blocks"] == 8
        assert util[0]["busy_time"] > 0
