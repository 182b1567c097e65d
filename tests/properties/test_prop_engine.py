"""Property-based tests for disk service and the SSD model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.request import DiskOp, OpType
from repro.storage.disk import Disk, DiskParams
from repro.storage.raid import service_disk_ops
from repro.storage.ssd import Ssd, SsdParams

CAP = 1 << 18

op_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=CAP - 64),  # pba
        st.integers(min_value=1, max_value=64),  # nblocks
        st.booleans(),  # write?
    ),
    min_size=1,
    max_size=40,
)


def _ops(raw):
    return [
        DiskOp(0, OpType.WRITE if w else OpType.READ, pba, n) for pba, n, w in raw
    ]


class TestEngineProperties:
    @given(raw=op_lists)
    @settings(max_examples=60)
    def test_completion_monotone_and_busy_conserved(self, raw):
        disk = Disk(DiskParams(total_blocks=CAP))
        done_prev = 0.0
        for op in _ops(raw):
            done = service_disk_ops([disk], 0.0, [op])
            # FCFS: completions never go backwards
            assert done >= done_prev
            done_prev = done
        # busy accounting: the disk was busy exactly busy_time, and the
        # last completion equals the accumulated busy time (all ops
        # were issued at t=0, no idling).
        assert done_prev == sum(
            [disk.busy_time]
        )  # single disk: completion == total service


class TestSsdProperties:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=256), min_size=1, max_size=50)
    )
    def test_fcfs_accumulates(self, sizes):
        ssd = Ssd(SsdParams())
        total = 0.0
        for n in sizes:
            done = ssd.service(0.0, n)
            total += ssd.params.service_time(n)
            assert done == sum([ssd.busy_time])
        assert ssd.blocks_moved == sum(sizes)
        assert abs(ssd.busy_time - total) < 1e-12
