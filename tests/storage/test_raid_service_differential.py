"""``RaidArray.service`` and ``Disk.service_rmw`` against the per-op path.

The reference services a volume op the long way: ``RaidArray.map``
(``map_degraded`` with a failed member) builds the ``DiskOp`` list and
each op goes through ``Disk.service``; the completion is the latest
op's.  ``RaidArray.service`` must make the same disk calls without the
list -- one- and two-fragment extents are computed inline and RAID-5
read-modify-write pairs are fused into ``Disk.service_rmw`` -- so every
``Disk`` counter, the head, the busy horizon and the completion time
must match the reference bit for bit.  Hypothesis draws RAID-0, RAID-5
and single-disk arrays of 1-8 disks with stripe units of 1-16 blocks,
and extents inside one unit, across one unit boundary (within a row or
into the next row) and across two or more, some repeated or continued
from the previous extent (zero and ``n``-block seeks), on disks with
and without fail-slow windows.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.request import OpType
from repro.storage.disk import Disk, DiskParams
from repro.storage.raid import RaidArray, RaidGeometry, RaidLevel
from repro.storage.volume import VolumeOp

#: Every piece of state ``Disk.service`` touches.
_FIELDS = (
    "head",
    "busy_until",
    "ops_serviced",
    "blocks_moved",
    "busy_time",
    "seek_time_total",
    "rotation_time_total",
    "transfer_time_total",
    "slow_ops",
    "slow_extra_time",
)


def _state(disks: List[Disk]) -> List[Tuple[object, ...]]:
    """Each disk's state; floats as hex so equality is bitwise."""
    return [
        tuple(
            v.hex() if isinstance(v, float) else v
            for v in (getattr(d, f) for f in _FIELDS)
        )
        for d in disks
    ]


def _reference(
    raid: RaidArray, disks: List[Disk], now: float, vop: VolumeOp,
    failed: Optional[int],
) -> float:
    ops = raid.map(vop) if failed is None else raid.map_degraded(vop, failed)
    completion = now
    for op in ops:
        done = disks[op.disk_id].service(now, op.pba, op.nblocks)
        if done > completion:
            completion = done
    return completion


@st.composite
def geometries(draw: st.DrawFn) -> RaidGeometry:
    level = draw(st.sampled_from([RaidLevel.RAID0, RaidLevel.RAID5, RaidLevel.SINGLE]))
    if level is RaidLevel.SINGLE:
        ndisks = 1
    elif level is RaidLevel.RAID5:
        ndisks = draw(st.integers(3, 8))
    else:
        ndisks = draw(st.integers(1, 8))
    return RaidGeometry(level, ndisks, draw(st.integers(1, 16)))


@st.composite
def cases(draw: st.DrawFn):
    geometry = draw(geometries())
    raid = RaidArray(geometry)
    su = geometry.stripe_unit_blocks
    rows = draw(st.integers(2, 24))
    disk_blocks = rows * su
    capacity = raid.volume_capacity_blocks(disk_blocks)
    row_blocks = geometry.data_disks * su
    failed = None
    if geometry.level is RaidLevel.RAID5 and draw(st.booleans()):
        failed = draw(st.integers(0, geometry.ndisks - 1))
    slow = draw(
        st.lists(
            st.tuples(
                st.integers(0, geometry.ndisks - 1),
                st.floats(0.0, 0.5),
                st.floats(0.0, 0.5),
                st.floats(1.0, 8.0),
            ),
            max_size=3,
        )
    )
    ops = []
    prev = (0, 1)
    now = 0.0
    for _ in range(draw(st.integers(1, 30))):
        placement = draw(st.sampled_from(["random", "repeat", "continue"]))
        if placement == "repeat":
            pba, n = prev
        else:
            if placement == "continue":
                pba = prev[0] + prev[1]
            else:
                pba = draw(st.integers(0, capacity - 1))
            if pba >= capacity:
                pba = 0
            offset = pba % su
            shape = draw(st.sampled_from(["one unit", "two units", "longer", "rows"]))
            if shape == "one unit":
                n = draw(st.integers(1, su - offset))
            elif shape == "two units":
                n = su - offset + draw(st.integers(1, su))
            elif shape == "longer":
                n = draw(st.integers(1, 3 * su))
            else:
                n = draw(st.integers(row_blocks - su, 2 * row_blocks + su))
            n = max(1, min(n, capacity - pba))
        prev = (pba, n)
        now += draw(st.sampled_from([0.0, 0.0, 1e-4, 0.003, 0.05]))
        op = draw(st.sampled_from([OpType.READ, OpType.WRITE]))
        ops.append((now, VolumeOp(op, pba, n)))
    return geometry, disk_blocks, failed, slow, ops


@given(case=cases())
@settings(max_examples=400, deadline=None)
@example(  # 3-disk RAID-5, aligned two-unit write: a full stripe.
    case=(RaidGeometry(RaidLevel.RAID5, 3, 4), 32, None, [],
          [(0.0, VolumeOp(OpType.WRITE, 8, 8)), (0.0, VolumeOp(OpType.WRITE, 8, 8))])
)
@example(  # row wrap, then the parity ranges of one row merging and not.
    case=(RaidGeometry(RaidLevel.RAID5, 4, 4), 32, None, [],
          [(0.0, VolumeOp(OpType.WRITE, 10, 4)), (0.0, VolumeOp(OpType.WRITE, 2, 4)),
           (0.0, VolumeOp(OpType.WRITE, 3, 2)), (0.001, VolumeOp(OpType.WRITE, 1, 6))])
)
def test_service_matches_per_op_reference(case):
    geometry, disk_blocks, failed, slow, ops = case
    raid = RaidArray(geometry)
    params = DiskParams(total_blocks=disk_blocks)
    kernel = [Disk(params, disk_id=i) for i in range(geometry.ndisks)]
    reference = [Disk(params, disk_id=i) for i in range(geometry.ndisks)]
    for disk, start, length, mult in slow:
        for disks in (kernel, reference):
            disks[disk].add_slow_window(start, start + length, mult)
    for now, vop in ops:
        want = _reference(raid, reference, now, vop, failed)
        got = raid.service(kernel, now, vop, failed)
        assert got.hex() == want.hex(), (now, vop)
        assert _state(kernel) == _state(reference), (now, vop)


@given(
    total=st.integers(1, 5000),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["random", "repeat", "continue"]),
            st.integers(0, 5000),
            st.integers(1, 64),
            st.sampled_from([0.0, 1e-4, 0.02]),
        ),
        min_size=1,
        max_size=25,
    ),
    slow=st.lists(
        st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.floats(1.0, 8.0)),
        max_size=2,
    ),
)
@settings(max_examples=300, deadline=None)
def test_service_rmw_is_two_services(total, steps, slow):
    params = DiskParams(total_blocks=total)
    fused, reference = Disk(params), Disk(params)
    for start, length, mult in slow:
        fused.add_slow_window(start, start + length, mult)
        reference.add_slow_window(start, start + length, mult)
    now = 0.0
    pba, n = 0, 1
    for placement, raw_pba, raw_n, dt in steps:
        if placement == "continue":
            pba = pba + n
        elif placement == "random":
            pba = raw_pba
        n = raw_n if placement != "repeat" else n
        if pba >= total:
            pba = 0
        n = max(1, min(n, total - pba))
        now += dt
        reference.service(now, pba, n)
        want = reference.service(now, pba, n)
        got = fused.service_rmw(now, pba, n)
        assert got.hex() == want.hex()
        assert _state([fused]) == _state([reference])
