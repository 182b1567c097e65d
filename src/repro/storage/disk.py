"""Single-HDD service-time model.

The paper's testbed uses WDC WD1600AAJS SATA disks (7200 RPM).  We
model the three mechanical components of a disk access:

* **seek** -- a square-root curve ``seek(d) = a + b*sqrt(d/D)`` between
  a track-to-track minimum and a full-stroke maximum, the standard
  first-order model (Ruemmler & Wilkes).  ``d`` is the block distance
  from the current head position; ``D`` the disk capacity in blocks.
* **rotation** -- the expected half-rotation at 7200 RPM.  We charge
  the deterministic expectation rather than sampling so simulations
  are exactly reproducible.
* **transfer** -- bytes moved at the sustained media rate.

Strictly sequential accesses (the op starts exactly where the head
stopped) skip both seek and rotation, which is what makes fragmented
reads expensive relative to sequential ones -- the *read
amplification* effect that motivates Select-Dedupe's category 2.
"""

from __future__ import annotations

from math import sqrt
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.constants import BLOCK_SIZE
from repro.errors import StorageError


@dataclass(frozen=True)
class DiskParams:
    """Mechanical parameters of one member disk.

    Defaults approximate the WDC WD1600AAJS (160 GB, 7200 RPM) used in
    the paper, scaled to the simulated capacity.
    """

    #: Usable capacity in 4 KB blocks.
    total_blocks: int = 4 * 1024 * 1024  # 16 GiB by default
    #: Spindle speed in revolutions per minute.
    rpm: int = 7200
    #: Track-to-track (minimum non-zero) seek time, seconds.
    seek_min: float = 0.8e-3
    #: Full-stroke seek time, seconds.
    seek_max: float = 17.0e-3
    #: Sustained media transfer rate, bytes/second.
    transfer_rate: float = 90e6
    #: Fixed per-op controller/command overhead, seconds.
    controller_overhead: float = 0.1e-3

    def __post_init__(self) -> None:
        if self.total_blocks <= 0:
            raise StorageError("disk capacity must be positive")
        if self.rpm <= 0:
            raise StorageError("rpm must be positive")
        if not (0 <= self.seek_min <= self.seek_max):
            raise StorageError("need 0 <= seek_min <= seek_max")
        if self.transfer_rate <= 0:
            raise StorageError("transfer rate must be positive")

    @property
    def avg_rotational_latency(self) -> float:
        """Expected rotational delay: half a revolution, seconds."""
        return 60.0 / self.rpm / 2.0

    def seek_time(self, distance_blocks: int) -> float:
        """Seek time for a head movement of ``distance_blocks``.

        Zero distance costs nothing; otherwise the square-root curve
        interpolates between ``seek_min`` and ``seek_max``.
        """
        if distance_blocks < 0:
            raise StorageError(f"negative seek distance {distance_blocks}")
        if distance_blocks == 0:
            return 0.0
        frac = min(1.0, distance_blocks / self.total_blocks)
        return self.seek_min + (self.seek_max - self.seek_min) * sqrt(frac)

    def transfer_time(self, nblocks: int) -> float:
        """Media transfer time for ``nblocks`` 4 KB blocks."""
        if nblocks < 0:
            raise StorageError(f"negative transfer length {nblocks}")
        return nblocks * BLOCK_SIZE / self.transfer_rate


class Disk:
    """Mechanical state of one disk: head position and busy horizon.

    The engine serialises ops FCFS per disk: an op issued at time *t*
    starts at ``max(t, busy_until)``, runs for :meth:`service_time`,
    and advances the head to the end of the accessed extent.

    Attributes
    ----------
    params:
        The mechanical parameter set.
    head:
        Current head position (block address) after the last op.
    busy_until:
        Simulation time at which the disk becomes idle.
    """

    def __init__(self, params: DiskParams, disk_id: int = 0) -> None:
        self.params = params
        self.disk_id = disk_id
        self.head: int = 0
        self.busy_until: float = 0.0
        #: Counters for utilisation reporting.
        self.ops_serviced: int = 0
        self.blocks_moved: int = 0
        self.busy_time: float = 0.0
        #: Mechanical-time decomposition (observability): where the
        #: busy time actually went.  ``seek_time_total`` +
        #: ``rotation_time_total`` + ``transfer_time_total`` +
        #: per-op controller overhead == ``busy_time``.
        self.seek_time_total: float = 0.0
        self.rotation_time_total: float = 0.0
        self.transfer_time_total: float = 0.0
        #: Fail-slow windows ``(start, end, multiplier)``: while the
        #: op's *start* time falls inside a window, every mechanical
        #: component is stretched by the multiplier (a degrading disk
        #: serves I/O correctly but slowly).  Empty by default, so the
        #: healthy path costs one truthiness test.
        self.slow_windows: List[Tuple[float, float, float]] = []
        #: Ops that ran slowed, and the extra seconds charged.
        self.slow_ops: int = 0
        self.slow_extra_time: float = 0.0
        # Service constants, read once per op.  Each is the operand the
        # ``DiskParams`` methods use, so every float is computed by the
        # same operations in the same order.
        self._total = params.total_blocks
        self._seek_min = params.seek_min
        self._seek_span = params.seek_max - params.seek_min
        self._rotation = params.avg_rotational_latency
        self._rate = params.transfer_rate
        self._overhead = params.controller_overhead
        #: ``service_rmw`` memo: the rewrite after a read of ``n`` blocks
        #: seeks exactly ``n`` blocks back, so its ``(seek, transfer,
        #: duration)`` depends on ``n`` alone.
        self._rmw: Dict[int, Tuple[float, float, float]] = {}

    def add_slow_window(self, start: float, end: float, multiplier: float) -> None:
        """Register a fail-slow window (fault injection)."""
        if end < start:
            raise StorageError("fail-slow window ends before it starts")
        if multiplier < 1.0:
            raise StorageError("fail-slow multiplier must be >= 1")
        self.slow_windows.append((start, end, multiplier))

    def slow_multiplier(self, t: float) -> float:
        """Combined latency multiplier at time ``t`` (1.0 = healthy)."""
        m = 1.0
        for start, end, mult in self.slow_windows:
            if start <= t < end:
                m *= mult
        return m

    def service_time(self, pba: int, nblocks: int) -> float:
        """Mechanical time to service an access at ``pba`` of ``nblocks``.

        Does not include queueing delay; the engine adds that.  Pure:
        does not move the head or advance the busy horizon.
        """
        if pba < 0 or pba + nblocks > self._total:
            raise self._out_of_range(pba, nblocks)
        distance = abs(pba - self.head)
        seek = rotation = 0.0
        if distance:
            seek = self.params.seek_time(distance)
            rotation = self._rotation
        return self._overhead + seek + rotation + self.params.transfer_time(nblocks)

    def _out_of_range(self, pba: int, nblocks: int) -> StorageError:
        return StorageError(
            f"disk {self.disk_id}: access [{pba}, {pba + nblocks}) outside "
            f"capacity {self._total}"
        )

    def service(self, now: float, pba: int, nblocks: int) -> float:
        """Schedule one op FCFS and return its *completion time*.

        Mutates the disk state (head position, busy horizon, counters).
        """
        if pba < 0 or pba + nblocks > self._total:
            raise self._out_of_range(pba, nblocks)
        busy = self.busy_until
        start = busy if busy > now else now
        distance = pba - self.head
        if distance:
            if distance < 0:
                distance = -distance
            frac = distance / self._total
            if frac > 1.0:
                frac = 1.0
            seek = self._seek_min + self._seek_span * sqrt(frac)
            rotation = self._rotation
        else:
            seek = rotation = 0.0
        transfer = nblocks * BLOCK_SIZE / self._rate
        overhead = self._overhead
        if self.slow_windows:
            mult = self.slow_multiplier(start)
            if mult > 1.0:
                base = overhead + seek + rotation + transfer
                overhead *= mult
                seek *= mult
                rotation *= mult
                transfer *= mult
                self.slow_ops += 1
                self.slow_extra_time += (overhead + seek + rotation + transfer) - base
        duration = overhead + seek + rotation + transfer
        self.head = pba + nblocks
        done = start + duration
        self.busy_until = done
        self.ops_serviced += 1
        self.blocks_moved += nblocks
        self.busy_time += duration
        self.seek_time_total += seek
        self.rotation_time_total += rotation
        self.transfer_time_total += transfer
        return done

    def service_rmw(self, now: float, pba: int, nblocks: int) -> float:
        """Read ``[pba, pba + nblocks)`` then rewrite it, both issued at
        ``now`` (one half of a RAID-5 read-modify-write); return the
        rewrite's completion time.

        Exactly ``service(now, pba, nblocks)`` twice: same counters,
        same float operations in the same order.  The rewrite's seek
        distance is always ``nblocks`` (the read left the head at the
        extent's end), so its costs come from a per-length memo.
        """
        if self.slow_windows or pba < 0 or pba + nblocks > self._total:
            self.service(now, pba, nblocks)
            return self.service(now, pba, nblocks)
        memo = self._rmw.get(nblocks)
        if memo is None:
            frac = nblocks / self._total
            if frac > 1.0:
                frac = 1.0
            seek = self._seek_min + self._seek_span * sqrt(frac)
            transfer = nblocks * BLOCK_SIZE / self._rate
            memo = (seek, transfer, self._overhead + seek + self._rotation + transfer)
            self._rmw[nblocks] = memo
        seek_n, transfer, duration_n = memo
        rotation = self._rotation
        busy = self.busy_until
        start = busy if busy > now else now
        distance = pba - self.head
        if distance:
            if distance < 0:
                distance = -distance
            if distance == nblocks:
                seek = seek_n
                duration = duration_n
            else:
                frac = distance / self._total
                if frac > 1.0:
                    frac = 1.0
                seek = self._seek_min + self._seek_span * sqrt(frac)
                duration = self._overhead + seek + rotation + transfer
            self.seek_time_total += seek
            self.rotation_time_total += rotation
        else:
            duration = self._overhead + transfer
        # The rewrite queues behind the read (``start + duration`` is
        # never before ``now``).
        done = start + duration + duration_n
        self.head = pba + nblocks
        self.busy_until = done
        self.ops_serviced += 2
        self.blocks_moved += nblocks + nblocks
        self.busy_time = (self.busy_time + duration) + duration_n
        self.seek_time_total += seek_n
        self.rotation_time_total += rotation
        self.transfer_time_total += transfer
        self.transfer_time_total += transfer
        return done

    def reset(self) -> None:
        """Return the disk to its initial idle state."""
        self.head = 0
        self.busy_until = 0.0
        self.ops_serviced = 0
        self.blocks_moved = 0
        self.busy_time = 0.0
        self.seek_time_total = 0.0
        self.rotation_time_total = 0.0
        self.transfer_time_total = 0.0
        self.slow_windows = []
        self.slow_ops = 0
        self.slow_extra_time = 0.0


def queue_lag(disks: Sequence[Disk], now: float) -> float:
    """Worst backlog across ``disks``: how far the busiest disk's busy
    horizon extends past ``now`` (0 when all are idle).  The timeline
    sampler records it as a per-window gauge."""
    lag = 0.0
    for disk in disks:
        behind = disk.busy_until - now
        if behind > lag:
            lag = behind
    return lag


def disk_utilisation(disks: Sequence[Disk]) -> Dict[int, Dict[str, float]]:
    """Per-disk utilisation summary, keyed by ``disk_id``, for reports."""
    return {
        disk.disk_id: {
            "ops": disk.ops_serviced,
            "blocks": disk.blocks_moved,
            "busy_time": disk.busy_time,
            "seek_time": disk.seek_time_total,
            "rotation_time": disk.rotation_time_total,
            "transfer_time": disk.transfer_time_total,
        }
        for disk in disks
    }
