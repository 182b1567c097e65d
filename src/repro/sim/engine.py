"""The discrete-event simulator core.

The engine owns the clock, the event queue, the member disks and the
RAID mapper.  Disks are serviced FCFS: because :meth:`Disk.service`
computes completion analytically from the disk's busy horizon, an op
*issued* at simulation time *t* starts at ``max(t, busy_until)`` --
ops are therefore served in issue order, which the event loop keeps
equal to timestamp order.

Higher layers interact through two calls:

* :meth:`Simulator.schedule_callback` -- run a function at a future
  simulated time (used for fingerprint delays, iCache epochs, request
  finalisation).
* :meth:`Simulator.service_volume_ops` -- translate volume extents
  through the RAID layer onto the disks and return the time at which
  the *last* of them completes (a request is done when all its disk
  ops are done).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.request import DiskOp
from repro.storage.disk import Disk, disk_utilisation
from repro.storage.raid import FaultHook, RaidArray, service_disk_ops, service_volume_ops
from repro.storage.volume import VolumeOp


class Simulator:
    """Discrete-event engine over a set of disks behind a RAID layer.

    Disks are served FCFS analytically: completion times are computed
    at issue time from each disk's busy horizon.
    """

    def __init__(
        self,
        disks: Sequence[Disk],
        raid: Optional[RaidArray],
        failed_disk: Optional[int] = None,
    ) -> None:
        if raid is None:
            # Bare event-loop mode (clock + queue only): the caller owns
            # all disk state and services ops itself -- used by the
            # cluster replay, where each node has a private array.
            if disks:
                raise SimulationError("bare event-loop mode takes no disks")
            if failed_disk is not None:
                raise SimulationError("bare event-loop mode has no disks to fail")
        elif len(disks) != raid.geometry.ndisks:
            raise SimulationError(
                f"raid geometry wants {raid.geometry.ndisks} disks, got {len(disks)}"
            )
        self.disks: List[Disk] = list(disks)
        self.raid: Optional[RaidArray] = raid
        self.failed_disk = failed_disk
        if failed_disk is not None and not (0 <= failed_disk < len(self.disks)):
            raise SimulationError(f"no member disk {failed_disk} to fail")
        self.queue = EventQueue()
        self.now: float = 0.0
        self.events_processed: int = 0
        #: Attached trace recorder (observation only; the disabled
        #: default costs one integer compare per guarded site).
        self.obs: TraceRecorder = NULL_RECORDER
        #: Fault-injection hook consulted per disk op: return a
        #: completion time to *override* normal service (the hook did
        #: the mechanical work itself, e.g. a failed read plus its
        #: parity reconstruction), or ``None`` to fall through.  ``None``
        #: by default, which keeps disk service on ``RaidArray.service``.
        self.fault_hook: Optional[FaultHook] = None

    def attach_observer(self, recorder: TraceRecorder) -> None:
        """Attach a trace recorder for disk-level micro-events."""
        self.obs = recorder

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule_callback(
        self, time: float, fn: Callable[..., None], *args: object
    ) -> Event:
        """Run ``fn(*args)`` at simulated ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"callback scheduled in the past ({time} < {self.now})")
        return self.queue.schedule(time, EventKind.CALLBACK, (fn, args))

    def schedule_arrival(self, time: float, payload: object) -> Event:
        """Schedule a REQUEST_ARRIVAL event (consumed by the replay
        harness's registered handler)."""
        return self.queue.schedule(time, EventKind.REQUEST_ARRIVAL, payload)

    # ------------------------------------------------------------------
    # disk service
    # ------------------------------------------------------------------

    def service_disk_ops(self, now: float, ops: Sequence[DiskOp]) -> float:
        """Issue raw per-disk ops FCFS; return the last completion time.

        An empty op list completes immediately at ``now``.
        """
        return service_disk_ops(self.disks, now, ops, self.obs, self.fault_hook)

    def service_volume_ops(self, now: float, ops: Sequence[VolumeOp]) -> float:
        """Translate volume extents through RAID and service them."""
        if self.raid is None:
            raise SimulationError("bare event-loop engine cannot translate volume ops")
        return service_volume_ops(
            self.raid, self.disks, now, ops, self.failed_disk, self.obs, self.fault_hook
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(
        self,
        arrival_handler: Optional[Callable[[float, object], None]] = None,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Drain the event queue.

        Parameters
        ----------
        arrival_handler:
            Called as ``handler(now, payload)`` for every
            REQUEST_ARRIVAL event.  Required if any are scheduled.
        until:
            Stop (leaving events queued) once the clock passes this.
        max_events:
            Safety valve for tests.
        """
        # Hot loop: hoist every invariant attribute/global into locals
        # (measured: the pop/dispatch overhead is paid once per event,
        # millions of times on production-size replays).
        queue = self.queue
        pop = queue.pop
        callback_kind = EventKind.CALLBACK
        arrival_kind = EventKind.REQUEST_ARRIVAL
        processed = self.events_processed
        try:
            while queue:
                if until is not None:
                    next_time = queue.peek_time()
                    if next_time is not None and next_time > until:
                        break
                event = pop()
                time = event.time
                if time < self.now:
                    raise SimulationError("event queue returned an event in the past")
                self.now = time
                processed += 1
                kind = event.kind
                if kind is callback_kind:
                    fn, args = event.payload
                    fn(*args)
                elif kind is arrival_kind:
                    if arrival_handler is None:
                        raise SimulationError("arrival event with no registered handler")
                    arrival_handler(time, event.payload)
                else:  # pragma: no cover - future event kinds
                    raise SimulationError(f"unhandled event kind {kind}")
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self.events_processed = processed

    # ------------------------------------------------------------------

    def utilisation(self) -> Dict[int, Dict[str, float]]:
        """Per-disk utilisation summary (for reports and debugging)."""
        return disk_utilisation(self.disks)
