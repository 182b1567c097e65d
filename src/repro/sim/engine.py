"""The discrete-event simulator core: the clock and the event queue.

Higher layers schedule work through two calls:

* :meth:`Simulator.schedule_arrival` -- a request arrival at its trace
  timestamp (consumed by the replay's arrival handler);
* :meth:`Simulator.schedule_callback` -- run a function at a future
  simulated time (fingerprint delays, iCache epochs, request
  finalisation, fault and job pacing).

Events pop in ``(time, seq)`` order, so equal timestamps keep their
scheduling order.  The engine keeps no disk state: the replay's nodes
own their member disks and RAID arrays and service ops through
:func:`repro.storage.raid.service_volume_ops`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventKind, EventQueue


class Simulator:
    """Discrete-event engine: a clock and an event queue."""

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now: float = 0.0
        self.events_processed: int = 0

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
