"""The discrete-event simulator core: the clock, a heap of timed
callbacks and a cursor over the arrivals.

The replay hands its merged, time-sorted arrivals over once
(:meth:`Simulator.set_arrivals`; :meth:`Simulator.run` passes each to
its arrival handler) and schedules everything else -- fingerprint
delays, iCache epochs, request finalisation, fault and job pacing --
with :meth:`Simulator.schedule_callback`.

Events run in ``(time, seq)`` order, so equal timestamps keep their
scheduling order.  The arrivals take one contiguous block of sequence
numbers when they are handed over: a callback scheduled before that
wins a timestamp tie against every arrival, one scheduled after loses
it.  The engine keeps no disk state: the replay's nodes own their
member disks and RAID arrays.
"""

from __future__ import annotations

import heapq
from itertools import islice
from operator import lt
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError


class Simulator:
    """Discrete-event engine: a clock, a heap of ``(time, seq, fn,
    args)`` callbacks and a cursor over the arrivals."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[..., None], Tuple[Any, ...]]] = []
        self._seq = 0
        self._times: Sequence[float] = ()
        self._arrivals: Sequence[object] = ()
        #: Sequence number of the first arrival.
        self._arrival_seq = 0
        self._cursor = 0
        self.now: float = 0.0
        #: Events run so far: arrivals and callbacks.
        self.events_processed: int = 0

    def schedule_callback(
        self, time: float, fn: Callable[..., None], *args: object
    ) -> None:
        """Run ``fn(*args)`` at simulated ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"callback scheduled in the past ({time} < {self.now})")
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def set_arrivals(self, times: Sequence[float], arrivals: Sequence[object]) -> None:
        """Hand over the arrivals once: ``arrivals[k]`` arrives at
        ``times[k]``; ``times`` is sorted and not before ``now``."""
        if self._arrivals:
            raise SimulationError("arrivals were already handed over")
        if len(times) != len(arrivals):
            raise SimulationError(f"{len(times)} arrival times for {len(arrivals)} arrivals")
        if times and (times[0] < self.now or any(map(lt, islice(times, 1, None), times))):
            raise SimulationError("arrival times must be sorted and not in the past")
        self._times = times
        self._arrivals = arrivals
        self._arrival_seq = self._seq
        self._seq += len(arrivals)

    def run(
        self, arrival_handler: Optional[Callable[[float, Any], None]] = None
    ) -> None:
        """Run every event: ``arrival_handler(now, arrival)`` for each
        arrival, and each callback, in ``(time, seq)`` order."""
        times = self._times
        arrivals = self._arrivals
        n = len(arrivals)
        cursor = self._cursor
        if cursor < n and arrival_handler is None:
            raise SimulationError("arrivals with no registered handler")
        first_seq = self._arrival_seq
        heap = self._heap
        pop = heapq.heappop
        processed = self.events_processed
        try:
            while True:
                if cursor < n:
                    t = times[cursor]
                    # The heap top runs first when it is earlier than
                    # the next arrival, or as early and scheduled
                    # before the arrival block (a smaller seq).
                    if heap:
                        top = heap[0]
                        if top[0] <= t and (top[1] < first_seq or top[0] < t):
                            self.now = top[0]
                            processed += 1
                            pop(heap)
                            top[2](*top[3])
                            continue
                    arrival = arrivals[cursor]
                    cursor += 1
                    self.now = t
                    processed += 1
                    arrival_handler(t, arrival)  # type: ignore[misc]
                elif heap:
                    t, _seq, fn, args = pop(heap)
                    self.now = t
                    processed += 1
                    fn(*args)
                else:
                    break
        finally:
            self._cursor = cursor
            self.events_processed = processed
