"""The engine's event order against a one-heap reference scheduler.

:class:`~repro.sim.engine.Simulator` keeps the arrivals out of its
heap: they are handed over once, take one contiguous block of
sequence numbers, and a cursor walks them beside the callback heap.
:class:`OneHeapScheduler` below puts every event -- arrival or
callback -- on one ``(time, seq)`` heap, each arrival pushed with the
next sequence number at hand-over, as the engine's event queue did
before the cursor.  Hypothesis drives the same program through both:
callbacks scheduled before and after the arrival block, arrivals on
equal timestamps, and callbacks (and arrivals) that schedule further
callbacks, zero delays included.  Both must call the handlers in the
same order at the same clock readings and count the same
``events_processed``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


class OneHeapScheduler:
    """Reference: arrivals and callbacks on one ``(time, seq)`` heap."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any, Any]] = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0

    def _push(self, time: float, fn: Any, payload: Any) -> None:
        heapq.heappush(self._heap, (time, self._seq, fn, payload))
        self._seq += 1

    def schedule_callback(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        assert time >= self.now
        self._push(time, fn, args)

    def set_arrivals(self, times: Sequence[float], arrivals: Sequence[Any]) -> None:
        for time, arrival in zip(times, arrivals):
            self._push(time, None, arrival)

    def run(self, arrival_handler: Callable[[float, Any], None]) -> None:
        while self._heap:
            time, _seq, fn, payload = heapq.heappop(self._heap)
            self.now = time
            self.events_processed += 1
            if fn is None:
                arrival_handler(time, payload)
            else:
                fn(*payload)


TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])
#: What an event schedules when it runs: ``((delay, children), ...)``.
CHILDREN = st.recursive(
    st.just(()),
    lambda kids: st.lists(st.tuples(DELAYS, kids), max_size=3).map(tuple),
    max_leaves=8,
)
EVENTS = st.lists(st.tuples(TIMES, CHILDREN), max_size=8)


def _drive(engine: Any, before, arrivals, after) -> Tuple[Any, ...]:
    log: List[Tuple[Any, float]] = []

    def fire(label: Tuple[Any, ...], children) -> None:
        log.append((label, engine.now))
        for k, (delay, grandchildren) in enumerate(children):
            engine.schedule_callback(engine.now + delay, fire, label + (k,), grandchildren)

    for k, (time, children) in enumerate(before):
        engine.schedule_callback(time, fire, ("before", k), children)
    ordered = sorted(arrivals, key=lambda event: event[0])
    engine.set_arrivals(
        [time for time, _ in ordered],
        [(("arrival", k), children) for k, (_, children) in enumerate(ordered)],
    )
    for k, (time, children) in enumerate(after):
        engine.schedule_callback(time, fire, ("after", k), children)
    engine.run(lambda now, arrival: fire(*arrival))
    return log, engine.events_processed, engine.now


@settings(max_examples=400, deadline=None)
@given(EVENTS, EVENTS, EVENTS)
def test_cursor_and_heap_match_one_heap(before, arrivals, after):
    got = _drive(Simulator(), before, arrivals, after)
    want = _drive(OneHeapScheduler(), before, arrivals, after)
    assert got == want
