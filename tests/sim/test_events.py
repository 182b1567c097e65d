"""Unit tests for the engine's event order: the callback heap and the
arrival cursor run events in ``(time, seq)`` order."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def _arrival_log(log):
    return lambda now, payload: log.append(("arrival", now, payload))


class TestEventQueue:
    def test_pop_in_time_order(self):
        sim = Simulator()
        got = []
        sim.schedule_callback(3.0, got.append, "c")
        sim.schedule_callback(1.0, got.append, "a")
        sim.schedule_callback(2.0, got.append, "b")
        sim.run()
        assert got == ["a", "b", "c"]

    def test_fifo_among_simultaneous_events(self):
        sim = Simulator()
        got = []
        for i in range(10):
            sim.schedule_callback(5.0, got.append, i)
        sim.run()
        assert got == list(range(10))

    def test_events_processed_counts_arrivals_and_callbacks(self):
        sim = Simulator()
        sim.run()
        assert sim.events_processed == 0 and sim.now == 0.0
        sim.schedule_callback(0.5, lambda: None)
        sim.set_arrivals([0.0, 1.0], ["x", "y"])
        sim.run(arrival_handler=lambda now, p: None)
        assert sim.events_processed == 3

    def test_clock_reads_the_earliest_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_callback(7.5, lambda: seen.append(sim.now))
        sim.schedule_callback(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5, 7.5]

    def test_run_with_nothing_scheduled_returns(self):
        sim = Simulator()
        sim.run()
        sim.run(arrival_handler=_arrival_log([]))
        assert sim.now == 0.0 and sim.events_processed == 0

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_callback(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            Simulator().set_arrivals([-1.0], ["x"])

    def test_push_assigns_sequence(self):
        # Callbacks scheduled before the arrivals are handed over win a
        # timestamp tie against them; callbacks scheduled after lose it.
        sim = Simulator()
        log = []
        sim.schedule_callback(1.0, log.append, "before")
        sim.set_arrivals([1.0, 1.0], ["a0", "a1"])
        sim.schedule_callback(1.0, log.append, "after")
        sim.run(arrival_handler=lambda now, p: log.append(p))
        assert log == ["before", "a0", "a1", "after"]

    def test_interleaved_push_pop(self):
        sim = Simulator()
        log = []

        def first():
            log.append(1)
            sim.schedule_callback(3.0, log.append, 3)

        sim.schedule_callback(1.0, first)
        sim.schedule_callback(5.0, log.append, 5)
        sim.set_arrivals([2.0, 4.0], [2, 4])
        sim.run(arrival_handler=lambda now, p: log.append(p))
        assert log == [1, 2, 3, 4, 5]
