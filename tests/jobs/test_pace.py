"""The unleased pacer: a leased job's own steps on a fixed cadence."""

from repro.jobs.jobs import LeasedJob, Step
from repro.jobs.runtime import pace
from repro.sim.engine import Simulator


class CountJob(LeasedJob):
    """``steps`` one-unit steps; each issue records its time and the
    cursor it planned from."""

    def __init__(self, steps):
        self.steps = steps
        self.cursor = 0
        self.issued = []

    def done(self):
        return self.cursor >= self.steps

    def progress(self):
        return self.cursor / self.steps if self.steps else 1.0

    def total(self):
        return self.steps

    def run_step(self, now):
        start = self.cursor
        self.issued.append((now, start))

        def commit():
            self.cursor = start + 1

        # Physical work finishing far later gates nothing.
        return Step(now + 100.0, (start, start + 1), commit)


def _paced(job, at=1.0, interval=0.5):
    sim = Simulator()
    notes, finished = [], []
    sim.schedule_callback(
        at, lambda: pace(
            sim, job, interval,
            on_step=lambda now: notes.append((now, job.cursor)),
            on_done=finished.append,
        ),
    )
    sim.run()
    return notes, finished


def test_one_committed_step_per_tick_from_now_plus_interval():
    job = CountJob(3)
    notes, finished = _paced(job)
    assert job.issued == [(1.5, 0), (2.0, 1), (2.5, 2)]
    # each step is committed before its tick's progress note
    assert notes == [(1.5, 1), (2.0, 2), (2.5, 3)]
    assert finished == [2.5]


def test_done_job_ticks_once_without_a_step():
    job = CountJob(0)
    notes, finished = _paced(job)
    assert job.issued == []
    assert notes == [(1.5, 0)]
    assert finished == [1.5]
