"""Simulated workers, heartbeats and the recovery sweep.

The :class:`JobRuntime` is the piece that runs *inside* the
:class:`~repro.sim.engine.Simulator`: it drives N simulated workers
against the pure :class:`~repro.jobs.store.JobStore` control plane.

Worker model
------------
An idle worker polls the store every ``poll_interval`` seconds.  On a
claim it enters a step loop: renew the lease, optionally yield to
foreground admission pressure, plan-and-issue one bounded step
(:meth:`LeasedJob.run_step`), then attempt the fenced commit when the
physical work completes.  Crucially the worker **cannot heartbeat
while stuck in a step** -- the step's completion time is computed at
issue, so a fail-slow window on the spindles pushes the commit past
the lease expiry exactly the way a stalled I/O thread starves a real
lease renewer.  The recovery sweep then returns the job to claimable,
another worker re-claims it at the next epoch, and the stuck worker's
late commit is fenced and discarded.  A fenced worker retries claiming
with bounded exponential backoff before falling back to idle polling.

Every committed step is recorded in the
:class:`~repro.faults.oracle.ContentOracle` step ledger, whose
end-of-run verification proves no step was lost or double-applied.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.faults.oracle import ContentOracle
from repro.jobs.admission import AdmissionController
from repro.jobs.jobs import LeasedJob, Step
from repro.jobs.plan import JobsConfig
from repro.jobs.store import JobRecord, JobStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import MetricsRegistry
    from repro.sim.engine import Simulator


def pace(
    sim: "Simulator",
    job: LeasedJob,
    interval: float,
    on_step: Optional[Callable[[float], None]] = None,
    on_done: Optional[Callable[[float], None]] = None,
) -> None:
    """Run ``job`` without leases: one step every ``interval`` seconds
    from ``sim.now + interval``, committed as soon as it is issued.

    Each tick steps the job unless it is done, calls ``on_step``, then
    stops with ``on_done`` once the job is done.  The step's physical
    work is background load: its completion gates nothing.
    """

    def tick() -> None:
        now = sim.now
        if not job.done():
            job.run_step(now).commit()
        if on_step is not None:
            on_step(now)
        if job.done():
            if on_done is not None:
                on_done(now)
            return
        sim.schedule_callback(now + interval, tick)

    sim.schedule_callback(sim.now + interval, tick)


class _Worker:
    __slots__ = ("worker_id", "busy", "parked", "fence_streak")

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.busy = False
        self.parked = False
        self.fence_streak = 0


class JobRuntime:
    """Drives leased jobs on a simulator; owns admission and workers."""

    def __init__(
        self,
        config: JobsConfig,
        sim: "Simulator",
        *,
        horizon: float = 0.0,
        oracle: Optional[ContentOracle] = None,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.config = config
        self.sim = sim
        self.store = JobStore(config.lease)
        self.admission = (
            AdmissionController(config.admission)
            if config.admission is not None
            else None
        )
        #: Step-ledger oracle.  Shared with the fault injector's
        #: content oracle when one exists so a single ``assert_clean``
        #: covers both content and step accounting.
        self.oracle = oracle if oracle is not None else ContentOracle()
        self.timeline: Optional[Any] = None
        self.spans: Optional[Any] = None
        self._registry = registry
        #: Workers and the sweep stop rescheduling once every job is
        #: done and the clock passed this (keeps the event heap finite).
        self._horizon = horizon
        self._workers = [_Worker(i) for i in range(config.workers)]
        self._on_done: Dict[int, Callable[[float], None]] = {}
        self._sweep_active = False
        self._started = False
        self._finalized = False

    # ------------------------------------------------------------------
    # submission and lifecycle
    # ------------------------------------------------------------------

    def submit(
        self,
        name: str,
        job: LeasedJob,
        interval: float,
        *,
        not_before: float = 0.0,
        on_done: Optional[Callable[[float], None]] = None,
    ) -> JobRecord:
        rec = self.store.submit(name, job, interval, not_before=not_before)
        self.oracle.note_job_total(name, job.total())
        if on_done is not None:
            self._on_done[rec.job_id] = on_done
        if not_before > self._horizon:
            self._horizon = not_before
        if self._started:
            # Late submission (e.g. a member failure firing mid-run):
            # wake parked workers and restart the sweep if it stopped.
            now = self.sim.now
            wake = max(now, not_before)
            for w in self._workers:
                if w.parked and not w.busy:
                    w.parked = False
                    self.sim.schedule_callback(wake, self._poll, w)
            if not self._sweep_active:
                self._sweep_active = True
                self.sim.schedule_callback(
                    now + self.config.lease.sweep_interval, self._sweep
                )
        return rec

    def start(self) -> None:
        """Schedule the first worker polls and the recovery sweep."""
        if self._started:
            return
        self._started = True
        now = self.sim.now
        for w in self._workers:
            self.sim.schedule_callback(now, self._poll, w)
        self._sweep_active = True
        self.sim.schedule_callback(now + self.config.lease.sweep_interval, self._sweep)

    def finalize(self) -> None:
        """Mirror counters into the registry and verify the ledger."""
        if self._finalized:
            return
        self._finalized = True
        if self._registry is not None:
            for name, value in self.store.counters.items():
                self._registry.inc(f"jobs.{name}", value)
        self.oracle.assert_job_steps_clean()

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------

    def _keep_running(self, now: float) -> bool:
        return not (self.store.all_done() and now > self._horizon)

    def _poll(self, w: _Worker) -> None:
        if w.busy:
            return
        now = self.sim.now
        rec = self.store.claim(w.worker_id, now)
        if rec is None:
            if self._keep_running(now):
                self.sim.schedule_callback(
                    now + self.config.lease.poll_interval, self._poll, w
                )
            else:
                w.parked = True
            return
        w.busy = True
        if self.spans is not None:
            self.spans.emit(
                now, now,
                "job.reclaim" if rec.last_claim_stale else "job.claim",
                job=rec.job_id, worker=w.worker_id, epoch=rec.epoch,
            )
        self._step_entry(w, rec, rec.epoch)

    def _step_entry(self, w: _Worker, rec: JobRecord, epoch: int) -> None:
        now = self.sim.now
        if rec.job.done():
            self._finish(w, rec, epoch)
            return
        # Renew on progress: prove the lease is still ours before
        # touching the data plane.
        if not self.store.renew(rec, w.worker_id, epoch, now):
            self._fenced(w)
            return
        if self.admission is not None:
            delay = self.admission.maintenance_delay(now)
            if delay > 0.0:
                # Graceful degradation: maintenance yields to throttled
                # foreground tenants before issuing physical work.
                self.store.counters["maintenance_yields"] += 1
                if self.timeline is not None:
                    self.timeline.note_activity(now, "jobs_yield")
                self.sim.schedule_callback(
                    now + delay, self._step_issue, w, rec, epoch
                )
                return
        self._step_issue(w, rec, epoch)

    def _step_issue(self, w: _Worker, rec: JobRecord, epoch: int) -> None:
        now = self.sim.now
        step = rec.job.run_step(now)
        completion = step.completion if step.completion > now else now
        self.sim.schedule_callback(
            completion, self._step_commit, w, rec, epoch, step, now
        )

    def _step_commit(
        self, w: _Worker, rec: JobRecord, epoch: int, step: Step, t0: float
    ) -> None:
        now = self.sim.now
        if not self.store.commit(rec, w.worker_id, epoch, now):
            # Superseded mid-step: the physical work is sunk cost, the
            # state change is discarded (never double-applied).
            if self.spans is not None:
                self.spans.emit(
                    t0, now, "job.fenced",
                    job=rec.job_id, worker=w.worker_id, epoch=epoch,
                )
            self._fenced(w)
            return
        step.commit()
        self.oracle.note_job_step(rec.name, step.span[0], step.span[1])
        w.fence_streak = 0
        if self.spans is not None:
            self.spans.emit(
                t0, now, "job.step",
                job=rec.job_id, worker=w.worker_id, epoch=epoch,
                cursor=step.span[1],
            )
        if self.timeline is not None:
            self.timeline.note_activity(now, "jobs", rec.job.progress())
        if rec.job.done():
            self._finish(w, rec, epoch)
            return
        self.sim.schedule_callback(now + rec.interval, self._step_entry, w, rec, epoch)

    def _finish(self, w: _Worker, rec: JobRecord, epoch: int) -> None:
        now = self.sim.now
        if self.store.complete(rec, w.worker_id, epoch):
            self.oracle.note_job_done(rec.name)
            if self.spans is not None:
                self.spans.emit(
                    now, now, "job.complete",
                    job=rec.job_id, worker=w.worker_id, epoch=epoch,
                )
            cb = self._on_done.pop(rec.job_id, None)
            if cb is not None:
                cb(now)
        w.busy = False
        self.sim.schedule_callback(now, self._poll, w)

    def _fenced(self, w: _Worker) -> None:
        """Bounded exponential backoff after losing a fence race."""
        now = self.sim.now
        lease = self.config.lease
        w.busy = False
        w.fence_streak += 1
        if w.fence_streak <= lease.max_retries:
            self.store.counters["step_retries"] += 1
            backoff = lease.backoff * (2 ** (w.fence_streak - 1))
        else:
            w.fence_streak = 0
            backoff = lease.poll_interval
        self.sim.schedule_callback(now + backoff, self._poll, w)

    # ------------------------------------------------------------------
    # recovery sweep
    # ------------------------------------------------------------------

    def _sweep(self) -> None:
        now = self.sim.now
        expired = self.store.sweep(now)
        for rec in expired:
            if self.spans is not None:
                self.spans.emit(
                    now, now, "job.lease_expired",
                    job=rec.job_id, epoch=rec.epoch,
                )
            if self.timeline is not None:
                self.timeline.note_activity(now, "jobs_lease_expired")
        if not self._keep_running(now):
            self._sweep_active = False
            return
        self.sim.schedule_callback(
            now + self.config.lease.sweep_interval, self._sweep
        )

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Jobs-subsystem snapshot for ``ReplayResult.jobs_stats`` and
        the run report's ``jobs`` section."""
        lease = self.config.lease
        out: Dict[str, Any] = {
            "schema_version": 1,
            "workers": self.config.workers,
            "lease": {
                "duration": lease.duration,
                "poll_interval": lease.poll_interval,
                "sweep_interval": lease.sweep_interval,
                "max_retries": lease.max_retries,
                "backoff": lease.backoff,
            },
            "counters": dict(sorted(self.store.counters.items())),
            "jobs": self.store.summary(),
            "oracle": self.oracle.job_steps_summary(),
        }
        if self.admission is not None:
            out["admission"] = self.admission.summary()
        return out
