"""Discrete-event simulation substrate.

This subpackage provides the event engine that all experiments run on:

* :mod:`repro.sim.request` -- the I/O request model (block-granular
  reads and writes carrying per-chunk fingerprints).
* :mod:`repro.sim.engine` -- the simulator core: the clock, a heap of
  timed callbacks and a cursor over the time-sorted arrivals.
* :mod:`repro.sim.replay` -- the open-loop trace replay harness that
  drives a deduplication scheme with a trace and collects metrics.
"""

from __future__ import annotations

from repro.sim.request import IORequest, OpType

_LAZY_EXPORTS = {
    # Lazy: replay depends on repro.baselines (which imports
    # repro.sim.request), so importing it eagerly here would create a
    # package-level cycle; the engine is loaded on first use alike.
    "Simulator": "repro.sim.engine",
    "ReplayConfig": "repro.sim.replay",
    "ReplayResult": "repro.sim.replay",
    "replay_trace": "repro.sim.replay",
    "replay_traces": "repro.sim.replay",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "IORequest",
    "OpType",
    "Simulator",
    "ReplayConfig",
    "ReplayResult",
    "replay_trace",
    "replay_traces",
]
