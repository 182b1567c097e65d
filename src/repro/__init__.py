"""POD: Performance-Oriented I/O Deduplication -- full reproduction.

A trace-driven reproduction of *POD: Performance Oriented I/O
Deduplication for Primary Storage Systems in the Cloud* (Mao, Jiang,
Wu, Tian -- IPDPS 2014), including every substrate the evaluation
needs: a discrete-event HDD/RAID simulator, the cache stack, FIU-like
synthetic workloads, and the full set of comparison schemes.

Quick start::

    from repro import POD, SelectDedupe, Native
    from repro.experiments import RunSpec, execute

    result = execute(RunSpec("mail", "POD", scale=0.1))
    print(result.summary())

Package map
-----------
``repro.core``        Select-Dedupe, iCache, POD (the contribution)
``repro.baselines``   Native, Full-Dedupe, iDedup, I/O-Dedup
``repro.sim``         event engine, request model, trace replay
``repro.storage``     HDD mechanics, RAID-0/5, allocator, NVRAM
``repro.cache``       LRU, ghost caches, ARC, fixed partition
``repro.dedup``       fingerprinting, Index table, Map table
``repro.traces``      trace format, synthetic generators, analysis
``repro.metrics``     response-time collection, report rendering
``repro.experiments`` RunSpec + execute, per-figure experiment drivers
"""

from __future__ import annotations

from repro.baselines import FullDedupe, IDedup, IODedup, Native, SchemeConfig
from repro.core import POD, ICache, ICacheConfig, SelectDedupe
from repro.sim.replay import ReplayConfig, ReplayResult, replay_trace
from repro.traces import HOMES, MAIL, WEB_VM, Trace, TraceSpec, generate_trace

__version__ = "1.0.0"

__all__ = [
    "POD",
    "SelectDedupe",
    "ICache",
    "ICacheConfig",
    "Native",
    "FullDedupe",
    "IDedup",
    "IODedup",
    "SchemeConfig",
    "ReplayConfig",
    "ReplayResult",
    "replay_trace",
    "Trace",
    "TraceSpec",
    "generate_trace",
    "WEB_VM",
    "HOMES",
    "MAIL",
    "__version__",
]
