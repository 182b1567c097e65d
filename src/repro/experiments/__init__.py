"""Experiment drivers: the paper's evaluation, runnable end-to-end.

* :mod:`repro.experiments.runner` -- :class:`RunSpec` describes one
  replay (traces, tenants, scheme, nodes, configs, seed, scale) and
  :func:`execute` runs it, memoising plain runs so every figure bench
  shares one run matrix; :func:`execute_many` runs a batch of plain
  runs (on a process pool when there are cores to spare) into the
  same memo, and :func:`run_matrix` is the (trace, scheme) grid of
  such a batch.
* :mod:`repro.experiments.figures` -- one function per table/figure
  of the paper, returning the rows and a rendered text table.
"""

from __future__ import annotations

from repro.experiments.runner import (
    SCHEME_CLASSES,
    RunSpec,
    Tenants,
    build_scheme,
    clear_run_cache,
    execute,
    execute_many,
    multi_tenant_traces,
    run_matrix,
)
from repro.experiments import figures

__all__ = [
    "SCHEME_CLASSES",
    "build_scheme",
    "RunSpec",
    "Tenants",
    "execute",
    "execute_many",
    "multi_tenant_traces",
    "run_matrix",
    "clear_run_cache",
    "figures",
]
