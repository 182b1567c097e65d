"""Per-tenant SLO objectives and windowed burn-rate evaluation.

An :class:`SloPolicy` is a JSON-declared set of objectives — e.g.
"volume 1's write latency stays under 5 ms for 99% of requests" or
"node 0 serves at least 50 req/s" — evaluated over the windowed
timeline (:mod:`repro.obs.timeline`), never over whole-run aggregates:
a whole-run p99 can hide an SLO-busting fail-slow window entirely.

Latency objectives use exact per-window good/bad counts (the sampler
counts threshold crossings inline when a policy is armed, so no
histogram interpolation error leaks into compliance numbers) and a
burn rate in the SRE sense: ``error_rate / (1 - target)``, i.e. how
many times faster than budget the error budget is burning.  Windows
whose burn rate exceeds ``burn_threshold`` are violations, and each
violation is annotated with the background activity concurrently
flagged in that window (fail-slow, rebuild, rebalance, migration) so
"who hurt this tenant" is answerable from the report alone.

Mirrors :class:`repro.faults.plan.FaultPlan`'s shape deliberately:
frozen, ``is_empty``, ``from_dict``/``as_dict``/``load``, and the
armed-but-empty-policy bit-identity contract is pinned by a test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import ConfigError

#: Bumped on any breaking change to the evaluation output layout.
SLO_SCHEMA_VERSION = 1

_METRICS = ("latency", "throughput")
_OPS = ("read", "write", "all")


@dataclass(frozen=True)
class SloObjective:
    """One objective.

    ``scope`` selects whose traffic counts: ``"run"`` (everything),
    ``"volume:<id>"`` (one tenant) or ``"node:<id>"`` (one cluster
    node).  ``metric`` is ``"latency"`` (``threshold`` in seconds,
    ``target`` the good-fraction objective, e.g. 0.99) or
    ``"throughput"`` (``threshold`` in requests/second; a window is
    bad when its rate drops below ``threshold * target``).
    """

    name: str
    metric: str
    threshold: float
    scope: str = "run"
    op: str = "all"
    target: float = 0.99
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("SLO objective needs a name")
        if self.metric not in _METRICS:
            raise ConfigError(
                f"SLO {self.name!r}: metric must be one of {_METRICS}, "
                f"got {self.metric!r}"
            )
        if self.op not in _OPS:
            raise ConfigError(
                f"SLO {self.name!r}: op must be one of {_OPS}, got {self.op!r}"
            )
        if self.threshold <= 0:
            raise ConfigError(f"SLO {self.name!r}: threshold must be positive")
        if not (0.0 < self.target < 1.0):
            raise ConfigError(
                f"SLO {self.name!r}: target must be in (0, 1), got {self.target}"
            )
        if self.burn_threshold <= 0:
            raise ConfigError(f"SLO {self.name!r}: burn_threshold must be positive")
        self.scope_kind, self.scope_id  # validates the scope string

    @property
    def scope_kind(self) -> str:
        """``"run"``, ``"volume"`` or ``"node"``."""
        if self.scope == "run":
            return "run"
        kind, sep, _ = self.scope.partition(":")
        if sep and kind in ("volume", "node"):
            return kind
        raise ConfigError(
            f"SLO {self.name!r}: scope must be 'run', 'volume:<id>' or "
            f"'node:<id>', got {self.scope!r}"
        )

    @property
    def scope_id(self) -> int:
        """The volume/node id, or -1 for run scope."""
        if self.scope == "run":
            return -1
        _, _, raw = self.scope.partition(":")
        try:
            ident = int(raw)
        except ValueError:
            raise ConfigError(
                f"SLO {self.name!r}: scope id {raw!r} is not an integer"
            ) from None
        # -1 is what a replay without per-volume tracking stamps on
        # every completion: a negative id would silently match the
        # whole run.
        if ident < 0:
            raise ConfigError(
                f"SLO {self.name!r}: scope id must be non-negative, got {ident}"
            )
        return ident

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "threshold": self.threshold,
            "scope": self.scope,
            "op": self.op,
            "target": self.target,
            "burn_threshold": self.burn_threshold,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "SloObjective":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"SLO objective: unknown keys {sorted(extra)}")
        if "name" not in raw or "metric" not in raw or "threshold" not in raw:
            raise ConfigError(
                "SLO objective needs at least name, metric and threshold"
            )
        return cls(**dict(raw))


@dataclass(frozen=True)
class SloPolicy:
    """A (possibly empty) set of objectives.  Frozen and hashable so
    it can ride in :class:`~repro.sim.replay.ReplayConfig`."""

    objectives: Tuple[SloObjective, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [o.name for o in self.objectives]
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate SLO objective names in {names}")

    def is_empty(self) -> bool:
        return not self.objectives

    def latency_objectives(self) -> Tuple[SloObjective, ...]:
        return tuple(o for o in self.objectives if o.metric == "latency")

    def as_dict(self) -> Dict[str, Any]:
        return {"objectives": [o.as_dict() for o in self.objectives]}

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "SloPolicy":
        extra = set(raw) - {"objectives"}
        if extra:
            raise ConfigError(f"SLO policy: unknown keys {sorted(extra)}")
        objectives = raw.get("objectives", [])
        if not isinstance(objectives, (list, tuple)):
            raise ConfigError("SLO policy: 'objectives' must be a list")
        return cls(tuple(SloObjective.from_dict(o) for o in objectives))

    @classmethod
    def load(cls, path: str) -> "SloPolicy":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                try:
                    raw = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(
                        f"SLO policy {path}: invalid JSON ({exc})"
                    ) from exc
        except OSError as exc:
            raise ConfigError(f"cannot read SLO policy {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"SLO policy {path}: top level must be an object")
        return cls.from_dict(raw)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


def _scope_doc(window: Mapping[str, Any], obj: SloObjective) -> Mapping[str, Any]:
    """The window sub-document the objective's scope refers to
    (empty dict when the scope saw no traffic in this window)."""
    kind = obj.scope_kind
    if kind == "run":
        return window
    key = "volumes" if kind == "volume" else "nodes"
    sub = window.get(key, {})
    return sub.get(str(obj.scope_id), {})


def _scope_requests(doc: Mapping[str, Any], op: str) -> int:
    if op == "read":
        return int(doc.get("reads", 0))
    if op == "write":
        return int(doc.get("writes", 0))
    return int(doc.get("requests", 0))


def evaluate_slo(policy: SloPolicy, timeline: Mapping[str, Any]) -> Dict[str, Any]:
    """Evaluate ``policy`` over a timeline document; returns the run
    report's ``slo`` section.

    It reads each window's ``index``, ``t0``/``t1``, ``activity``,
    ``slo_counts`` and the ``requests``/``reads``/``writes`` of the
    objective's scope, plus the document's ``window`` and ``origin``:
    the full document (``TimelineSampler.as_dict()``, a report's
    ``timeline`` section, a loaded JSONL) and the count document a
    replay hands it (``as_dict(counts_only=True)``) give the same
    verdict.

    Latency objectives consume the exact per-window ``slo_counts``
    the sampler recorded for them (index-aligned with the policy's
    latency-objective order).  Throughput objectives compare each
    window's request rate against ``threshold * target`` across the
    scope's active range (first to last window with any traffic for
    that scope), so a scope that finishes early isn't charged for the
    rest of the run.
    """
    windows: List[Mapping[str, Any]] = list(timeline.get("windows", []))
    width = float(timeline.get("window") or 1.0)
    latency_order = {o.name: i for i, o in enumerate(policy.latency_objectives())}
    out_objectives: List[Dict[str, Any]] = []
    violations_total = 0

    for obj in policy.objectives:
        violations: List[Dict[str, Any]] = []
        good_total = 0
        bad_total = 0
        evaluated = 0
        worst_burn = 0.0

        if obj.metric == "latency":
            li = latency_order[obj.name]
            for window in windows:
                counts = window.get("slo_counts")
                if not counts or li >= len(counts):
                    continue
                good, bad = counts[li]
                total = good + bad
                if total == 0:
                    continue
                evaluated += 1
                good_total += good
                bad_total += bad
                error_rate = bad / total
                burn = error_rate / (1.0 - obj.target)
                if burn > worst_burn:
                    worst_burn = burn
                if burn > obj.burn_threshold:
                    violations.append(
                        {
                            "index": window["index"],
                            "t0": window["t0"],
                            "t1": window["t1"],
                            "value": error_rate,
                            "burn_rate": burn,
                            "annotations": sorted(window.get("activity", {})),
                        }
                    )
        else:  # throughput
            active = [
                w for w in windows
                if _scope_requests(_scope_doc(w, obj), obj.op) > 0
            ]
            if active:
                lo = active[0]["index"]
                hi = active[-1]["index"]
                by_index = {w["index"]: w for w in windows}
                floor = obj.threshold * obj.target
                for idx in range(lo, hi + 1):
                    window = by_index.get(idx)
                    doc = _scope_doc(window, obj) if window is not None else {}
                    rate = _scope_requests(doc, obj.op) / width
                    evaluated += 1
                    if rate >= floor:
                        good_total += 1
                        continue
                    bad_total += 1
                    burn = (obj.threshold - rate) / obj.threshold
                    if burn > worst_burn:
                        worst_burn = burn
                    violations.append(
                        {
                            "index": idx,
                            "t0": (window["t0"] if window is not None
                                   else timeline.get("origin", 0.0) + idx * width),
                            "t1": (window["t1"] if window is not None
                                   else timeline.get("origin", 0.0) + (idx + 1) * width),
                            "value": rate,
                            "burn_rate": burn,
                            "annotations": sorted(
                                (window or {}).get("activity", {})
                            ),
                        }
                    )

        violations_total += len(violations)
        out_objectives.append(
            {
                **obj.as_dict(),
                "windows_evaluated": evaluated,
                "good_total": good_total,
                "bad_total": bad_total,
                "worst_burn": worst_burn,
                "violation_count": len(violations),
                "violations": violations,
            }
        )

    return {
        "schema_version": SLO_SCHEMA_VERSION,
        "objectives": out_objectives,
        "violations_total": violations_total,
        "windows_evaluated": len(windows),
    }
