"""Causal span tracing for the request lifecycle.

A span is a named interval of simulated time with a parent pointer:
``request`` (root) → ``admission.stall`` / ``classify`` /
``scheme.lookup`` → ``rpc`` (remote directory lookups) → ``disk``
(per-volume-op service) → recovery spans emitted by the fault
injector.  Reconstructing one request's path across nodes, RPCs and
fault recoveries is a tree walk over ``parent`` ids.

Span ids are a deterministic incrementing counter (never random):
the same seed yields byte-identical span JSONL, which is what the
golden snapshot test pins.  The tracer is wired behind the same
``is not None`` guards as the fault hook and the timeline sampler,
so a replay without ``spans=True`` pays one pointer test per site.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Union

#: Bumped on any breaking change to the span record layout.
SPAN_SCHEMA_VERSION = 1

#: Safety valve: a CHUNK-grained cluster replay can emit several spans
#: per request; past this many the tracer counts drops instead of
#: growing without bound.  Deterministic (count-based, not size-based).
DEFAULT_MAX_SPANS = 500_000


class Span:
    """One recorded interval.  ``end < start`` means still open
    (only possible if a run aborts mid-request)."""

    __slots__ = ("span_id", "parent", "name", "req_id", "node", "start", "end", "attrs")

    def __init__(
        self,
        span_id: int,
        parent: int,
        name: str,
        req_id: int,
        node: int,
        start: float,
    ) -> None:
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.req_id = req_id
        self.node = node
        self.start = start
        self.end = -1.0
        self.attrs: Dict[str, Any] = {}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "t": self.start,
            "etype": "span",
            "span_id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "req_id": self.req_id,
            "node": self.node,
            "end": self.end,
            "attrs": self.attrs,
        }


class SpanTracer:
    """Collects spans with deterministic ids.

    ``start`` returns a span id usable as ``parent`` for children and
    as the handle for ``end``; both take *simulated* timestamps.
    Over the cap, ``start`` returns 0 (a sentinel no span ever owns)
    and ``end(…, 0)`` is a no-op, so hot paths need no cap checks.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._next_id = 1
        self._open: Dict[int, Span] = {}

    def __len__(self) -> int:
        return len(self.spans)

    def start(
        self,
        t: float,
        name: str,
        parent: int = -1,
        req_id: int = -1,
        node: int = -1,
        **attrs: Any,
    ) -> int:
        """Open a span; returns its id (0 when over the cap)."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return 0
        sid = self._next_id
        self._next_id += 1
        span = Span(sid, parent, name, req_id, node, t)
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        self._open[sid] = span
        return sid

    def end(self, t: float, sid: int, **attrs: Any) -> None:
        """Close span ``sid`` at simulated time ``t``."""
        span = self._open.pop(sid, None)
        if span is None:
            return
        span.end = t
        if attrs:
            span.attrs.update(attrs)

    def emit(
        self,
        t0: float,
        t1: float,
        name: str,
        parent: int = -1,
        req_id: int = -1,
        node: int = -1,
        **attrs: Any,
    ) -> int:
        """Record an already-finished interval in one call (the
        analytic replay path knows completion times at issue time)."""
        sid = self.start(t0, name, parent, req_id, node, **attrs)
        if sid:
            self.end(t1, sid)
        return sid

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def by_name(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return {k: out[k] for k in sorted(out)}

    def summary(self) -> Dict[str, Any]:
        """The run report's ``spans`` section."""
        return {
            "schema_version": SPAN_SCHEMA_VERSION,
            "spans": len(self.spans),
            "dropped": self.dropped,
            "open": len(self._open),
            "by_name": self.by_name(),
        }

    def header(self) -> Dict[str, Any]:
        return {
            "etype": "span.header",
            "schema_version": SPAN_SCHEMA_VERSION,
            "spans": len(self.spans),
            "dropped": self.dropped,
        }

    def write_jsonl(self, path_or_file: Union[str, IO[str]]) -> int:
        """Write header + one line per span (id order == start-call
        order); returns lines written."""
        if hasattr(path_or_file, "write"):
            return self._write(path_or_file)  # type: ignore[arg-type]
        with open(path_or_file, "w", encoding="utf-8") as fh:  # type: ignore[arg-type]
            return self._write(fh)

    def _write(self, fh: IO[str]) -> int:
        fh.write(json.dumps(self.header(), sort_keys=True) + "\n")
        lines = 1
        for span in self.spans:
            fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")
            lines += 1
        return lines

