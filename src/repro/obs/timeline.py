"""Deterministic windowed time-series sampling over simulated time.

Whole-run aggregates (histograms, counters) answer *how fast* a run
was; they cannot answer *when* it was slow.  A fail-slow disk window,
a paced rebuild or a mid-run shard migration is invisible between
t=0 and t=end.  The :class:`TimelineSampler` fixes that: it partitions
the replay into fixed-width windows of **simulated** time (never wall
clock -- determinism is the whole point) and accumulates, per window:

* throughput (requests and blocks, read/write split),
* read/write latency percentiles via per-window histogram resets,
* dedup ratio and read-cache hit rate,
* NVRAM footprint and disk-queue-lag gauges (per-window maxima),
* rebuild / migration progress and fault activity annotations,
* per-directed-link network bytes and utilisation,

each broken down per volume and per cluster node.  Windows are stored
sparsely (a dict keyed by window index) because the analytic replay
path reports request completion times out of order -- a window is
never "closed" until the run ends, so late samples always land in the
right bucket.

The sampler is wired behind ``is not None`` guards exactly like the
fault hook: a replay without a timeline config pays one pointer test
per instrumentation site and allocates nothing
(``bench_obs_overhead.py`` pins the contract).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.obs.registry import (
    Histogram,
    default_latency_bounds,
    first_seen,
    group_sums,
    observe_grouped,
)

#: Bumped on any breaking change to the window document layout.
#: Adding a new optional field is not a breaking change.
TIMELINE_SCHEMA_VERSION = 1

#: JSONL line tags (header first, then one line per window).
TIMELINE_HEADER_ETYPE = "timeline.header"
TIMELINE_WINDOW_ETYPE = "timeline.window"


@dataclass(frozen=True)
class TimelineConfig:
    """Sampler parameters (frozen and hashable: it rides inside
    :class:`~repro.sim.replay.ReplayConfig`, which memo keys hash).

    Attributes
    ----------
    window:
        Window width in simulated seconds (the paper's traces span
        hours, so 1 s is a useful default resolution).
    origin:
        Simulated time of window 0's left edge.
    max_windows:
        Hard cap on distinct windows; exceeding it is a configuration
        error (window too small for the trace), never silent dropping.
    latency_per_decade:
        Bucket resolution of the per-window latency histograms.  The
        default (10/decade) is coarser than the whole-run histograms
        (40/decade): per-window populations are small and the windows
        are many.
    """

    window: float = 1.0
    origin: float = 0.0
    max_windows: int = 200_000
    latency_per_decade: int = 10

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigError(f"timeline window must be positive, got {self.window}")
        if self.origin < 0:
            raise ConfigError(f"timeline origin must be >= 0, got {self.origin}")
        if self.max_windows <= 0:
            raise ConfigError("timeline max_windows must be positive")
        if self.latency_per_decade < 1:
            raise ConfigError("timeline latency_per_decade must be >= 1")


def _hist_summary(hist: Histogram) -> Dict[str, float]:
    """Per-window latency digest (empty histograms report zeros)."""
    return {
        "count": hist.count,
        "mean": hist.mean,
        "p50": hist.p50,
        "p95": hist.p95,
        "p99": hist.p99,
        "max": hist.max,
    }


class _Scope:
    """One window's accumulator for one scope (run / volume / node)."""

    __slots__ = (
        "reads", "writes", "read_blocks", "write_blocks",
        "eliminated_requests", "deduped_blocks", "cache_hit_blocks",
        "cross_volume_blocks", "net_delay_total", "remote_lookups",
        "read_hist", "write_hist",
    )

    def __init__(self, empty: Histogram) -> None:
        self.reads = 0
        self.writes = 0
        self.read_blocks = 0
        self.write_blocks = 0
        self.eliminated_requests = 0
        self.deduped_blocks = 0
        self.cache_hit_blocks = 0
        self.cross_volume_blocks = 0
        self.net_delay_total = 0.0
        self.remote_lookups = 0
        #: Fresh per-window histograms -- this is the "histogram reset"
        #: that makes per-window percentiles honest (not cumulative).
        self.read_hist = empty.fresh("timeline.read")
        self.write_hist = empty.fresh("timeline.write")

    def note(
        self,
        is_read: bool,
        nblocks: int,
        response: float,
        eliminated: bool,
        deduped_blocks: int,
        cache_hit_blocks: int,
        cross_volume_blocks: int,
        net_delay: float,
        remote_lookups: int,
    ) -> None:
        if is_read:
            self.reads += 1
            self.read_blocks += nblocks
            self.read_hist.observe(response)
        else:
            self.writes += 1
            self.write_blocks += nblocks
            self.write_hist.observe(response)
        if eliminated:
            self.eliminated_requests += 1
        self.deduped_blocks += deduped_blocks
        self.cache_hit_blocks += cache_hit_blocks
        self.cross_volume_blocks += cross_volume_blocks
        self.net_delay_total += net_delay
        self.remote_lookups += remote_lookups

    def as_dict(self, counts_only: bool = False) -> Dict[str, Any]:
        """Stable-shape window scope document: the request counts, then
        (unless ``counts_only``) block sums, ratios and latency digests."""
        doc: Dict[str, Any] = {
            "requests": self.reads + self.writes,
            "reads": self.reads,
            "writes": self.writes,
        }
        if counts_only:
            return doc
        doc.update({
            "read_blocks": self.read_blocks,
            "write_blocks": self.write_blocks,
            "eliminated_requests": self.eliminated_requests,
            "deduped_blocks": self.deduped_blocks,
            "cache_hit_blocks": self.cache_hit_blocks,
            "cross_volume_blocks": self.cross_volume_blocks,
            "net_delay_total": self.net_delay_total,
            "remote_lookups": self.remote_lookups,
            "dedup_ratio": (
                self.deduped_blocks / self.write_blocks if self.write_blocks else 0.0
            ),
            "read_cache_hit_rate": (
                self.cache_hit_blocks / self.read_blocks if self.read_blocks else 0.0
            ),
            "read_latency": _hist_summary(self.read_hist),
            "write_latency": _hist_summary(self.write_hist),
        })
        return doc


class _Window:
    """One sampling window: run scope + per-volume/per-node scopes,
    gauges, per-link network accounting and activity annotations."""

    __slots__ = ("run", "volumes", "nodes", "gauges", "node_gauges",
                 "links", "activity", "slo_counts")

    def __init__(self, empty: Histogram, n_slo: int) -> None:
        self.run = _Scope(empty)
        self.volumes: Dict[int, _Scope] = {}
        self.nodes: Dict[int, _Scope] = {}
        #: gauge name -> per-window maximum.
        self.gauges: Dict[str, float] = {}
        self.node_gauges: Dict[int, Dict[str, float]] = {}
        #: (src, dst) -> [bytes, busy_seconds, rpcs].
        self.links: Dict[Tuple[int, int], List[float]] = {}
        #: activity name -> per-window maximum (progress fractions or
        #: 1.0 presence flags).
        self.activity: Dict[str, float] = {}
        #: Per latency-objective [good, bad] counts (SLO engine input);
        #: empty when no policy is armed.
        self.slo_counts: List[List[int]] = [[0, 0] for _ in range(n_slo)]


class TimelineSampler:
    """Sparse windowed accumulator driven by simulated timestamps.

    ``policy`` (a :class:`repro.obs.slo.SloPolicy`) arms exact
    per-window good/bad counting for its latency objectives -- the SLO
    engine needs exact threshold counts, not interpolated percentiles.

    Two documents render from one renderer (:meth:`window_docs`): the
    full timeline (:meth:`as_dict`, the report section and the JSONL)
    and the count document (``as_dict(counts_only=True)``), which is
    what a replay's SLO verdict reads.
    """

    def __init__(self, config: TimelineConfig, policy: Optional[Any] = None) -> None:
        self.config = config
        self._width = config.window
        self._origin = config.origin
        #: Every window histogram is ``fresh`` from this one: shared bounds.
        self._empty = Histogram(
            "timeline", default_latency_bounds(per_decade=config.latency_per_decade)
        )
        self._windows: Dict[int, _Window] = {}
        self._intervals: List[Tuple[str, float, float]] = []
        self.t_end = 0.0
        # Compile the policy's latency objectives into flat matchers:
        # (scope_kind, scope_id, op, threshold) tuples checked inline.
        self._latency_rules: List[Tuple[str, int, str, float]] = []
        self.policy = policy
        if policy is not None:
            for obj in policy.objectives:
                if obj.metric == "latency":
                    self._latency_rules.append(
                        (obj.scope_kind, obj.scope_id, obj.op, obj.threshold)
                    )

    # ------------------------------------------------------------------
    # window addressing
    # ------------------------------------------------------------------

    def window_index(self, t: float) -> int:
        """Window index containing simulated time ``t``."""
        if t < self._origin:
            return 0
        return int((t - self._origin) / self._width)

    def _window(self, t: float) -> _Window:
        idx = self.window_index(t)
        win = self._windows.get(idx)
        if win is None:
            win = self._new_window(idx)
        if t > self.t_end:
            self.t_end = t
        return win

    def _new_window(self, idx: int) -> _Window:
        if len(self._windows) >= self.config.max_windows:
            raise ConfigError(
                f"timeline exceeded {self.config.max_windows} windows; "
                f"use a wider --timeline window than {self._width}s"
            )
        win = _Window(self._empty, len(self._latency_rules))
        self._windows[idx] = win
        return win

    # ------------------------------------------------------------------
    # sample intake (all observation-only; callers guard `is not None`)
    # ------------------------------------------------------------------

    def note_request(
        self,
        t: float,
        *,
        is_read: bool,
        nblocks: int,
        response: float,
        volume_id: int = -1,
        eliminated: bool = False,
        deduped_blocks: int = 0,
        cache_hit_blocks: int = 0,
        cross_volume_blocks: int = 0,
    ) -> None:
        """One measured request completion, keyed by completion time.

        Mirrors :meth:`repro.metrics.collector.MetricsCollector.record`
        argument-for-argument so window sums reconcile exactly with the
        whole-run aggregates (a test pins this).
        """
        win = self._window(t)
        win.run.note(
            is_read, nblocks, response, eliminated, deduped_blocks,
            cache_hit_blocks, cross_volume_blocks, 0.0, 0,
        )
        if volume_id >= 0:
            scope = win.volumes.get(volume_id)
            if scope is None:
                scope = _Scope(self._empty)
                win.volumes[volume_id] = scope
            scope.note(
                is_read, nblocks, response, eliminated, deduped_blocks,
                cache_hit_blocks, cross_volume_blocks, 0.0, 0,
            )
        for i, (kind, sid, op, threshold) in enumerate(self._latency_rules):
            if kind == "run" or (kind == "volume" and sid == volume_id):
                if op == "all" or (op == "read") == is_read:
                    win.slo_counts[i][1 if response > threshold else 0] += 1

    def note_requests(
        self,
        t: np.ndarray,
        *,
        is_read: np.ndarray,
        nblocks: np.ndarray,
        response: np.ndarray,
        volume_id: Optional[np.ndarray],
        eliminated: np.ndarray,
        deduped_blocks: np.ndarray,
        cache_hit_blocks: np.ndarray,
        cross_volume_blocks: np.ndarray,
    ) -> None:
        """Batch form of :meth:`note_request`: the same windows, scopes,
        histograms and SLO counts as calling it on every row in row
        order, with ``volume_id=None`` standing for ``-1`` on every row
        (volume ids are otherwise non-negative).

        Windows and volume scopes are created in first-seen order; a
        batch that needs more than ``max_windows`` windows raises the
        :class:`ConfigError` before anything is noted.
        """
        n = len(t)
        if not n:
            return
        index = np.where(
            t < self._origin, 0, (t - self._origin) / self._width
        ).astype(np.int64)
        distinct, in_order, wslot = first_seen(index)
        wins = self._windows
        for idx in in_order:
            if idx not in wins:
                self._new_window(idx)
        last = float(t.max())
        if last > self.t_end:
            self.t_end = last
        windows = [wins[idx] for idx in distinct]
        # Scope slot w is window w's run scope; with volumes, each row
        # is noted a second time, into its (window, volume) scope.
        scopes = [win.run for win in windows]
        slot = wslot
        if volume_id is not None:
            nvol = int(volume_id.max()) + 1
            pairs, pairs_in_order, pslot = first_seen(wslot * nvol + volume_id)
            for key in pairs_in_order:
                w, vid = divmod(key, nvol)
                if vid not in windows[w].volumes:
                    windows[w].volumes[vid] = _Scope(self._empty)
            for key in pairs:
                w, vid = divmod(key, nvol)
                scopes.append(windows[w].volumes[vid])
            slot = np.concatenate((wslot, len(windows) + pslot))

        def rows(col: np.ndarray) -> np.ndarray:
            return col if volume_id is None else np.concatenate((col, col))

        nscopes = len(scopes)
        reads = rows(is_read)
        blocks = rows(nblocks)
        read_blocks = np.where(reads, blocks, 0)
        for scope, r, w, rb, wb, el, dd, ch, cv in zip(
            scopes,
            group_sums(slot, nscopes, reads),
            group_sums(slot, nscopes, ~reads),
            group_sums(slot, nscopes, read_blocks),
            group_sums(slot, nscopes, blocks - read_blocks),
            group_sums(slot, nscopes, rows(eliminated)),
            group_sums(slot, nscopes, rows(deduped_blocks)),
            group_sums(slot, nscopes, rows(cache_hit_blocks)),
            group_sums(slot, nscopes, rows(cross_volume_blocks)),
        ):
            scope.reads += r
            scope.writes += w
            scope.read_blocks += rb
            scope.write_blocks += wb
            scope.eliminated_requests += el
            scope.deduped_blocks += dd
            scope.cache_hit_blocks += ch
            scope.cross_volume_blocks += cv
        hists: List[Histogram] = []
        for scope in scopes:
            hists.append(scope.read_hist)
            hists.append(scope.write_hist)
        observe_grouped(hists, 2 * slot + ~reads, rows(response))
        for i, (kind, sid, op, threshold) in enumerate(self._latency_rules):
            # Rows this rule counts (``None``: every row), as in
            # ``note_request``, where an untracked volume id is -1.
            match: Optional[np.ndarray]
            if kind == "run" or (kind == "volume" and volume_id is None and sid == -1):
                match = None
            elif kind == "volume" and volume_id is not None:
                match = volume_id == sid
            else:
                continue
            if op != "all":
                on_op = is_read if op == "read" else ~is_read
                match = on_op if match is None else match & on_op
            keys = 2 * wslot + (response > threshold)
            if match is not None:
                keys = keys[match]
            tally = np.bincount(keys, minlength=2 * len(windows)).tolist()
            for w, win in enumerate(windows):
                good = tally[2 * w]
                bad = tally[2 * w + 1]
                if good or bad:
                    counts = win.slo_counts[i]
                    counts[0] += good
                    counts[1] += bad

    def note_node_request(
        self,
        t: float,
        *,
        node_id: int,
        is_read: bool,
        nblocks: int,
        response: float,
        eliminated: bool = False,
        deduped_blocks: int = 0,
        cache_hit_blocks: int = 0,
        net_delay: float = 0.0,
        remote_lookups: int = 0,
    ) -> None:
        """One measured completion against its owner node (cluster
        replays call this *in addition to* :meth:`note_request`)."""
        win = self._window(t)
        scope = win.nodes.get(node_id)
        if scope is None:
            scope = _Scope(self._empty)
            win.nodes[node_id] = scope
        scope.note(
            is_read, nblocks, response, eliminated, deduped_blocks,
            cache_hit_blocks, 0, net_delay, remote_lookups,
        )
        for i, (kind, sid, op, threshold) in enumerate(self._latency_rules):
            if kind == "node" and sid == node_id:
                if op == "all" or (op == "read") == is_read:
                    win.slo_counts[i][1 if response > threshold else 0] += 1

    def note_gauges(
        self, t: float, node_id: Optional[int] = None, **gauges: float
    ) -> None:
        """Record gauge samples (per-window maxima): NVRAM bytes,
        disk queue lag, iCache partition sizes, ..."""
        win = self._window(t)
        if node_id is None:
            store = win.gauges
        else:
            store = win.node_gauges.setdefault(node_id, {})
        for name, value in gauges.items():
            if value is None:
                continue
            prev = store.get(name)
            if prev is None or value > prev:
                store[name] = value

    def note_rpc(
        self, t: float, src: int, dst: int, nbytes: int, busy: float
    ) -> None:
        """One network RPC on the directed link ``src -> dst``
        (``busy`` is its link-occupancy/service time in seconds)."""
        win = self._window(t)
        link = win.links.get((src, dst))
        if link is None:
            win.links[(src, dst)] = [float(nbytes), busy, 1.0]
        else:
            link[0] += nbytes
            link[1] += busy
            link[2] += 1.0

    def note_activity(self, t: float, name: str, value: float = 1.0) -> None:
        """Flag background activity in ``t``'s window (rebuild or
        migration progress, recovery stalls, ...)."""
        win = self._window(t)
        prev = win.activity.get(name)
        if prev is None or value > prev:
            win.activity[name] = value

    def annotate_interval(self, name: str, start: float, end: float) -> None:
        """Annotate every window overlapping ``[start, end]`` with
        ``name`` (fail-slow windows, recovery stalls: known intervals
        rather than tick events).  Applied at rendering time."""
        if end < start:
            raise ConfigError(f"annotation {name!r} ends before it starts")
        self._intervals.append((name, start, end))

    def finish(self, t_end: float) -> None:
        """Mark the end of simulated time (idempotent)."""
        if t_end > self.t_end:
            self.t_end = t_end

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def _apply_intervals(self) -> None:
        if not self._windows and not self._intervals:
            return
        last_idx = max(self._windows) if self._windows else 0
        last_idx = max(last_idx, self.window_index(self.t_end))
        for name, start, end in self._intervals:
            lo = self.window_index(start)
            hi = min(self.window_index(end), last_idx)
            for idx in range(lo, hi + 1):
                win = self._windows.get(idx)
                if win is None:
                    win = self._new_window(idx)
                if name not in win.activity:
                    win.activity[name] = 1.0

    def window_docs(self, counts_only: bool = False) -> List[Dict[str, Any]]:
        """All windows as JSON-ready dicts, index-ordered.

        Each document carries the window's ``index``/``t0``/``t1``, the
        request counts of its run, volume and node scopes, its
        ``activity`` (``annotate_interval`` windows applied) and, with
        a policy armed, its ``slo_counts``: everything
        :func:`~repro.obs.slo.evaluate_slo` reads.  Unless
        ``counts_only``, it also carries the block sums, ratios and
        latency digests of every scope, the gauges and the network
        links -- the full window, in the same key order either way.
        """
        self._apply_intervals()
        docs: List[Dict[str, Any]] = []
        for idx in sorted(self._windows):
            win = self._windows[idx]
            doc: Dict[str, Any] = {
                "index": idx,
                "t0": self._origin + idx * self._width,
                "t1": self._origin + (idx + 1) * self._width,
            }
            doc.update(win.run.as_dict(counts_only))
            doc["volumes"] = {
                str(vid): win.volumes[vid].as_dict(counts_only)
                for vid in sorted(win.volumes)
            }
            doc["nodes"] = {
                str(nid): win.nodes[nid].as_dict(counts_only)
                for nid in sorted(win.nodes)
            }
            if not counts_only:
                doc["gauges"] = {k: win.gauges[k] for k in sorted(win.gauges)}
                doc["node_gauges"] = {
                    str(nid): {
                        k: win.node_gauges[nid][k]
                        for k in sorted(win.node_gauges[nid])
                    }
                    for nid in sorted(win.node_gauges)
                }
                doc["net"] = {
                    f"{src}->{dst}": {
                        "bytes": int(win.links[(src, dst)][0]),
                        "busy": win.links[(src, dst)][1],
                        "rpcs": int(win.links[(src, dst)][2]),
                        "utilisation": win.links[(src, dst)][1] / self._width,
                    }
                    for src, dst in sorted(win.links)
                }
            doc["activity"] = {k: win.activity[k] for k in sorted(win.activity)}
            if self._latency_rules:
                doc["slo_counts"] = [list(c) for c in win.slo_counts]
            docs.append(doc)
        return docs

    def as_dict(self, counts_only: bool = False) -> Dict[str, Any]:
        """The timeline document: the run report's ``timeline`` section
        and what the JSONL serialisation carries.  ``counts_only``
        gives the count document (:meth:`window_docs`), the same window
        set at the cost of the counts alone: what a replay hands
        :func:`~repro.obs.slo.evaluate_slo`."""
        docs = self.window_docs(counts_only)
        return {
            "schema_version": TIMELINE_SCHEMA_VERSION,
            "window": self._width,
            "origin": self._origin,
            "t_end": self.t_end,
            "windows_total": len(docs),
            "windows": docs,
        }

    # ------------------------------------------------------------------
    # JSONL serialisation
    # ------------------------------------------------------------------

    def write_jsonl(self, path_or_file: Union[str, IO[str]]) -> int:
        """Write header + one line per window; returns lines written."""
        doc = self.as_dict()
        return write_timeline_jsonl(doc, path_or_file)


def write_timeline_jsonl(
    doc: Dict[str, Any], path_or_file: Union[str, IO[str]]
) -> int:
    """Serialise a timeline document as JSON Lines (header first)."""
    if hasattr(path_or_file, "write"):
        return _write_timeline(doc, path_or_file)  # type: ignore[arg-type]
    with open(path_or_file, "w", encoding="utf-8") as fh:  # type: ignore[arg-type]
        return _write_timeline(doc, fh)


def _write_timeline(doc: Dict[str, Any], fh: IO[str]) -> int:
    windows = doc.get("windows", [])
    header = {
        "etype": TIMELINE_HEADER_ETYPE,
        "schema_version": doc.get("schema_version", TIMELINE_SCHEMA_VERSION),
        "window": doc.get("window"),
        "origin": doc.get("origin", 0.0),
        "t_end": doc.get("t_end", 0.0),
        "windows": len(windows),
    }
    fh.write(json.dumps(header, sort_keys=True) + "\n")
    lines = 1
    for window in windows:
        fh.write(
            json.dumps({"etype": TIMELINE_WINDOW_ETYPE, **window}, sort_keys=True)
            + "\n"
        )
        lines += 1
    return lines


def read_timeline_jsonl(lines: Iterable[str]) -> Dict[str, Any]:
    """Parse a timeline JSONL stream back into one document."""
    doc: Dict[str, Any] = {
        "schema_version": TIMELINE_SCHEMA_VERSION,
        "window": None,
        "origin": 0.0,
        "t_end": 0.0,
        "windows_total": 0,
        "windows": [],
    }
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"not a timeline JSONL stream: {exc}") from exc
        etype = obj.get("etype")
        if etype == TIMELINE_HEADER_ETYPE:
            if obj.get("schema_version", 0) > TIMELINE_SCHEMA_VERSION:
                raise ConfigError(
                    f"timeline schema {obj.get('schema_version')} is newer "
                    f"than this build ({TIMELINE_SCHEMA_VERSION})"
                )
            doc["schema_version"] = obj.get("schema_version", TIMELINE_SCHEMA_VERSION)
            doc["window"] = obj.get("window")
            doc["origin"] = obj.get("origin", 0.0)
            doc["t_end"] = obj.get("t_end", 0.0)
        elif etype == TIMELINE_WINDOW_ETYPE:
            window = dict(obj)
            window.pop("etype", None)
            doc["windows"].append(window)
        else:
            raise ConfigError(f"unexpected timeline line etype {etype!r}")
    doc["windows_total"] = len(doc["windows"])
    return doc


def load_timeline(path: str) -> Dict[str, Any]:
    """Load a timeline document from a run report (JSON, ``timeline``
    section), a bare timeline JSON document, or a timeline JSONL file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read timeline {path}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        raise ConfigError(f"{path} is empty")
    try:
        obj = json.loads(stripped)
    except json.JSONDecodeError:
        obj = None
    if isinstance(obj, dict):
        if "timeline" in obj and isinstance(obj["timeline"], dict):
            return obj["timeline"]
        if "windows" in obj:
            return obj
        raise ConfigError(
            f"{path} is JSON but carries no timeline (no 'timeline' or "
            f"'windows' key) -- run with --timeline to record one"
        )
    return read_timeline_jsonl(stripped.splitlines())
