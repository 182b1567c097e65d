"""Host speed, measured with a fixed workload that never calls the program.

On a shared virtual machine the interpreter speed a process gets can
drift by 10-60% within minutes as neighbours come and go.  No
repetition inside a run removes drift between runs.  So every replay
and set-up is bracketed by ``calibrate()``, a miniature of the replay's
own kind of work (dicts of fingerprints and block addresses, small
objects, a heap-ordered event queue) written here, in the benchmark.
Host times are reported scaled to the reference host on which
``calibrate()`` takes ``REFERENCE_S``.  A change to the program cannot
move the calibration; a change of host speed moves both.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Tuple

#: Seconds ``calibrate()`` takes on the reference host.
REFERENCE_S = 0.15


class _Request:
    __slots__ = ("time", "lba", "fingerprints")

    def __init__(self, time: float, lba: int, fingerprints: Tuple[int, ...]) -> None:
        self.time = time
        self.lba = lba
        self.fingerprints = fingerprints


def calibrate() -> float:
    """Seconds one fixed miniature dedup event loop takes on this host now."""
    t0 = time.perf_counter()
    index: Dict[int, int] = {}
    mapping: Dict[int, int] = {}
    queue: List[Tuple[float, int, _Request]] = []
    x = 12345
    now = 0.0
    done = 0.0
    for i in range(30_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        request = _Request(now, x & 0x3FFFF, tuple((x >> k) & 0xFFFF for k in range(0, 12, 3)))
        for j, fp in enumerate(request.fingerprints):
            home = index.setdefault(fp, request.lba + j)
            mapping[request.lba + j] = home
        now += 0.001
        heapq.heappush(queue, (now + (x & 255) * 1e-4, i, request))
        while queue and queue[0][0] <= now:
            done += heapq.heappop(queue)[0]
    return time.perf_counter() - t0
