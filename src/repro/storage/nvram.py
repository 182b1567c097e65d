"""NVRAM byte accounting for the Map table.

The paper stores the Map table in non-volatile RAM to survive power
failures and reports its footprint as an overhead metric: 20 bytes per
entry, peaking at 0.8 / 0.3 / 1.5 MB for web-vm / homes / mail
(Section IV-D.2).  This meter tracks the live entry count and the
high-water mark so the overhead bench can reproduce that table.
"""

from __future__ import annotations

from repro.constants import MAP_ENTRY_SIZE
from repro.errors import DedupError


class NvramMeter:
    """Tracks live Map-table entries and their NVRAM footprint."""

    def __init__(self, entry_size: int = MAP_ENTRY_SIZE) -> None:
        if entry_size <= 0:
            raise DedupError("entry size must be positive")
        self.entry_size = entry_size
        self._entries = 0
        self._peak_entries = 0

    @property
    def entries(self) -> int:
        """Current number of live entries."""
        return self._entries

    @property
    def peak_entries(self) -> int:
        """High-water mark of live entries."""
        return self._peak_entries

    @property
    def bytes_used(self) -> int:
        return self._entries * self.entry_size

    @property
    def peak_bytes(self) -> int:
        """Maximum NVRAM ever needed (the number the paper reports)."""
        return self._peak_entries * self.entry_size

    def add(self, n: int = 1) -> None:
        """Record ``n`` new entries."""
        if n < 0:
            raise DedupError("use remove() to drop entries")
        self._entries += n
        if self._entries > self._peak_entries:
            self._peak_entries = self._entries

    def remove(self, n: int = 1) -> None:
        """Record ``n`` dropped entries."""
        if n < 0:
            raise DedupError("negative removal")
        if n > self._entries:
            raise DedupError("removing more entries than exist")
        self._entries -= n

    def commit(self, delta: int, high: int) -> None:
        """Record one batch of adds and removes at once: the live count
        moved by ``delta`` and was at most ``high`` above its starting
        value in between (``high >= max(delta, 0)``).

        The commit kernel's one meter update per write request; the
        count and the high-water mark equal those of the per-entry
        :meth:`add` / :meth:`remove` calls.
        """
        start = self._entries
        if start + delta < 0:
            raise DedupError("removing more entries than exist")
        self._entries = start + delta
        if start + high > self._peak_entries:
            self._peak_entries = start + high

    def resync(self, entries: int) -> None:
        """Reset the live-entry count after crash recovery.

        Journal replay rebuilds the Map table wholesale; the meter is
        resynchronised to the recovered entry count.  The high-water
        mark is monotone: it only moves up.
        """
        if entries < 0:
            raise DedupError("entry count must be non-negative")
        self._entries = entries
        if entries > self._peak_entries:
            self._peak_entries = entries
