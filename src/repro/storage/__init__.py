"""Storage substrate: HDD mechanics, RAID layouts, block allocation.

* :mod:`repro.storage.disk` -- single-HDD service-time model (seek
  curve, rotation, transfer) matching the paper's 7200 RPM SATA disks.
* :mod:`repro.storage.raid` -- RAID-0/RAID-5 address mapping with the
  64 KB stripe unit and read-modify-write small-write handling used in
  the evaluation, and the one volume-op -> disk service path
  (:meth:`RaidArray.service`, :func:`service_volume_ops`).
* :mod:`repro.storage.volume` -- the logical volume: extent ops,
  content store (for data-integrity oracles), extent coalescing.
* :mod:`repro.storage.allocator` -- physical block regions and the
  log-structured allocator used for copy-on-write redirection.
* :mod:`repro.storage.nvram` -- NVRAM byte accounting for the Map table.
* :mod:`repro.storage.journal` -- write-ahead Map-table journal with
  torn-tail detection (crash recovery).
"""

from __future__ import annotations

from repro.storage.disk import Disk, DiskParams
from repro.storage.raid import RaidArray, RaidLevel
from repro.storage.rebuild import RebuildController
from repro.storage.ssd import Ssd, SsdParams
from repro.storage.volume import VolumeOp, ContentStore, coalesce_extents
from repro.storage.allocator import RegionMap, LogAllocator
from repro.storage.journal import JournalRecord, MapJournal
from repro.storage.nvram import NvramMeter

__all__ = [
    "Disk",
    "DiskParams",
    "RaidArray",
    "RaidLevel",
    "RebuildController",
    "Ssd",
    "SsdParams",
    "VolumeOp",
    "ContentStore",
    "coalesce_extents",
    "RegionMap",
    "LogAllocator",
    "JournalRecord",
    "MapJournal",
    "NvramMeter",
]
