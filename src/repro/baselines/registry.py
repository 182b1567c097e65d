"""The declarative scheme registry.

Scheme construction used to sprawl across three call sites -- a
``SCHEME_CLASSES`` dict, a ``PAPER_SCHEMES`` tuple, a case-folding
``resolve_scheme_name`` and a ``build_scheme`` factory in the
experiment runner, plus ad-hoc name handling in the CLI.  The
:class:`SchemeRegistry` replaces all of that with one declarative
table: each :class:`SchemeEntry` names a scheme once (canonical report
name, class, CLI aliases, whether it belongs to the paper's headline
comparison set) and every consumer -- :mod:`repro.cli` and
:mod:`repro.experiments.runner` -- resolves and builds through the
same object.

The registry is also the extension point for later PRs: registering a
new scheme makes it available to ``repro run``, ``repro run-multi``,
``repro compare`` and the run matrix without touching any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple, Type

from repro.baselines.base import DedupScheme, SchemeConfig
from repro.baselines.full_dedupe import FullDedupe
from repro.baselines.idedup import IDedup
from repro.baselines.iodedup import IODedup
from repro.baselines.native import Native
from repro.baselines.postprocess import PostProcessDedupe
from repro.errors import ConfigError


@dataclass(frozen=True)
class SchemeEntry:
    """One registered deduplication scheme.

    Attributes
    ----------
    name:
        Canonical report name (the paper's capitalisation).
    cls:
        The :class:`DedupScheme` subclass.
    aliases:
        Extra accepted spellings; resolution is case-insensitive over
        both the name and the aliases, so only genuinely different
        spellings need listing.
    paper:
        Whether the scheme belongs to the paper's headline comparison
        set (Figs. 8-11); these form the default ``compare`` matrix.
    description:
        One-line summary, surfaced in CLI help.
    """

    name: str
    cls: Type[DedupScheme]
    aliases: Tuple[str, ...] = ()
    paper: bool = False
    description: str = ""


class SchemeRegistry:
    """Name -> scheme resolution and construction, in one place."""

    def __init__(self, entries: Iterable[SchemeEntry] = ()) -> None:
        #: Canonical name -> entry, in registration order.
        self._entries: Dict[str, SchemeEntry] = {}
        #: Case-folded name/alias -> canonical name.
        self._lookup: Dict[str, str] = {}
        for entry in entries:
            self.register(entry)

    def register(self, entry: SchemeEntry) -> SchemeEntry:
        """Add a scheme; rejects duplicate names or ambiguous aliases."""
        if entry.name in self._entries:
            raise ConfigError(f"scheme {entry.name!r} is already registered")
        for key in (entry.name, *entry.aliases):
            folded = key.casefold()
            owner = self._lookup.get(folded)
            if owner is not None and owner != entry.name:
                raise ConfigError(
                    f"alias {key!r} for scheme {entry.name!r} collides with "
                    f"registered scheme {owner!r}"
                )
        self._entries[entry.name] = entry
        for key in (entry.name, *entry.aliases):
            self._lookup[key.casefold()] = entry.name
        return entry

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolve(self, name: str) -> SchemeEntry:
        """Map a user-typed scheme name to its entry.

        Case-insensitive over canonical names and aliases
        (``pod`` -> ``POD``), so CLI users do not have to remember the
        paper's exact capitalisation.
        """
        canonical = self._lookup.get(str(name).casefold())
        if canonical is None:
            raise ConfigError(
                f"unknown scheme {name!r}; have {sorted(self._entries)}"
            )
        return self._entries[canonical]

    def resolve_name(self, name: str) -> str:
        """Canonical report name for a user-typed scheme name."""
        return self.resolve(name).name

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.casefold() in self._lookup

    def __iter__(self) -> Iterator[SchemeEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def names(self) -> List[str]:
        """Canonical names, in registration order."""
        return list(self._entries)

    def paper_schemes(self) -> Tuple[str, ...]:
        """The paper's headline comparison set, in registration order."""
        return tuple(e.name for e in self._entries.values() if e.paper)

    def classes(self) -> Dict[str, Type[DedupScheme]]:
        """Canonical name -> class (the legacy ``SCHEME_CLASSES`` view)."""
        return {e.name: e.cls for e in self._entries.values()}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def build(self, name: str, config: SchemeConfig) -> DedupScheme:
        """Instantiate a scheme from an explicit configuration."""
        return self.resolve(name).cls(config)


def _default_entries() -> List[SchemeEntry]:
    """Build the default entry list.

    The POD-family schemes live in :mod:`repro.core`; importing them
    inside the factory keeps ``repro.baselines`` importable without
    dragging the whole core package in at module-import time.
    """
    from repro.core.pod import POD
    from repro.core.select_dedupe import SelectDedupe

    return [
        SchemeEntry(
            "Native", Native, aliases=("baseline",), paper=True,
            description="no deduplication; in-place writes",
        ),
        SchemeEntry(
            "Full-Dedupe", FullDedupe, aliases=("full", "fulldedupe"), paper=True,
            description="dedupe every duplicate chunk, on-disk full index",
        ),
        SchemeEntry(
            "iDedup", IDedup, paper=True,
            description="inline dedupe of long duplicate runs only",
        ),
        SchemeEntry(
            "Select-Dedupe", SelectDedupe, aliases=("select",), paper=True,
            description="Figure-5 selective inline dedupe, no iCache",
        ),
        SchemeEntry(
            "POD", POD, paper=True,
            description="Select-Dedupe + adaptive iCache partitioning",
        ),
        SchemeEntry(
            "I/O-Dedup", IODedup, aliases=("iodedup", "io-dedup"),
            description="content-addressed read cache, no write dedupe",
        ),
        SchemeEntry(
            "Post-Process", PostProcessDedupe,
            aliases=("postprocess", "offline"),
            description="Native foreground path + offline dedupe passes",
        ),
    ]


#: The process-wide registry with every scheme the evaluation compares.
#: Registration order fixes both ``names()`` and ``paper_schemes()``
#: (the latter must match the paper's figure legends).
DEFAULT_REGISTRY = SchemeRegistry(_default_entries())
