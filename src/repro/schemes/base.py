"""The abstract translation scheme.

A scheme is the pairing of a hardware TLB organisation with the OS
coverage plan it needs (huge-page promotion, anchors, ranges).  The
simulator calls :meth:`access` once per memory reference — or
:meth:`access_block` for a whole epoch at a time — and the scheme
updates its :class:`TranslationStats`.  ``access`` returns the
translation latency in cycles charged to that reference (0 for an L1
hit, since the L1 probe overlaps the cache access).

Two declared capabilities replace the old duck typing:

* ``supports_reselection`` — the scheme implements the
  :class:`OSManagedScheme` protocol, i.e. it owns an OS coverage plan
  that the engine should re-evaluate at epoch boundaries by calling
  ``reselect_distance()`` (paper §4.1, Algorithm 1 per epoch);
* ``distance`` — the scheme's anchor distance, if it has one, reported
  in :class:`repro.sim.engine.SimulationResult`.

The TLB structures a scheme owns are declared once, in its class-level
:attr:`TranslationScheme.hardware` table; construction, ``flush``,
``set_asid``, ``clone_fresh`` and the tagged fleet's shared hierarchy
all derive from it.
"""

from __future__ import annotations

import abc
from typing import (
    Any, Callable, ClassVar, NamedTuple, Protocol, runtime_checkable,
)

import numpy as np

from repro import sanitize
from repro.errors import PageFaultError
from repro.params import DEFAULT_MACHINE, HUGE_PAGE_PAGES, MachineConfig
from repro.hw.l1 import L1TLB
from repro.hw.pwc import PageWalkCache
from repro.hw.tlb import SetAssociativeTLB
from repro.sim.stats import TranslationStats
from repro.vmos.mapping import FrozenMapping, MemoryMapping


@runtime_checkable
class OSManagedScheme(Protocol):
    """A scheme whose OS coverage plan is re-evaluated per epoch.

    The engine checks ``scheme.supports_reselection`` (a declared class
    attribute, not a ``getattr`` probe) and, when true, calls
    ``reselect_distance()`` at every epoch boundary.  The method
    returns ``(distance, changed)``; a change means the OS re-planned
    coverage and flushed the TLBs (§3.3's distance-change cost).
    """

    supports_reselection: bool

    def reselect_distance(self) -> tuple[int, bool]: ...


class Hardware(NamedTuple):
    """One TLB structure a scheme owns (an entry of its ``hardware``)."""

    #: Builds the structure, empty and untagged, for a scheme whose
    #: constructor arguments are already set; ``None`` when the
    #: scheme's configuration has no such structure.
    factory: Callable[[Any], Any]
    #: What a tagged fleet shares between its tenants: ``True`` the
    #: structure itself, ``False`` nothing (per-tenant state), or the
    #: name of an inner attribute shared behind a per-tenant wrapper.
    shared: bool | str = True
    #: Whether the structure takes the tenant's ASID (``set_tag``).
    tagged: bool = True


#: The unified L2 array of Table 3, shared by most schemes.
L2_ARRAY = Hardware(
    lambda s: SetAssociativeTLB(s.config.l2.entries, s.config.l2.ways))


class TranslationScheme(abc.ABC):
    """Base class for all translation schemes."""

    #: Short identifier used in reports (matches the paper's legends).
    name: str = "abstract"

    #: True when the scheme implements :class:`OSManagedScheme` and
    #: wants the engine's epoch-boundary ``reselect_distance()`` call.
    supports_reselection: bool = False

    #: The scheme's anchor distance, if it has one (``None`` otherwise);
    #: anchor schemes override this with a property.
    distance: int | None = None

    #: Every TLB structure the scheme owns, by attribute name.  The
    #: constructor builds each one; :meth:`flush`, :meth:`set_asid`,
    #: :meth:`clone_fresh` and the tagged fleet's sharing
    #: (:meth:`shared_hardware` / :meth:`bind_hardware`) derive from
    #: this table, so subclasses extend it and never name a structure
    #: in those paths.  Factories read constructor arguments from the
    #: scheme, so subclasses set those before ``super().__init__``.
    hardware: ClassVar[dict[str, Hardware]] = {
        "l1": Hardware(lambda s: L1TLB(s.config)),
        "pwc": Hardware(lambda s: PageWalkCache() if s.config.pwc else None),
    }

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
    ) -> None:
        self.mapping = mapping
        self.config = config
        self.stats = TranslationStats(latency=config.latency)
        self._synced_version = mapping.version
        self._new_hardware()

    def _new_hardware(self) -> None:
        """Build every declared structure afresh (empty, tag 0)."""
        for name, hw in self.hardware.items():
            setattr(self, name, hw.factory(self))

    # ------------------------------------------------------------------
    # Mapping-version synchronisation (§3.3 shootdown semantics)
    # ------------------------------------------------------------------

    def sync_mapping(self) -> None:
        """Adopt any mapping mutations since the last sync.

        Schemes compile views of the mapping (promotion maps, sorted
        arrays, range tables) that go stale when the OS mutates it
        (compaction, shootdown paths, experiment hooks).  The engine
        calls this at every epoch boundary — under both the batched and
        the scalar engine, so parity is preserved — and :meth:`translate`
        calls it per query.  A version change triggers
        :meth:`_on_mapping_update` exactly once.

        Schemes that maintain their structures incrementally through
        their own mutators (e.g. ``AnchorScheme.unmap_page``) resync
        ``_synced_version`` themselves and never see the full rebuild.
        """
        version = self.mapping.version
        if version != self._synced_version:
            self._synced_version = version
            self._on_mapping_update(self.mapping.frozen())

    def _on_mapping_update(self, frozen: FrozenMapping) -> None:
        """React to a mapping mutation (default: full TLB shootdown).

        Subclasses that derive state from the mapping (promotion maps,
        membership arrays, range tables) override this to rebuild those
        snapshots, then call ``super()._on_mapping_update(frozen)`` (or
        :meth:`flush` directly) — resident TLB entries may translate
        through frames the OS just remapped, and
        :func:`repro.sim.lru.simulate_block`'s ``value_of`` contract
        requires resident values to match the current mapping.
        """
        self.flush()

    # ------------------------------------------------------------------

    @abc.abstractmethod
    def access(self, vpn: int) -> int:
        """Translate one reference; update stats; return cycles charged."""

    def access_block(self, vpns: np.ndarray) -> None:
        """Translate a block of references in trace order.

        Semantically identical to calling :meth:`access` on every
        element.  Hot schemes override this with vectorised fast paths;
        overrides must stay bit-identical to the scalar loop (the
        parity suite in ``tests/sim/test_engine_parity.py`` enforces
        it) and must fall back to this implementation whenever an exact
        fast path is unavailable — in practice only when the block
        contains an unmapped page, so the per-reference loop raises the
        page fault at exactly the right reference.
        """
        access = self.access
        for vpn in vpns.tolist():
            access(vpn)

    def flush(self) -> None:
        """Flush every declared structure (context switch / shootdown)."""
        for name in self.hardware:
            structure = getattr(self, name)
            if structure is not None:
                structure.flush()

    def set_asid(self, asid: int) -> None:
        """Select this tenant's address-space tag on every TLB structure.

        Called by the tenant scheduler on every switch-in (the PCID
        write that rides along with CR3).  Every scheme supports it:
        the structures pack the tag into each key themselves, and no
        access path writes their entries any other way.
        """
        for name, hw in self.hardware.items():
            if hw.tagged:
                structure = getattr(self, name)
                if structure is not None:
                    structure.set_tag(asid)

    # ------------------------------------------------------------------
    # Shared tagged hierarchy (fleet tenancy)
    # ------------------------------------------------------------------

    def shared_hardware(self) -> dict[str, Any]:
        """The parts of this scheme's hardware a tagged fleet shares.

        Keyed by declared name.  A fleet takes these from its first
        tenant (whose structures are fresh) and hands them to every
        later tenant through :meth:`bind_hardware`; the values are also
        the structures an ASID shootdown must reach.
        """
        shared: dict[str, Any] = {}
        for name, hw in self.hardware.items():
            structure = getattr(self, name)
            if structure is None or hw.shared is False:
                continue
            shared[name] = (structure if hw.shared is True
                            else getattr(structure, hw.shared))
        return shared

    def bind_hardware(self, shared: dict[str, Any]) -> None:
        """Point this scheme at a fleet's :meth:`shared_hardware`."""
        for name, part in shared.items():
            inner = self.hardware[name].shared
            if inner is True:
                setattr(self, name, part)
            else:
                setattr(getattr(self, name), inner, part)

    # ------------------------------------------------------------------
    # Prototype cloning (fleet-scale construction amortisation)
    # ------------------------------------------------------------------

    def clone_fresh(self) -> "TranslationScheme":
        """A fresh-state clone sharing this scheme's mapping-derived views.

        The clone behaves exactly like ``type(self)(self.mapping,
        self.config)`` — empty TLBs, zeroed stats, tag 0 — but *shares*
        the immutable mapping-derived state (promotion maps, anchor
        directories, sorted-array caches, range tables) with the
        prototype by reference instead of rebuilding it, so per-tenant
        scheme construction costs O(hardware), not O(mapping).

        The clone rebuilds every declared :attr:`hardware` structure.
        Subclasses hook the rest of the protocol in two places:
        :meth:`_prepare_share` runs on the *prototype* and forces any
        lazily built views so every clone inherits them already
        materialised; :meth:`_reset_clone` runs on the *clone* and
        recreates the per-tenant state that is not hardware (counters,
        resident-state caches).  Anything not rebuilt is shared and
        must be treated as read-only, and ``_reset_clone`` must never
        re-derive mapping state (``tests/schemes/test_clone_fresh.py``
        counts the builders a second clone calls: none).

        Sharing survives mapping mutations: ``_synced_version`` rides
        the copy, so a mutated mapping triggers ``_on_mapping_update``
        on the clone's first sync, rebinding the clone's derived
        attributes without touching the prototype's.
        """
        self._prepare_share()
        # Every array the clone is about to share by reference becomes
        # read-only, so an in-place store traps at the faulting line
        # instead of corrupting sibling tenants.
        sanitize.guard_shared(self)
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._new_hardware()
        clone.stats = TranslationStats(latency=self.config.latency)
        clone._reset_clone()
        return clone

    def _prepare_share(self) -> None:
        """Force lazily built mapping-derived views on the prototype.

        Runs once per :meth:`clone_fresh` call (idempotent: the views
        cache themselves), so clones share the materialised arrays
        instead of each rebuilding them on first use.
        """

    def _reset_clone(self) -> None:
        """Recreate per-tenant state that is not declared hardware.

        Subclasses override (calling ``super()._reset_clone()``) to
        give the clone private instances of everything else their
        access paths mutate.  Mapping-derived views stay shared by
        reference.
        """

    def _walk_cycles(self, vpn: int, huge: bool = False) -> int:
        """Cycles charged for a page walk.

        Flat 50 cycles (Table 3) unless the page-walk caches are
        enabled, in which case the walk costs ``walk_step`` cycles per
        page-table memory access actually performed.
        """
        if self.pwc is None:
            return self.config.latency.page_walk
        accesses = self.pwc.accesses_for(vpn, huge)
        self.stats.walk_pt_accesses += accesses
        return self.config.latency.walk_step * accesses

    def _block_walk_accesses(
        self, walk_vpns: np.ndarray, huge: np.ndarray | None = None
    ) -> int:
        """Page-table accesses for one block's walks (0 with PWC off).

        Fast paths feed every completed walk of the block — in trace
        order, with 2 MiB walks flagged — through the batched page-walk
        caches and pass the total to ``bulk_update`` as
        ``walk_pt_accesses``, matching the scalar :meth:`_walk_cycles`
        accounting exactly.
        """
        if self.pwc is None or walk_vpns.shape[0] == 0:
            return 0
        return int(self.pwc.accesses_for_block(walk_vpns, huge).sum())

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------

    def translate_checked(self, vpn: int) -> int:
        """Translate and assert agreement with the ground-truth mapping."""
        expected = self.mapping.get(vpn)
        if expected is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        actual = self.translate(vpn)
        if actual != expected:
            raise AssertionError(
                f"{self.name}: vpn {vpn:#x} -> {actual:#x}, expected {expected:#x}"
            )
        return actual

    def translate(self, vpn: int) -> int:
        """Pure translation via the scheme's structures (no stats).

        Syncs against the current mapping version first, so a caller
        that mutated the mapping after constructing the scheme reads
        through fresh coverage structures (the stale-snapshot hazard the
        version counter exists to close).
        """
        self.sync_mapping()
        return self._translate(vpn)

    @abc.abstractmethod
    def _translate(self, vpn: int) -> int:
        """Scheme-specific translation; caller has synced the mapping."""


def promote_giga_pages(
    mapping: MemoryMapping,
) -> tuple[dict[int, int], dict[int, int]]:
    """1 GiB promotion: aligned, fully contiguous 262,144-page windows.

    Returns ``(giga, rest)``: ``giga`` maps each promoted window's base
    VPN to its base PFN; ``rest`` holds everything else (still eligible
    for 2 MiB promotion).
    """
    giga_pages = HUGE_PAGE_PAGES * 512
    giga: dict[int, int] = {}
    for chunk in mapping.chunks():
        if (chunk.pfn - chunk.vpn) % giga_pages:
            continue
        lo = (chunk.vpn + giga_pages - 1) & ~(giga_pages - 1)
        hi = chunk.end_vpn & ~(giga_pages - 1)
        for gvpn in range(lo, hi, giga_pages):
            giga[gvpn] = chunk.pfn + (gvpn - chunk.vpn)
    rest = {
        vpn: pfn
        for vpn, pfn in mapping.items()
        if (vpn & ~(giga_pages - 1)) not in giga
    }
    return giga, rest


def promote_huge_pages(mapping: MemoryMapping) -> tuple[dict[int, int], dict[int, int]]:
    """THP promotion used by every 2 MiB-capable scheme except anchor.

    Returns ``(huge, small)``: ``huge`` maps each promoted window's base
    VPN to its base PFN, ``small`` holds the remaining 4 KiB pages.
    Promotion requires a full 512-page run whose VA and PA share the
    2 MiB alignment phase.
    """
    huge: dict[int, int] = {}
    for chunk in mapping.chunks():
        if (chunk.pfn - chunk.vpn) % HUGE_PAGE_PAGES:
            continue
        lo = (chunk.vpn + HUGE_PAGE_PAGES - 1) & ~(HUGE_PAGE_PAGES - 1)
        hi = chunk.end_vpn & ~(HUGE_PAGE_PAGES - 1)
        for hvpn in range(lo, hi, HUGE_PAGE_PAGES):
            huge[hvpn] = chunk.pfn + (hvpn - chunk.vpn)
    small = {
        vpn: pfn
        for vpn, pfn in mapping.items()
        if (vpn & ~(HUGE_PAGE_PAGES - 1)) not in huge
    }
    return huge, small
