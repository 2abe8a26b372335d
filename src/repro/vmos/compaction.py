"""Memory compaction / huge-page collapse (khugepaged).

Section 4 of the paper lists the OS behaviours that change a process's
mapping mid-run: "the Linux kernel may try compacting memory as an
effort to create more large pages", reservations may be promoted, and
NUMA daemons may demote pages.  This module models the promotion side:
a khugepaged-style pass scans 2 MiB-aligned virtual windows that are
fully populated with scattered 4 KiB frames, migrates each such window
into a freshly allocated order-9 block, and releases the old frames.

Each pass increases mapping contiguity, which is exactly what the
dynamic anchor-distance selection reacts to at the next epoch — the
adaptation loop the paper's design is built around (exercised by the
``os_dynamics`` example and the engine's ``on_epoch`` hook).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OutOfMemoryError
from repro.mem.frames import FrameRange
from repro.mem.physmem import PhysicalMemory
from repro.params import HUGE_PAGE_PAGES, align_up
from repro.vmos.mapping import MemoryMapping

_HUGE_ORDER = 9


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of one compaction pass."""

    windows_collapsed: int      #: 2 MiB windows rewritten
    pages_migrated: int         #: page copies performed
    windows_skipped_oom: int    #: windows left alone (no order-9 block)

def _window_candidates(mapping: MemoryMapping) -> list[int]:
    """2 MiB-aligned windows that are fully mapped but not collapsible
    as-is (not already one phase-aligned contiguous run)."""
    candidates = []
    for vma in mapping.vmas:
        start = align_up(vma.start_vpn, HUGE_PAGE_PAGES)
        end = vma.end_vpn - HUGE_PAGE_PAGES + 1
        for window in range(start, max(start, end), HUGE_PAGE_PAGES):
            base_pfn = mapping.get(window)
            if base_pfn is None:
                continue
            prot = mapping.protection_of(window)
            complete = True
            contiguous = base_pfn % HUGE_PAGE_PAGES == 0
            for i in range(1, HUGE_PAGE_PAGES):
                pfn = mapping.get(window + i)
                if pfn is None or mapping.protection_of(window + i) != prot:
                    complete = False
                    break
                if pfn != base_pfn + i:
                    contiguous = False
            if complete and not contiguous:
                candidates.append(window)
    return candidates


def _pinned_frames(memory: PhysicalMemory) -> set[int]:
    """Frames held by background processes (unmovable for us)."""
    pinned: set[int] = set()
    for block in getattr(memory, "_background", []):
        pinned.update(range(block.start, block.end))
    return pinned


def _evacuate_region(
    mapping: MemoryMapping, memory: PhysicalMemory
) -> "FrameRange | None":
    """Free one 2 MiB physical region by migrating our pages out of it.

    The free-space-compaction half of ``alloc_contig_range``: choose the
    512-aligned physical region with no pinned (background) frames and
    the fewest of our own pages, reserve its free frames so migration
    targets cannot land inside, migrate our pages to outside frames, and
    consolidate the region into one order-9 allocation.
    """
    buddy = memory.buddy
    pinned = _pinned_frames(memory)
    reverse = {pfn: vpn for vpn, pfn in mapping.items()}
    best_base = None
    best_movable = None
    for base in range(0, memory.total_frames, HUGE_PAGE_PAGES):
        movable = 0
        blocked = False
        for pfn in range(base, base + HUGE_PAGE_PAGES):
            if pfn in pinned:
                blocked = True
                break
            if pfn in reverse:
                movable += 1
        if blocked or movable == 0 or movable >= HUGE_PAGE_PAGES:
            # Untouchable, pointless, or self-defeating (a fully mapped
            # region yields no new free space).
            continue
        if best_movable is None or movable < best_movable:
            best_base, best_movable = base, movable
    if best_base is None:
        return None
    # Enough free frames overall guarantees enough *outside* the region:
    # the inside ones are reserved before any migration target is drawn.
    if buddy.free_frames < HUGE_PAGE_PAGES:
        return None
    region_end = best_base + HUGE_PAGE_PAGES
    buddy.reserve_free_in_range(best_base, region_end)
    for pfn in range(best_base, region_end):
        vpn = reverse.get(pfn)
        if vpn is None:
            continue
        replacement = buddy.alloc_order(0)  # cannot land inside: reserved
        prot = mapping.protection_of(vpn)
        mapping.unmap_page(vpn)
        mapping.map_page(vpn, replacement.start, prot)
        # The old frame stays allocated as part of the region we are
        # assembling; split its block so it can be consolidated.
        buddy.isolate_frame(pfn)
    return buddy.consolidate(best_base, _HUGE_ORDER)


def compact(
    mapping: MemoryMapping,
    memory: PhysicalMemory,
    max_windows: int | None = None,
    allow_evacuation: bool = True,
) -> CompactionResult:
    """Run one khugepaged pass over ``mapping``.

    Collapses up to ``max_windows`` candidate windows (all of them by
    default).  When no free order-9 block exists and ``allow_evacuation``
    is set, the pass first compacts free space by evacuating a physical
    region (``alloc_contig_range`` style).  Mutates the mapping in
    place; frames move through the buddy system, so repeated passes
    interact with fragmentation realistically.
    """
    collapsed = migrated = skipped = 0
    for window in _window_candidates(mapping):
        if max_windows is not None and collapsed >= max_windows:
            break
        try:
            block = memory.buddy.alloc_order(_HUGE_ORDER)
        except OutOfMemoryError:
            block = _evacuate_region(mapping, memory) if allow_evacuation else None
            if block is None:
                skipped += 1
                continue
        prot = mapping.protection_of(window)
        old_frames = []
        for i in range(HUGE_PAGE_PAGES):
            old_frames.append(mapping.unmap_page(window + i))
        mapping.map_run(window, block, prot)
        migrated += HUGE_PAGE_PAGES
        collapsed += 1
        for pfn in old_frames:
            memory.buddy.free_frame(pfn)
    return CompactionResult(collapsed, migrated, skipped)


def compactable_windows(mapping: MemoryMapping) -> int:
    """How many windows a pass could collapse (for reports/tests)."""
    return len(_window_candidates(mapping))
