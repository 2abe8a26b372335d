"""The virtual-to-physical memory mapping of one process.

This is the paper's central object of study: the function
``VPN -> PFN`` whose *contiguity structure* decides how well each
translation scheme can coalesce.  The class keeps the mapping as a dict
(sparse in VPN space) plus the VMA list, and offers the derived views
everything else consumes: maximal contiguous chunks, the contiguity
histogram, and ground-truth translation for the differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import sanitize
from repro.errors import MappingError, PageFaultError
from repro.mem.frames import FrameRange
from repro.vmos.vma import VMA


@dataclass(frozen=True)
class Chunk:
    """A maximal run of pages contiguous in both VA and PA."""

    vpn: int
    pfn: int
    pages: int

    @property
    def end_vpn(self) -> int:
        return self.vpn + self.pages


#: Default page protection: present + read/write (see PTEFlags).
DEFAULT_PROT = 0b11


class FrozenMapping:
    """A compiled, read-only view of one :class:`MemoryMapping` version.

    The batched engine needs the mapping as numpy arrays (bulk
    ``searchsorted`` translation, run lookups) rather than as a dict;
    compiling that view per reference block would dominate the fast
    path, and the per-scheme dict snapshots it replaced went
    silently stale when the mapping mutated.  A ``FrozenMapping`` is
    compiled once per :attr:`MemoryMapping.version` and shared by every
    scheme over the same mapping (see :meth:`MemoryMapping.frozen`);
    consumers compare ``frozen.version`` against ``mapping.version`` to
    detect staleness (``TranslationScheme.sync_mapping`` does exactly
    that).

    Two run decompositions are exposed because the hardware models need
    both:

    * **chunks** — maximal VA/PA-contiguous runs *split at protection
      changes*, identical to :meth:`MemoryMapping.chunks` (what RMM's
      range table and the anchor directory see);
    * **runs** — maximal VA/PA-contiguous runs ignoring protection
      (what CoLT/cluster fill logic sees: ``build_colt_entry`` inspects
      raw PTE adjacency only).
    """

    __slots__ = (
        "version",
        "page_table",
        "vpns",
        "pfns",
        "chunk_vpn",
        "chunk_pfn",
        "chunk_pages",
        "run_vpn",
        "run_pfn",
        "run_pages",
        "_contiguous",
    )

    def __init__(self, mapping: "MemoryMapping") -> None:
        self.version = mapping.version
        #: Direct reference to the live page table (no copy).  Safe to
        #: read only while ``mapping.version == self.version``; any
        #: mutation bumps the version and invalidates this view.
        self.page_table = mapping._map
        count = len(mapping._map)
        vpns = np.fromiter(mapping._map.keys(), dtype=np.int64, count=count)
        pfns = np.fromiter(mapping._map.values(), dtype=np.int64, count=count)
        order = np.argsort(vpns)
        self.vpns = vpns[order]
        self.pfns = pfns[order]
        self._contiguous = bool(
            count and int(self.vpns[-1]) - int(self.vpns[0]) + 1 == count
        )
        chunks = mapping.chunks()
        self.chunk_vpn = np.fromiter(
            (c.vpn for c in chunks), dtype=np.int64, count=len(chunks))
        self.chunk_pfn = np.fromiter(
            (c.pfn for c in chunks), dtype=np.int64, count=len(chunks))
        self.chunk_pages = np.fromiter(
            (c.pages for c in chunks), dtype=np.int64, count=len(chunks))
        # Protection-blind adjacency runs over the sorted page arrays.
        if count:
            boundary = np.empty(count, dtype=bool)
            boundary[0] = True
            np.not_equal(self.vpns[1:], self.vpns[:-1] + 1, out=boundary[1:])
            boundary[1:] |= self.pfns[1:] != self.pfns[:-1] + 1
            starts = np.flatnonzero(boundary)
            self.run_vpn = self.vpns[starts]
            self.run_pfn = self.pfns[starts]
            self.run_pages = np.diff(np.append(starts, count))
        else:
            self.run_vpn = self.vpns
            self.run_pfn = self.pfns
            self.run_pages = self.vpns
        # The snapshot is complete: seal every column so a stray
        # in-place store traps at the faulting line instead of
        # corrupting all sharers of this view.
        sanitize.seal_mapping_columns(self)

    def __len__(self) -> int:
        return self.vpns.shape[0]

    # -- bulk queries ---------------------------------------------------

    def translate_block(self, vpns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised translation: ``(pfns, found)`` per query."""
        if self.vpns.size == 0:
            return (np.zeros(vpns.shape, dtype=np.int64),
                    np.zeros(vpns.shape, dtype=bool))
        idx = np.searchsorted(self.vpns, vpns)
        idx[idx == self.vpns.size] = 0
        found = self.vpns[idx] == vpns
        return np.where(found, self.pfns[idx], 0), found

    def mask(self, vpns: np.ndarray) -> np.ndarray:
        """Per-element mapped-ness."""
        if self.vpns.size == 0:
            return np.zeros(vpns.shape, dtype=bool)
        if self._contiguous:
            return (vpns >= self.vpns[0]) & (vpns <= self.vpns[-1])
        return self.translate_block(vpns)[1]

    def contains_all(self, vpns: np.ndarray) -> bool:
        """True when every query is mapped (the fast-path pre-check)."""
        if vpns.size == 0:
            return True
        if self.vpns.size == 0:
            return False
        if self._contiguous:
            return (int(vpns.min()) >= int(self.vpns[0])
                    and int(vpns.max()) <= int(self.vpns[-1]))
        return bool(self.mask(vpns).all())

    def _interval_of(
        self, starts: np.ndarray, pages: np.ndarray, vpns: np.ndarray
    ) -> np.ndarray:
        if starts.size == 0:
            return np.full(vpns.shape, -1, dtype=np.int64)
        idx = np.searchsorted(starts, vpns, side="right") - 1
        clipped = np.maximum(idx, 0)
        inside = (idx >= 0) & (vpns < starts[clipped] + pages[clipped])
        return np.where(inside, clipped, -1)

    def run_of(self, vpns: np.ndarray) -> np.ndarray:
        """Index into ``run_*`` of each query's adjacency run (-1 if
        unmapped)."""
        return self._interval_of(self.run_vpn, self.run_pages, vpns)

    def chunk_of(self, vpns: np.ndarray) -> np.ndarray:
        """Index into ``chunk_*`` of each query's chunk (-1 if unmapped);
        chunk order matches :meth:`MemoryMapping.chunks`."""
        return self._interval_of(self.chunk_vpn, self.chunk_pages, vpns)

    # -- scalar queries -------------------------------------------------

    def get(self, vpn: int) -> int | None:
        return self.page_table.get(vpn)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self.page_table


@dataclass
class MemoryMapping:
    """VPN -> PFN map for a process, with chunk-structure queries.

    Pages optionally carry a *protection* tag (an opaque int — r/w/x
    permission combination).  Per paper §3.3, pages with differing
    permissions must not be coalesced even when physically contiguous,
    so a protection change ends a chunk.
    """

    vmas: list[VMA] = field(default_factory=list)
    _map: dict[int, int] = field(default_factory=dict)
    _prot: dict[int, int] = field(default_factory=dict)
    _chunks_cache: list[Chunk] | None = field(default=None, repr=False)
    #: Monotonic mutation counter.  Every map/unmap/mprotect bumps it;
    #: compiled views (:class:`FrozenMapping`, scheme-side snapshots)
    #: carry the version they were built from and must be refreshed
    #: when it no longer matches (compaction and shootdown paths mutate
    #: mappings long after the schemes were constructed).
    version: int = field(default=0, compare=False)
    _frozen_cache: FrozenMapping | None = field(
        default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _mutated(self) -> None:
        self._chunks_cache = None
        self.version += 1

    def map_page(self, vpn: int, pfn: int, prot: int = DEFAULT_PROT) -> None:
        if vpn in self._map:
            raise MappingError(f"vpn {vpn:#x} already mapped")
        self._map[vpn] = pfn
        if prot != DEFAULT_PROT:
            self._prot[vpn] = prot
        self._mutated()

    def map_run(self, vpn: int, frames: FrameRange, prot: int = DEFAULT_PROT) -> None:
        """Map ``frames.count`` consecutive VPNs to a contiguous run."""
        for i in range(frames.count):
            self.map_page(vpn + i, frames.start + i, prot)

    def unmap_page(self, vpn: int) -> int:
        try:
            pfn = self._map.pop(vpn)
        except KeyError:
            raise MappingError(f"vpn {vpn:#x} not mapped") from None
        self._prot.pop(vpn, None)
        self._mutated()
        return pfn

    def set_protection(self, vpn: int, pages: int, prot: int) -> None:
        """mprotect: change the protection of ``pages`` pages at ``vpn``.

        Per §3.3, this splits any coalesced coverage at the boundaries —
        the chunk structure changes even though the frames do not.
        """
        for i in range(pages):
            if vpn + i not in self._map:
                raise MappingError(f"vpn {vpn + i:#x} not mapped")
            if prot == DEFAULT_PROT:
                self._prot.pop(vpn + i, None)
            else:
                self._prot[vpn + i] = prot
        self._mutated()

    def protection_of(self, vpn: int) -> int:
        return self._prot.get(vpn, DEFAULT_PROT)

    # ------------------------------------------------------------------
    # Translation (ground truth)
    # ------------------------------------------------------------------

    def translate(self, vpn: int) -> int:
        try:
            return self._map[vpn]
        except KeyError:
            raise PageFaultError(f"vpn {vpn:#x} not mapped") from None

    def get(self, vpn: int) -> int | None:
        return self._map.get(vpn)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._map

    def __len__(self) -> int:
        return len(self._map)

    @property
    def mapped_pages(self) -> int:
        return len(self._map)

    def items(self):
        """Yield (vpn, pfn) in ascending VPN order."""
        yield from sorted(self._map.items())

    def frozen(self) -> FrozenMapping:
        """The compiled view of the current version (cached, shared).

        Rebuilt lazily after any mutation; every scheme over this
        mapping gets the same object, so the sorted arrays are compiled
        once per version rather than once per scheme.
        """
        if self._frozen_cache is None or self._frozen_cache.version != self.version:
            self._frozen_cache = FrozenMapping(self)
        return self._frozen_cache

    # ------------------------------------------------------------------
    # Chunk structure
    # ------------------------------------------------------------------

    def chunks(self) -> list[Chunk]:
        """Maximal runs contiguous in both VA and PA, ascending by VPN.

        A run also ends where the page protection changes (§3.3): such
        pages must not be served by a coalesced entry.
        """
        if self._chunks_cache is None:
            chunks: list[Chunk] = []
            prot = self._prot
            start_vpn = start_pfn = prev_vpn = prev_pfn = None
            run_prot = None
            for vpn, pfn in sorted(self._map.items()):
                page_prot = prot.get(vpn, DEFAULT_PROT)
                if (
                    start_vpn is not None
                    and vpn == prev_vpn + 1
                    and pfn == prev_pfn + 1
                    and page_prot == run_prot
                ):
                    prev_vpn, prev_pfn = vpn, pfn
                else:
                    if start_vpn is not None:
                        chunks.append(
                            Chunk(start_vpn, start_pfn, prev_vpn - start_vpn + 1)
                        )
                    start_vpn, start_pfn = vpn, pfn
                    prev_vpn, prev_pfn = vpn, pfn
                    run_prot = page_prot
            if start_vpn is not None:
                chunks.append(Chunk(start_vpn, start_pfn, prev_vpn - start_vpn + 1))
            self._chunks_cache = chunks
        return self._chunks_cache

    def chunk_covering(self, vpn: int) -> Chunk | None:
        """The chunk containing ``vpn``, or None if unmapped."""
        for chunk in self.chunks():  # chunks are few; linear scan is fine
            if chunk.vpn <= vpn < chunk.end_vpn:
                return chunk
        return None


def cluster_slot_offsets(
    sorted_vpns: np.ndarray,
    sorted_pfns: np.ndarray,
    vpns: np.ndarray,
    pfns: np.ndarray,
    shift: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """The cluster entry a walk at each ``vpns[i]`` would build.

    The cluster-TLB fill logic (Fig. 2's HW-coalescing baseline)
    inspects the missing page's PTE cache line — the ``2**shift``
    pages sharing its virtual cluster — and records which of those
    slots translate into the *same physical cluster* as the missing
    page itself.  Returns ``(coverage, offsets)``: ``coverage[i]`` is
    the number of covered slots (always >= 1, the missing page counts),
    and ``offsets[i, j]`` is slot ``j``'s offset within the physical
    cluster, or -1 when the slot is unmapped or lands elsewhere.

    The decomposition is static per mapping version — it depends only
    on the page table, never on TLB state — which is what lets the
    batched cluster fast path classify every miss up front: a page with
    ``coverage == 1`` can only ever fill (and hit) the regular side,
    one with ``coverage > 1`` only the clustered side.

    ``sorted_vpns``/``sorted_pfns`` are the parallel sorted page-table
    arrays (``FrozenMapping.vpns``/``.pfns``, or the promotion split's
    small-page view); ``pfns[i]`` must be ``vpns[i]``'s translation.
    """
    factor = 1 << shift
    slot_mask = factor - 1
    # The decomposition is a pure function of the probed VPN, so
    # repeated probes (temporal locality in the miss stream) collapse
    # to one slot-scan each and scatter back through the inverse.
    unique_vpns, first, inverse = np.unique(
        vpns, return_index=True, return_inverse=True)
    if unique_vpns.shape[0] < vpns.shape[0]:
        coverage, offsets = cluster_slot_offsets(
            sorted_vpns, sorted_pfns, unique_vpns, pfns[first], shift=shift)
        return coverage[inverse], offsets[inverse]
    pcluster = pfns >> shift
    slot_vpns = (
        ((vpns >> shift) << shift)[:, None]
        + np.arange(factor, dtype=np.int64)
    ).ravel()
    count = sorted_vpns.size
    if count and int(sorted_vpns[-1]) - int(sorted_vpns[0]) + 1 == count:
        # Contiguous VPN space: membership is a range test and the
        # slot PFNs come from one fancy gather instead of a
        # searchsorted over eight probes per miss.
        base = np.int64(sorted_vpns[0])
        found = (slot_vpns >= base) & (slot_vpns < base + count)
        idx = np.where(found, slot_vpns - base, np.int64(0))
        slot_pfns = sorted_pfns[idx].reshape(-1, factor)
        found = found.reshape(-1, factor)
    elif count:
        idx = np.searchsorted(sorted_vpns, slot_vpns)
        idx[idx == count] = 0
        found = sorted_vpns[idx] == slot_vpns
        slot_pfns = sorted_pfns[idx].reshape(-1, factor)
        found = found.reshape(-1, factor)
    else:
        found = np.zeros((vpns.shape[0], factor), dtype=bool)
        slot_pfns = np.zeros((vpns.shape[0], factor), dtype=np.int64)
    valid = found & ((slot_pfns >> shift) == pcluster[:, None])
    coverage = valid.sum(axis=1)
    offsets = np.where(valid, slot_pfns & slot_mask, np.int64(-1))
    return coverage, offsets
