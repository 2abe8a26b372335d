"""HW-only coalescing TLBs: cluster TLB (HPCA'14) and CoLT (MICRO'12).

Both exploit the fact that the page-table walker fetches a whole cache
line of eight PTEs per walk, so the fill logic can inspect the missing
page's seven neighbours for free and build a coalesced entry:

* A **cluster-8 entry** maps a virtual cluster (8 aligned consecutive
  VPNs) to one physical cluster (8 aligned consecutive PFNs); each
  covered page stores a 3-bit offset inside the physical cluster, so the
  pages may be arbitrarily permuted or partially present as long as they
  land in the *same* physical cluster.
* A **CoLT-SA entry** covers the maximal run of pages, within the PTE
  cache line, that is contiguous in both VA and PA around the missing
  page (up to 8 pages) — strictly weaker than cluster but cheaper.

Coverage scalability of both is capped at 8 pages per entry, which is
exactly the limitation hybrid coalescing removes (§2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import CLUSTER_FACTOR, TLBGeometry
from repro.hw.tlb import SetAssociativeTLB

_CLUSTER_SHIFT = 3  # log2(CLUSTER_FACTOR)
_CLUSTER_MASK = CLUSTER_FACTOR - 1


@dataclass(frozen=True)
class ClusterEntry:
    """One cluster-8 entry: physical cluster base + per-page offsets."""

    vcluster: int
    pcluster_base: int          #: PFN of the physical cluster's first frame
    offsets: tuple[int | None, ...]  #: per-slot offset in cluster, None=absent

    def translate(self, vpn: int) -> int | None:
        offset = self.offsets[vpn & _CLUSTER_MASK]
        if offset is None:
            return None
        return self.pcluster_base + offset

    @property
    def coverage(self) -> int:
        return sum(1 for o in self.offsets if o is not None)


@dataclass(frozen=True)
class ColtEntry:
    """One CoLT-SA entry: a contiguous sub-run of a PTE cache line."""

    start_vpn: int
    base_pfn: int
    pages: int

    def translate(self, vpn: int) -> int | None:
        offset = vpn - self.start_vpn
        if 0 <= offset < self.pages:
            return self.base_pfn + offset
        return None


def build_cluster_entry(
    small_map: dict[int, int], vpn: int
) -> ClusterEntry:
    """Build the cluster entry the fill logic would form for ``vpn``.

    Inspects the eight PTEs of the cache line containing ``vpn`` and
    covers every page that falls into the missing page's physical
    cluster.
    """
    pfn = small_map[vpn]
    vcluster = vpn >> _CLUSTER_SHIFT
    pcluster = pfn >> _CLUSTER_SHIFT
    base_vpn = vcluster << _CLUSTER_SHIFT
    offsets: list[int | None] = []
    for slot in range(CLUSTER_FACTOR):
        neighbour = small_map.get(base_vpn + slot)
        if neighbour is not None and (neighbour >> _CLUSTER_SHIFT) == pcluster:
            offsets.append(neighbour & _CLUSTER_MASK)
        else:
            offsets.append(None)
    return ClusterEntry(vcluster, pcluster << _CLUSTER_SHIFT, tuple(offsets))


def build_colt_entry(small_map: dict[int, int], vpn: int) -> ColtEntry:
    """Build the maximal CoLT run around ``vpn`` within its cache line."""
    pfn = small_map[vpn]
    line_base = vpn & ~_CLUSTER_MASK
    lo = vpn
    while lo - 1 >= line_base and small_map.get(lo - 1) == pfn - (vpn - lo + 1):
        lo -= 1
    hi = vpn + 1
    while hi < line_base + CLUSTER_FACTOR and small_map.get(hi) == pfn + (hi - vpn):
        hi += 1
    return ColtEntry(lo, pfn - (vpn - lo), hi - lo)


class ClusterTLB:
    """The clustered partition of the L2 (Table 3: 320 entries, 5-way)."""

    __slots__ = ("array",)

    def __init__(self, geometry: TLBGeometry) -> None:
        self.array = SetAssociativeTLB(geometry.entries, geometry.ways)

    def lookup(self, vpn: int) -> int | None:
        """Translate via a cluster entry; None on miss/uncovered slot."""
        vcluster = vpn >> _CLUSTER_SHIFT
        entry = self.array.lookup(vcluster, vcluster)
        if entry is None:
            return None
        return entry.translate(vpn)  # type: ignore[union-attr]

    def insert(self, entry: ClusterEntry) -> None:
        self.array.insert(entry.vcluster, entry.vcluster, entry)

    def set_tag(self, tag: int) -> None:
        """Select the address-space tag on the clustered array."""
        self.array.set_tag(tag)

    def flush_tag(self, tag: int) -> int:
        """Drop every entry carrying ``tag`` (ASID recycling)."""
        return self.array.flush_tag(tag)

    def flush(self) -> None:
        self.array.flush()
