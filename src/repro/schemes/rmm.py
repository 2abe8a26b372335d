"""``RMM``: redundant memory mappings (Karakostas et al., ISCA'15).

The baseline L2 (4 KiB + 2 MiB with THP) is backed by a 32-entry fully
associative range TLB.  After an L2 miss the range TLB is probed; a hit
translates with the range's base PPN plus offset (8 cycles).  A miss
walks the page table and refills both the L2 and — from the OS's
redundant range table — the range TLB.

With a handful of huge ranges (the ``max`` scenario) RMM practically
eliminates walks; with many small chunks the 32 entries thrash and RMM
degenerates to THP (Fig. 2), which is the paper's core motivation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PageFaultError
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.hw.range_tlb import RangeTable, RangeTLB
from repro.schemes.base import (
    L2_ARRAY,
    Hardware,
    TranslationScheme,
    promote_huge_pages,
)
from repro.sim.lru import collapse_runs, lookup_sorted, simulate_block, sorted_arrays
from repro.vmos.mapping import MemoryMapping

_HUGE_SHIFT = 9
_KIND_SMALL = 0
_KIND_HUGE = 1


class RMMScheme(TranslationScheme):
    """Baseline L2 (with THP) + 32-entry range TLB."""

    name = "rmm"
    hardware = {
        **TranslationScheme.hardware,
        "l2": L2_ARRAY,
        # All tenants' ranges contend for one range TLB's few fully
        # associative slots.
        "range_tlb": Hardware(lambda s: RangeTLB()),
    }

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
    ) -> None:
        super().__init__(mapping, config)
        self._build_os_views()

    def _build_os_views(self) -> None:
        """(Re-)derive the OS-side structures from the current mapping."""
        self.range_table = RangeTable(self.mapping)
        self._huge, self._small = promote_huge_pages(self.mapping)
        self._arrays: tuple | None = None

    def _on_mapping_update(self, frozen) -> None:
        self._build_os_views()
        self.flush()

    def _sorted_views(self) -> tuple:
        if self._arrays is None:
            self._arrays = (sorted_arrays(self._small),
                            sorted_arrays(self._huge))
        return self._arrays

    def _prepare_share(self) -> None:
        super()._prepare_share()
        self._sorted_views()

    def access(self, vpn: int) -> int:
        stats = self.stats
        stats.accesses += 1
        latency = self.config.latency
        hvpn = vpn >> _HUGE_SHIFT
        huge_base = self._huge.get(hvpn << _HUGE_SHIFT)
        if huge_base is not None:
            if self.l1.huge.lookup(hvpn, hvpn) is not None:
                stats.l1_hits += 1
                return 0
            if self.l2.lookup(hvpn, (hvpn << 1) | _KIND_HUGE) is not None:
                stats.l2_huge_hits += 1
                self.l1.fill_huge(hvpn, huge_base)
                return latency.l2_hit
            pfn = self.range_tlb.lookup(vpn)
            if pfn is not None:
                stats.coalesced_hits += 1
                self.l1.fill_huge(hvpn, huge_base)
                return latency.coalesced_hit
            stats.walks += 1
            self.l2.insert(hvpn, (hvpn << 1) | _KIND_HUGE, huge_base)
            self.l1.fill_huge(hvpn, huge_base)
            self._refill_range(vpn)
            return self._walk_cycles(vpn, huge=True)
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        pfn = self.l2.lookup(vpn, (vpn << 1) | _KIND_SMALL)
        if pfn is not None:
            stats.l2_small_hits += 1
            self.l1.fill_small(vpn, pfn)  # type: ignore[arg-type]
            return latency.l2_hit
        pfn = self.range_tlb.lookup(vpn)
        if pfn is not None:
            stats.coalesced_hits += 1
            self.l1.fill_small(vpn, pfn)
            return latency.coalesced_hit
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        self.l2.insert(vpn, (vpn << 1) | _KIND_SMALL, pfn)
        self.l1.fill_small(vpn, pfn)
        self._refill_range(vpn)
        return self._walk_cycles(vpn)

    def _refill_range(self, vpn: int) -> None:
        entry = self.range_table.find(vpn)
        if entry is not None:
            self.range_tlb.insert(entry)

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path.

        The L1 arrays resolve with :func:`simulate_block`; the L2 and
        the range TLB do not — they are *interlocked* (a range hit
        suppresses the L2 refill, and only walks refill the range TLB),
        so neither is promote-or-insert over its own probe stream.  The
        L1 misses replay through an exact Python loop with the
        per-reference lookups (page-size class, PFN, covering chunk)
        hoisted into numpy.  The range-TLB scan reduces to one keyed
        probe (:meth:`RangeTLB.touch`) by the covering chunk's start.
        """
        if vpns.shape[0] == 0:
            return
        frozen = self.mapping.frozen()
        (sm_keys, sm_vals), (hg_keys, hg_vals) = self._sorted_views()
        heads = collapse_runs(vpns)
        n = vpns.shape[0]
        hvpn = heads >> _HUGE_SHIFT
        hbase, is_huge = lookup_sorted(hg_keys, hg_vals, hvpn << _HUGE_SHIFT)
        is_small = ~is_huge
        small_heads = heads[is_small]
        pfn_sm, found = lookup_sorted(sm_keys, sm_vals, small_heads)
        if not found.all():
            # An unmapped page: the scalar loop faults at the right spot.
            return super().access_block(vpns)

        huge = self._huge
        small = self._small
        hit1 = np.empty(heads.shape[0], dtype=bool)
        hit1[is_small] = simulate_block(
            self.l1.small, small_heads, small_heads, small.__getitem__)
        hv = hvpn[is_huge]
        huge_value = lambda h: huge[h << _HUGE_SHIFT]  # noqa: E731
        hit1[is_huge] = simulate_block(self.l1.huge, hv, hv, huge_value)

        miss = ~hit1
        mk = heads[miss]
        m_huge = is_huge[miss]
        m_hvpn = hvpn[miss]
        pfn_heads = np.zeros(heads.shape[0], dtype=np.int64)
        pfn_heads[is_small] = pfn_sm
        cid = frozen.chunk_of(mk)
        cstart = frozen.chunk_vpn[cid] if cid.size else cid
        # Each row's L2 probe/fill: huge rows by 2 MiB key, the rest by
        # 4 KiB key (kind bits: _KIND_SMALL == 0).
        l2_index = np.where(m_huge, m_hvpn, mk)
        l2_key = np.where(m_huge, (m_hvpn << 1) | _KIND_HUGE, mk << 1)
        l2_value = np.where(m_huge, hbase[miss], pfn_heads[miss])
        ranges = self.range_table.ranges()
        l2_lookup = self.l2.lookup
        l2_insert = self.l2.insert
        range_touch = self.range_tlb.touch
        range_insert = self.range_tlb.insert
        l2_hits = l2_huge = coalesced = 0
        walk_vpns: list[int] = []
        walk_huge: list[bool] = []
        rows = zip(
            mk.tolist(),
            m_huge.tolist(),
            l2_index.tolist(),
            l2_key.tolist(),
            l2_value.tolist(),
            cstart.tolist(),
            cid.tolist(),
        )
        for vpn, huge_row, index, key, value, cs, ci in rows:
            if l2_lookup(index, key) is not None:
                l2_hits += 1
                l2_huge += huge_row
                continue
            if range_touch(cs) is not None:
                coalesced += 1
                continue
            walk_vpns.append(vpn)
            walk_huge.append(huge_row)
            l2_insert(index, key, value)
            # Walk completed: refill the range TLB from the OS table.
            range_insert(ranges[ci])
        walks = len(walk_vpns)
        l2_small = l2_hits - l2_huge
        walk_pt = 0
        if self.pwc is not None:
            walk_pt = self._block_walk_accesses(
                np.asarray(walk_vpns, dtype=np.int64),
                np.asarray(walk_huge, dtype=bool))
        self.stats.bulk_update(
            accesses=n,
            l1_hits=n - heads.shape[0] + int(np.count_nonzero(hit1)),
            l2_small_hits=l2_small,
            l2_huge_hits=l2_huge,
            coalesced_hits=coalesced,
            walks=walks,
            walk_pt_accesses=walk_pt,
        )

    def _translate(self, vpn: int) -> int:
        base = self._huge.get((vpn >> _HUGE_SHIFT) << _HUGE_SHIFT)
        if base is not None:
            return base + (vpn & ((1 << _HUGE_SHIFT) - 1))
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        return pfn
