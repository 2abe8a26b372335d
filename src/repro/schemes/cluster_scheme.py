"""``Cluster`` and ``Cluster-2MB``: the HW-coalescing comparison points.

The L2 budget is statically partitioned (Table 3) into a 768-entry
6-way regular TLB and a 320-entry 5-way cluster-8 TLB.  On a walk the
fill logic inspects the missing page's PTE cache line and forms a
cluster entry when at least two of its pages land in the same physical
cluster; otherwise the page fills the regular side.  ``Cluster-2MB``
additionally lets the regular side hold THP 2 MiB entries (the fair
variant the paper adds, since the original design predates shared
multi-size L2s).

The static partition is also the source of the cactusADM pathology the
paper calls out in §5.2.1: when a workload's mapping clusters poorly the
320 clustered entries idle while the 768 regular ones thrash.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PageFaultError
from repro.params import (
    CLUSTER_CLUSTERED,
    CLUSTER_FACTOR,
    CLUSTER_REGULAR,
    DEFAULT_MACHINE,
    MachineConfig,
)
from repro.hw.cluster import ClusterEntry, ClusterTLB, build_cluster_entry
from repro.hw.tlb import SetAssociativeTLB
from repro.schemes.base import Hardware, TranslationScheme, promote_huge_pages
from repro.sim.lru import (
    collapse_runs,
    isin_sorted,
    lookup_sorted,
    previous_occurrence,
    simulate_block,
    sorted_arrays,
)
from repro.vmos.mapping import MemoryMapping, cluster_slot_offsets

_HUGE_SHIFT = 9
_KIND_SMALL = 0
_KIND_HUGE = 1
_CLUSTER_SHIFT = 3  # log2(CLUSTER_FACTOR)
_CLUSTER_MASK = CLUSTER_FACTOR - 1


class ClusterScheme(TranslationScheme):
    """Partitioned regular + cluster-8 L2 (optionally with 2 MiB pages)."""

    name = "cluster"
    hardware = {
        **TranslationScheme.hardware,
        # The statically partitioned L2: a regular side and a
        # cluster-8 side, both shared whole by tagged tenants.
        "regular": Hardware(lambda s: SetAssociativeTLB(
            CLUSTER_REGULAR.entries, CLUSTER_REGULAR.ways)),
        "clustered": Hardware(lambda s: ClusterTLB(CLUSTER_CLUSTERED)),
    }

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
        use_thp: bool = False,
    ) -> None:
        super().__init__(mapping, config)
        self.use_thp = use_thp
        if use_thp:
            self.name = "cluster2mb"
        self._build_promotions()

    def _build_promotions(self) -> None:
        """(Re-)derive the promotion split from the current mapping."""
        if self.use_thp:
            self._huge, self._small = promote_huge_pages(self.mapping)
        else:
            # Live reference to the page table — never goes stale.
            self._huge, self._small = {}, self.mapping.frozen().page_table
        self._arrays: tuple | None = None

    def _on_mapping_update(self, frozen) -> None:
        self._build_promotions()
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
        if self.use_thp:
            hvpn = vpn >> _HUGE_SHIFT
            huge_base = self._huge.get(hvpn << _HUGE_SHIFT)
            if huge_base is not None:
                if self.l1.huge.lookup(hvpn, hvpn) is not None:
                    stats.l1_hits += 1
                    return 0
                if self.regular.lookup(hvpn, (hvpn << 1) | _KIND_HUGE) is not None:
                    stats.l2_huge_hits += 1
                    self.l1.fill_huge(hvpn, huge_base)
                    return latency.l2_hit
                stats.walks += 1
                self.regular.insert(hvpn, (hvpn << 1) | _KIND_HUGE, huge_base)
                self.l1.fill_huge(hvpn, huge_base)
                return self._walk_cycles(vpn, huge=True)
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        pfn = self.regular.lookup(vpn, (vpn << 1) | _KIND_SMALL)
        if pfn is not None:
            stats.l2_small_hits += 1
            self.l1.fill_small(vpn, pfn)  # type: ignore[arg-type]
            return latency.l2_hit
        pfn = self.clustered.lookup(vpn)
        if pfn is not None:
            stats.coalesced_hits += 1
            self.l1.fill_small(vpn, pfn)
            return latency.coalesced_hit
        if vpn not in self._small:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        entry = build_cluster_entry(self._small, vpn)
        if entry.coverage > 1:
            self.clustered.insert(entry)
        else:
            self.regular.insert(vpn, (vpn << 1) | _KIND_SMALL, self._small[vpn])
        pfn = self._small[vpn]
        self.l1.fill_small(vpn, pfn)
        return self._walk_cycles(vpn)

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path via class decomposition.

        The partition is *not* promote-or-insert over its raw probe
        stream (a walk fills the clustered side only when the built
        entry clusters, the regular side otherwise), but the fill
        decision is static per mapping version: a 4 KiB miss walks into
        the clustered side iff its :func:`cluster_slot_offsets` coverage
        exceeds one.  Splitting the misses by that bit yields two
        streams that *are* tractable:

        * **R-class** (coverage == 1) pages and 2 MiB pages only ever
          fill — and therefore only ever hit — the regular side, and a
          C-class probe of the regular array never touches it (misses
          don't touch LRU), so the regular array is promote-or-insert
          over the huge + R-class stream alone: one
          :func:`simulate_block` call.
        * **C-class** (coverage > 1) accesses are promote-or-insert on
          their vcluster over the clustered array (a covered hit
          promotes; an uncovered probe promotes and the walk's insert
          replaces in place; a miss inserts), and no R-class page is
          ever *covered* by a resident cluster entry (coverage would be
          > 1).  After any C-class access the resident entry equals the
          entry its own walk would build — a covered hit implies the
          same physical cluster and hence a value-equal entry — so
          residency resolves with :func:`simulate_block` and coverage
          reduces to physical-cluster identity with the previous
          same-vcluster access (:func:`previous_occurrence`), with at
          most one pre-block snapshot check per resident vcluster.

        The one interaction between the streams: an R-class page that
        misses the regular side *touches* its vcluster's LRU position
        in the clustered array (the probe promotes even on an uncovered
        slot) without ever inserting.  A touch whose vcluster cannot be
        resident — not in the pre-block snapshot nor C-class-accessed
        in the block — is a no-op and is dropped; the few sets that
        receive a candidate touch replay their accesses exactly in
        Python (sets are independent, so the per-set split is exact).
        """
        if vpns.shape[0] == 0:
            return
        (sm_keys, sm_vals), (hg_keys, hg_vals) = self._sorted_views()
        heads = collapse_runs(vpns)
        n = vpns.shape[0]
        hvpn = heads >> _HUGE_SHIFT
        _, is_huge = lookup_sorted(hg_keys, hg_vals, hvpn << _HUGE_SHIFT)
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
        pfn_heads = np.zeros(heads.shape[0], dtype=np.int64)
        pfn_heads[is_small] = pfn_sm
        pfn = pfn_heads[miss]
        sm_rows = np.flatnonzero(~m_huge)
        sv = mk[sm_rows]
        coverage, offsets = cluster_slot_offsets(
            sm_keys, sm_vals, sv, pfn[sm_rows], shift=_CLUSTER_SHIFT)
        c_class = coverage > 1

        # --- regular side: huge + R-class stream, promote-or-insert ---
        reg_sel = np.ones(mk.shape[0], dtype=bool)
        reg_sel[sm_rows[c_class]] = False
        reg_rows = np.flatnonzero(reg_sel)
        rk = mk[reg_rows]
        reg_huge = m_huge[reg_rows]
        reg_sets = np.where(reg_huge, rk >> _HUGE_SHIFT, rk)
        reg_keys = np.where(
            reg_huge,
            ((rk >> _HUGE_SHIFT) << 1) | _KIND_HUGE,
            rk << 1)

        def reg_value_of(key: int):
            if key & _KIND_HUGE:
                return huge[(key >> 1) << _HUGE_SHIFT]
            return small[key >> 1]

        hit2 = simulate_block(self.regular, reg_sets, reg_keys, reg_value_of)
        l2_huge = int(np.count_nonzero(hit2 & reg_huge))
        l2_small = int(np.count_nonzero(hit2)) - l2_huge
        walk_mask = np.zeros(mk.shape[0], dtype=bool)
        walk_mask[reg_rows[~hit2]] = True  # every regular miss walks

        # --- clustered side -------------------------------------------
        carr = self.clustered.array
        c_setmask = carr.index_mask
        snapshot = {vc: entry for _, vc, entry in carr.owned()}
        strong_rows = sm_rows[c_class]
        strong_v = mk[strong_rows]
        strong_vc = strong_v >> _CLUSTER_SHIFT
        strong_pc = pfn[strong_rows] >> _CLUSTER_SHIFT
        strong_offs = offsets[c_class]

        # Candidate weak touches: R-class regular misses whose vcluster
        # could be resident when probed.
        weak_rows = reg_rows[~hit2 & ~reg_huge]
        weak_vc = mk[weak_rows] >> _CLUSTER_SHIFT
        if weak_vc.size and (snapshot or strong_vc.size):
            universe = np.concatenate([
                np.fromiter(snapshot, dtype=np.int64, count=len(snapshot)),
                strong_vc,
            ])
            universe.sort()
            weak_cand = isin_sorted(universe, weak_vc)
        else:
            weak_cand = np.zeros(weak_vc.shape, dtype=bool)
        bad_sets = np.unique(weak_vc[weak_cand] & c_setmask)
        if bad_sets.size:
            strong_bad = isin_sorted(bad_sets, strong_vc & c_setmask)
        else:
            strong_bad = np.zeros(strong_vc.shape, dtype=bool)
        clean = ~strong_bad

        # Clean sets: one simulate_block over the C-class stream.
        cvc = strong_vc[clean]
        cpc = strong_pc[clean]
        c_offs = strong_offs[clean]
        # Last build per vcluster wins, like the walks.  Entries are
        # materialised lazily: value_of only runs for the handful of
        # keys surviving into the final state, not per access.
        last_row = dict(zip(cvc.tolist(), range(cvc.shape[0])))

        def c_value_of(vc: int) -> ClusterEntry:
            j = last_row.get(vc)
            if j is None:
                return snapshot[vc]
            return ClusterEntry(
                vc, int(cpc[j]) << _CLUSTER_SHIFT,
                tuple(int(o) if o >= 0 else None for o in c_offs[j]))

        array_hit = simulate_block(carr, cvc, cvc, c_value_of)
        prev = previous_occurrence(cvc)
        has_prev = prev >= 0
        covered = np.zeros(cvc.shape[0], dtype=bool)
        covered[has_prev] = cpc[prev[has_prev]] == cpc[has_prev]
        cv = strong_v[clean]
        for i in np.flatnonzero(array_hit & ~has_prev).tolist():
            entry = snapshot.get(int(cvc[i]))
            covered[i] = (
                entry is not None
                and entry.offsets[int(cv[i]) & _CLUSTER_MASK] is not None)
        trans_hit = array_hit & covered
        coalesced = int(np.count_nonzero(trans_hit))
        walk_mask[strong_rows[clean][~trans_hit]] = True

        # Contaminated sets: exact Python replay, in trace order.
        if bad_sets.size:
            n_strong = int(np.count_nonzero(strong_bad))
            rep_pos = np.concatenate(
                [strong_rows[strong_bad], weak_rows[weak_cand]])
            rep_vc = np.concatenate(
                [strong_vc[strong_bad], weak_vc[weak_cand]])
            order = np.argsort(rep_pos)
            slot_b = (strong_v[strong_bad] & _CLUSTER_MASK).tolist()
            pcb_b = ((strong_pc[strong_bad]) << _CLUSTER_SHIFT).tolist()
            offs_b = strong_offs[strong_bad].tolist()
            c_lookup = carr.lookup
            c_insert = carr.insert
            # Walks at the same (vcluster, pcluster) build value-equal
            # entries (the decomposition is static per mapping version),
            # so one materialisation serves every rebuild.
            entry_cache: dict[tuple[int, int], ClusterEntry] = {}
            for pos, j, vc in zip(rep_pos[order].tolist(), order.tolist(),
                                  rep_vc[order].tolist()):
                # A weak touch (j >= n_strong) is the R-class probe: it
                # promotes a resident entry whose slot never covers it.
                entry = c_lookup(vc, vc)
                if j >= n_strong:
                    continue
                if entry is not None and entry.offsets[slot_b[j]] is not None:
                    coalesced += 1
                    continue
                walk_mask[pos] = True
                pcb = pcb_b[j]
                new = entry_cache.get((vc, pcb))
                if new is None:
                    new = ClusterEntry(
                        vc, pcb,
                        tuple(o if o >= 0 else None for o in offs_b[j]))
                    entry_cache[(vc, pcb)] = new
                c_insert(vc, vc, new)

        walk_vpns = mk[walk_mask]
        walk_pt = self._block_walk_accesses(walk_vpns, m_huge[walk_mask])
        self.stats.bulk_update(
            accesses=n,
            l1_hits=n - heads.shape[0] + int(np.count_nonzero(hit1)),
            l2_small_hits=l2_small,
            l2_huge_hits=l2_huge,
            coalesced_hits=coalesced,
            walks=int(np.count_nonzero(walk_mask)),
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
