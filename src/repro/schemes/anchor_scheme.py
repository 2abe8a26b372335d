"""``Anchor``: the paper's hybrid TLB coalescing scheme (§3).

The shared L2 holds 4 KiB, 2 MiB and anchor entries (Table 3, Anchor
row).  The OS plans coverage with :class:`AnchorDirectory` — anchors at
every distance-aligned 4 KiB leaf, plus 2 MiB promotion where that beats
anchors — and the hardware follows the lookup flow of Fig. 5 / Table 2:

====================  ============  ===========  =======================
regular entry         anchor entry  contiguity   action
====================  ============  ===========  =======================
hit                   —             —            done (7 cycles)
miss                  hit           match        done (8 cycles)
miss                  hit           no match     walk, fill regular
miss                  miss          match        walk, fill *anchor only*
miss                  miss          no match     walk, fill regular only
====================  ============  ===========  =======================

Two variants are exposed: ``dynamic`` picks the distance with
Algorithm 1 (and may re-pick at epoch boundaries, paying the §3.3
distance-change cost), and fixed-distance instances are used by the
``static-ideal`` exhaustive search.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import PageFaultError
from repro.hw.tlb import SetAssociativeTLB
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.hw.anchor_tlb import (
    KIND_ANCHOR,
    KIND_HUGE,
    KIND_SMALL,
    AnchorL2TLB,
)
from repro.schemes.base import Hardware, TranslationScheme
from repro.sim.lru import (
    collapse_runs,
    isin_sorted,
    lookup_sorted,
    simulate_block,
    sorted_arrays,
)
from repro.vmos.anchor import AnchorDirectory
from repro.vmos.contiguity import contiguity_histogram
from repro.vmos.distance import select_distance
from repro.vmos.mapping import MemoryMapping
from repro.vmos.shootdown import ShootdownLog

_HUGE_SHIFT = 9

#: Rows per slice of the exact replay's per-row Python columns.
_REPLAY_SLICE = 4096

#: No drifted entries: a plan whose every mapping update flushes the L2.
_NO_DRIFT: tuple[dict, set, set] = ({}, set(), set())


class PlanViews(NamedTuple):
    """An anchor coverage plan as sorted key/value arrays (for the
    vectorised lookups) beside the dicts they came from (for
    ``value_of``)."""

    huge: tuple[np.ndarray, np.ndarray]     #: 2 MiB window VPN -> PFN
    small: tuple[np.ndarray, np.ndarray]    #: 4 KiB leaf VPN -> PFN
    anchors: tuple[np.ndarray, np.ndarray]  #: anchor VPN -> contiguity
    huge_d: dict[int, int]
    small_d: dict[int, int]
    anchors_d: dict[int, int]
    #: Every anchor sits on a 4 KiB leaf; if that ever broke, the block
    #: path could not resolve APPNs and falls back to the scalar loop.
    anchors_ok: bool

    @classmethod
    def of(cls, huge: dict, small: dict, anchors: dict) -> "PlanViews":
        hg, sm, an = (sorted_arrays(huge), sorted_arrays(small),
                      sorted_arrays(anchors))
        return cls(hg, sm, an, huge, small, anchors,
                   bool(isin_sorted(sm[0], an[0]).all()))


def anchor_access_block(
    scheme: TranslationScheme,
    array: SetAssociativeTLB,
    vpns: np.ndarray,
    heads: np.ndarray,
    views: PlanViews,
    dlog,
    drift: tuple[dict, set, set] = _NO_DRIFT,
) -> None:
    """The batched translation of an anchor scheme (Fig. 5 / Table 2).

    ``heads`` are ``vpns``' run heads (:func:`collapse_runs`), ``array``
    the L2 and ``dlog`` the log2 anchor distance — one int, or one per
    head when each region has its own (§4.2).  ``drift`` holds the
    caller's resident entries that disagree with ``views``: drifted
    anchor entries by key, resident small keys the plan now anchors,
    and the sets holding any drifted entry.

    The L1 arrays are promote-or-insert LRU (every head is filled with
    its plan translation whatever the L2 outcome), so both resolve with
    :func:`simulate_block`.  Each L1-miss row's L2 probe/fill flow
    touches exactly one *main* key chosen by a static property of the
    plan — huge rows their huge key, anchored rows (vpn - avpn <
    contiguity) their anchor key, the rest their small key — so the
    main stream batches through :func:`simulate_block` too.  The
    residual coupling — an unanchored miss *promoting* a resident
    anchor entry it does not cover, and drifted entries — is confined
    to the few sets it can touch, which replay exactly in trace order
    through the array's own ``lookup``/``insert`` (docs/api_tour.md
    §15).  Falls back to the scalar loop when a head is unmapped.
    """
    if not views.anchors_ok:
        return TranslationScheme.access_block(scheme, vpns)
    hg_keys, hg_vals = views.huge
    sm_keys, sm_vals = views.small
    an_keys, an_vals = views.anchors
    n = vpns.shape[0]
    hvpn = heads >> _HUGE_SHIFT
    hbase, is_huge = lookup_sorted(hg_keys, hg_vals, hvpn << _HUGE_SHIFT)
    is_small = ~is_huge
    small_heads = heads[is_small]
    pfn_sm, found = lookup_sorted(sm_keys, sm_vals, small_heads)
    if not found.all():
        # An unmapped page: the scalar loop faults at the right spot.
        return TranslationScheme.access_block(scheme, vpns)

    huge, small, anchors = views.huge_d, views.small_d, views.anchors_d
    hit1 = np.empty(heads.shape[0], dtype=bool)
    hit1[is_small] = simulate_block(
        scheme.l1.small, small_heads, small_heads, small.__getitem__)
    hv = hvpn[is_huge]
    huge_value = lambda h: huge[h << _HUGE_SHIFT]  # noqa: E731
    hit1[is_huge] = simulate_block(scheme.l1.huge, hv, hv, huge_value)

    # Per-L1-miss precomputation for the shared L2.
    miss = ~hit1
    imask = array.index_mask
    mk = heads[miss]
    m = mk.shape[0]
    m_huge = is_huge[miss]
    if isinstance(dlog, np.ndarray):
        dlog = dlog[miss]
    avpn = mk >> dlog << dlog
    na = an_keys.size
    if na:
        aid = np.searchsorted(an_keys, avpn)
        aid[aid == na] = 0
        af = an_keys[aid] == avpn
        cont = np.where(af, an_vals[aid], 0)
    else:
        aid = np.zeros(m, dtype=np.int64)
        af = np.zeros(m, dtype=bool)
        cont = np.zeros(m, dtype=np.int64)
    appn, _ = lookup_sorted(sm_keys, sm_vals, avpn)
    pfn_heads = np.zeros(heads.shape[0], dtype=np.int64)
    pfn_heads[is_small] = pfn_sm
    # The value a walk fills under the row's own (huge or small) key.
    m_fill = np.where(m_huge, hbase[miss], pfn_heads[miss])
    small_m = ~m_huge
    anchored = small_m & (mk - avpn < cont)
    unanch = small_m & ~anchored
    aidx = (avpn >> dlog) & imask
    pak = (avpn << 2) | KIND_ANCHOR
    main_keys = np.where(
        m_huge, ((mk >> _HUGE_SHIFT) << 2) | KIND_HUGE,
        np.where(anchored, pak, (mk << 2) | KIND_SMALL))
    main_sets = np.where(
        m_huge, (mk >> _HUGE_SHIFT) & imask,
        np.where(anchored, aidx, mk & imask))

    # Anchor residency by direct probe of each distinct (anchor, set)
    # pair: a block touches few, so probing beats snapshotting the
    # array.  Values are block-start state; rows whose outcome depends
    # on mid-block changes are forced into the replay, which re-checks
    # live state.
    probe = af & small_m
    resident = np.zeros(m, dtype=bool)
    r_ap = np.zeros(m, dtype=np.int64)
    r_ct = np.zeros(m, dtype=np.int64)
    rows = np.flatnonzero(probe)
    if rows.size:
        pairs, inverse = np.unique(
            aid[rows] * (imask + 1) + aidx[rows], return_inverse=True)
        p_found = np.zeros(pairs.shape[0], dtype=bool)
        p_ap = np.zeros(pairs.shape[0], dtype=np.int64)
        p_ct = np.zeros(pairs.shape[0], dtype=np.int64)
        peek = array.peek
        for u, pair in enumerate(pairs.tolist()):
            j, index = divmod(pair, imask + 1)
            entry = peek(index, (int(an_keys[j]) << 2) | KIND_ANCHOR)
            if entry is not None:
                p_found[u] = True
                p_ap[u], p_ct[u] = entry
        resident[rows] = p_found[inverse]
        r_ap[rows] = p_ap[inverse]
        r_ct[rows] = p_ct[inverse]
    stale_anchors, anch_smalls, stale_sets = drift
    # Anchors the plan dropped can survive as resident entries; their
    # keys and values come from the drift.
    if stale_anchors:
        items = sorted(stale_anchors.items())
        sa_keys = np.array([k for k, _ in items], dtype=np.int64)
        sa_ap = np.array([v[0] for _, v in items], dtype=np.int64)
        sa_ct = np.array([v[1] for _, v in items], dtype=np.int64)
        s_ap, s_found = lookup_sorted(sa_keys, sa_ap, pak)
        s_ct, _ = lookup_sorted(sa_keys, sa_ct, pak)
        s_found &= small_m
        resident |= s_found
        r_ap = np.where(s_found, s_ap, r_ap)
        r_ct = np.where(s_found, s_ct, r_ct)
    stale = resident & ((r_ap != appn) | (r_ct != cont))
    sk_res = np.zeros(m, dtype=bool)
    if anch_smalls and bool(anchored.any()):
        sk_res = anchored & isin_sorted(
            np.sort(np.fromiter(anch_smalls, dtype=np.int64,
                                count=len(anch_smalls))),
            (mk << 2) | KIND_SMALL)

    # Candidate weak touches: an unanchored miss probes its anchor key
    # and promotes it if resident — possible only if that key was
    # resident at block start or an in-block anchored row inserts it.
    inblk = np.zeros(na + 1, dtype=bool)
    inblk[aid[anchored]] = True
    cand = unanch & (resident | (probe & inblk[aid]))
    forced = (stale & (anchored | (unanch & (mk - avpn < r_ct)))) | sk_res
    # A forced row replays its full scalar flow, which can touch both
    # its anchor set and its small-key set — contaminate both.  Sets
    # holding drifted entries always replay: the kernel would rebuild
    # their final state through value_of — *current* values — silently
    # refreshing what the scalar machine keeps stale.
    bad_sets = np.unique(np.concatenate([
        aidx[cand | (forced & small_m)],
        (mk & imask)[forced & small_m],
        main_sets[forced],
        np.fromiter(stale_sets, dtype=np.int64, count=len(stale_sets)),
    ]))
    if bad_sets.size:
        row_bad = isin_sorted(bad_sets, main_sets)
        weak_only = cand & ~row_bad
    else:
        row_bad = np.zeros(m, dtype=bool)
        weak_only = row_bad

    # Batched main stream over the clean sets only.  value_of resolves
    # by *key* (not row) because the kernel also calls it for resident
    # prefix entries surviving into the final state of a touched set;
    # the drift check above guarantees every such key still resolves
    # to its resident value.
    clean = ~row_bad

    def value_of(key: int):
        kind = key & 3
        base = key >> 2
        if kind == KIND_ANCHOR:
            return (small[base], anchors[base])
        if kind == KIND_HUGE:
            return huge[base << _HUGE_SHIFT]
        return small[base]

    hit2 = np.zeros(m, dtype=bool)
    hit2[clean] = simulate_block(
        array, main_sets[clean], main_keys[clean], value_of)
    walk_mask = clean & ~hit2
    ch = clean & hit2
    l2_huge = int(np.count_nonzero(ch & m_huge))
    coalesced = int(np.count_nonzero(ch & anchored))
    l2_small = int(np.count_nonzero(ch & unanch))

    # Exact replay of the contaminated sets, plus the weak anchor
    # promotions of clean unanchored misses whose main probe missed
    # (a main-probe hit never probes the anchor), in trace order.
    lookup = array.lookup
    insert = array.insert
    replay = np.flatnonzero(row_bad | (weak_only & ~hit2))
    # In slices, so the per-row columns stay small when most of a big
    # block is contaminated.
    for start in range(0, replay.size, _REPLAY_SLICE):
        rows = replay[start:start + _REPLAY_SLICE]
        for i, weak, vpn, huge_row, fill, ai, ak, av, ct, ap in zip(
                rows.tolist(), weak_only[rows].tolist(), mk[rows].tolist(),
                m_huge[rows].tolist(), m_fill[rows].tolist(),
                aidx[rows].tolist(), pak[rows].tolist(),
                avpn[rows].tolist(), cont[rows].tolist(),
                appn[rows].tolist()):
            if weak:
                lookup(ai, ak)
                continue
            if huge_row:
                hvpn_row = vpn >> _HUGE_SHIFT
                hkey = (hvpn_row << 2) | KIND_HUGE
                if lookup(hvpn_row, hkey) is not None:
                    l2_huge += 1
                else:
                    walk_mask[i] = True
                    insert(hvpn_row, hkey, fill)
                continue
            skey = (vpn << 2) | KIND_SMALL
            if lookup(vpn, skey) is not None:
                l2_small += 1
                continue
            # The anchor probe touches LRU even when contiguity misses.
            entry = lookup(ai, ak)
            if entry is not None and vpn - av < entry[1]:
                coalesced += 1
                continue
            walk_mask[i] = True
            if vpn - av < ct:
                insert(ai, ak, (ap, ct))
            else:
                insert(vpn, skey, fill)

    scheme.stats.bulk_update(
        accesses=n,
        l1_hits=n - heads.shape[0] + int(np.count_nonzero(hit1)),
        l2_small_hits=l2_small,
        l2_huge_hits=l2_huge,
        coalesced_hits=coalesced,
        walks=int(np.count_nonzero(walk_mask)),
        walk_pt_accesses=scheme._block_walk_accesses(
            mk[walk_mask], m_huge[walk_mask]),
    )


class AnchorScheme(TranslationScheme):
    """Hybrid coalescing with a process-wide anchor distance."""

    name = "anchor"
    supports_reselection = True
    hardware = {
        **TranslationScheme.hardware,
        # Anchor entries live in the unmodified L2 (§3.2).  Tagged
        # tenants share its physical array, but each keeps its own
        # wrapper: the distance register is per process (§3.1).
        "l2": Hardware(lambda s: AnchorL2TLB(s.config, s.distance),
                       shared="array"),
    }

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
        distance: int | None = None,
        enable_thp: bool = True,
    ) -> None:
        """``distance=None`` selects dynamically via Algorithm 1."""
        self.dynamic = distance is None
        self.enable_thp = enable_thp
        if distance is None:
            distance = select_distance(contiguity_histogram(mapping))
        # The plan comes first: the L2's factory reads its distance.
        self.directory = AnchorDirectory.build(mapping, distance, enable_thp)
        super().__init__(mapping, config)
        self.name = "anchor-dyn" if self.dynamic else f"anchor-d{distance}"
        self.shootdowns = ShootdownLog()
        self._dlog = distance.bit_length() - 1
        self._block_cache = None
        # Resident-state caches for the block fast path: sets holding a
        # same-tenant entry whose value drifted from the directory, the
        # drifted anchor entries themselves, and resident small keys
        # whose VPN the current plan classifies as anchored.  Rebuilt by
        # a full array scan only after a directory (or tag) change —
        # stale survivors can appear at no other time — and shrunk by a
        # cheap per-entry re-probe between scans.
        self._stale_sets: set[int] = set()
        self._stale_anchors: dict[int, tuple[int, int]] = {}
        self._anch_smalls: set[int] = set()
        self._scan_needed = True
        self._scan_tag = -1
        # Copy-on-write guard for the shared coverage plan: set on both
        # sides of clone_fresh, cleared whenever the directory is
        # rebound to a private rebuild or privatised by _own_directory.
        self._dir_shared = False

    # ------------------------------------------------------------------
    # Prototype cloning
    # ------------------------------------------------------------------

    def _prepare_share(self) -> None:
        super()._prepare_share()
        self._directory_arrays()
        # The incremental note_* paths mutate the directory in place;
        # once any clone shares it, both prototype and clones must
        # privatise before their first in-place mutation.
        self._dir_shared = True

    def _reset_clone(self) -> None:
        super()._reset_clone()
        self.shootdowns = ShootdownLog()
        self._stale_sets = set()
        self._stale_anchors = {}
        self._anch_smalls = set()
        self._scan_needed = True
        self._scan_tag = -1

    def _own_directory(self) -> None:
        """Privatise a clone-shared directory before in-place mutation."""
        if not self._dir_shared:
            return
        shared = self.directory
        self.directory = AnchorDirectory(
            distance=shared.distance,
            huge=dict(shared.huge),
            anchor_contiguity=dict(shared.anchor_contiguity),
            small=dict(shared.small),
            protections=dict(shared.protections),
        )
        self._dir_shared = False

    # ------------------------------------------------------------------

    @property
    def distance(self) -> int:
        return self.directory.distance

    def access(self, vpn: int) -> int:
        stats = self.stats
        stats.accesses += 1
        latency = self.config.latency
        directory = self.directory
        hvpn = vpn >> _HUGE_SHIFT
        huge_base = directory.huge.get(hvpn << _HUGE_SHIFT)
        if huge_base is not None:
            if self.l1.huge.lookup(hvpn, hvpn) is not None:
                stats.l1_hits += 1
                return 0
            if self.l2.lookup_huge(hvpn) is not None:
                stats.l2_huge_hits += 1
                self.l1.fill_huge(hvpn, huge_base)
                return latency.l2_hit
            stats.walks += 1
            self.l2.fill_huge(hvpn, huge_base)
            self.l1.fill_huge(hvpn, huge_base)
            return self._walk_cycles(vpn, huge=True)
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        pfn = self.l2.lookup_small(vpn)
        if pfn is not None:
            stats.l2_small_hits += 1
            self.l1.fill_small(vpn, pfn)
            return latency.l2_hit
        pfn = self.l2.lookup_anchor(vpn)
        if pfn is not None:
            stats.coalesced_hits += 1
            self.l1.fill_small(vpn, pfn)
            return latency.coalesced_hit
        # Walk: fetch the regular PTE (critical path), then the anchor
        # PTE; fill exactly one of the two (Table 2, rows 3-5).
        pfn = directory.small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        avpn = vpn >> self._dlog << self._dlog
        contiguity = directory.anchor_contiguity.get(avpn, 0)
        if vpn - avpn < contiguity:
            self.l2.fill_anchor(avpn, directory.small[avpn], contiguity)
        else:
            self.l2.fill_small(vpn, pfn)
        self.l1.fill_small(vpn, pfn)
        return self._walk_cycles(vpn)

    # ------------------------------------------------------------------
    # Batched fast path
    # ------------------------------------------------------------------

    def _directory_arrays(self) -> PlanViews:
        """Sorted-array views of the coverage plan, rebuilt lazily after
        any OS-side update (reselect, map/unmap/protect, rebuild)."""
        if self._block_cache is None:
            self._block_cache = PlanViews.of(
                self.directory.huge, self.directory.small,
                self.directory.anchor_contiguity)
        return self._block_cache

    def _invalidate_block_cache(self) -> None:
        self._block_cache = None
        self._scan_needed = True

    def _classify_residents(self, indices=None):
        """This tenant's resident L2 entries (in the sets ``indices``,
        or all) against the current plan: ``(sets holding a drifted
        entry, drifted anchor entries, small keys the plan anchors)``."""
        directory = self.directory
        small_dir = directory.small
        anchor_cont = directory.anchor_contiguity
        huge = directory.huge
        dlog = self._dlog
        stale_sets: set[int] = set()
        stale_anchors: dict[int, tuple[int, int]] = {}
        anch_smalls: set[int] = set()
        for index, key, value in self.l2.array.owned(indices):
            kind = key & 3
            base = key >> 2
            if kind == KIND_ANCHOR:
                if value != (small_dir.get(base), anchor_cont.get(base)):
                    stale_sets.add(index)
                    stale_anchors[key] = value
            elif kind == KIND_SMALL:
                if value != small_dir.get(base):
                    stale_sets.add(index)
                avpn = base >> dlog << dlog
                if base - avpn < anchor_cont.get(avpn, 0):
                    anch_smalls.add(key)
            elif value != huge.get(base << _HUGE_SHIFT):
                stale_sets.add(index)
        return stale_sets, stale_anchors, anch_smalls

    def _refresh_residents(self) -> None:
        """Bring the resident-state caches up to date.

        A full array scan runs only after a directory (or tag) change —
        stale survivors can appear at no other time.  Otherwise the
        cached drifted entries are re-probed: they can only go away
        (replay or other-tenant pressure evicting them, a replayed walk
        re-filling an anchor with current values), never appear.
        """
        array = self.l2.array
        if self._scan_needed or self._scan_tag != array.tag:
            (self._stale_sets, self._stale_anchors,
             self._anch_smalls) = self._classify_residents()
            self._scan_needed = False
            self._scan_tag = array.tag
        elif self._stale_sets or self._anch_smalls:
            self._stale_sets, self._stale_anchors, _ = (
                self._classify_residents(sorted(self._stale_sets)))
            peek = array.peek
            self._anch_smalls = {key for key in self._anch_smalls
                                 if peek(key >> 2, key) is not None}

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path: :func:`anchor_access_block` under the
        process-wide distance, with the drifted entries the incremental
        OS-update paths leave behind forced into its exact replay."""
        if vpns.shape[0] == 0:
            return
        views = self._directory_arrays()
        self._refresh_residents()
        anchor_access_block(
            self, self.l2.array, vpns, collapse_runs(vpns), views,
            self._dlog,
            (self._stale_anchors, self._anch_smalls, self._stale_sets))

    # ------------------------------------------------------------------
    # Dynamic distance management (epoch boundary hook)
    # ------------------------------------------------------------------

    def reselect_distance(self) -> tuple[int, bool]:
        """Re-run Algorithm 1 (an OS epoch tick, §4.1).

        Rebuilds the coverage plan and flushes the TLBs when the pick
        changes; the OS-side cost lands in :attr:`shootdowns`.  Returns
        ``(distance, changed)``.
        """
        if not self.dynamic:
            return self.distance, False
        picked = select_distance(contiguity_histogram(self.mapping))
        if picked == self.distance:
            return picked, False
        self.shootdowns.record_distance_change(self.mapping.mapped_pages, picked)
        self.directory = AnchorDirectory.build(self.mapping, picked, self.enable_thp)
        self._dir_shared = False
        self._dlog = picked.bit_length() - 1
        self._invalidate_block_cache()
        self.l2.set_distance(picked)
        self.l1.flush()
        return picked, True

    # ------------------------------------------------------------------
    # OS mapping updates (§3.3): incremental anchor maintenance plus the
    # targeted TLB shootdown of the page and every anchor spanning it.
    # ------------------------------------------------------------------

    def _shootdown_page(self, vpn: int, anchors: list[int]) -> None:
        self._invalidate_block_cache()
        self.l1.small.invalidate(vpn, vpn)
        self.l2.invalidate_small(vpn)
        for avpn in anchors:
            self.l2.invalidate_anchor(avpn)
        self.shootdowns.record_unmap(1, self.distance)

    def unmap_page(self, vpn: int) -> int:
        """Unmap one 4 KiB page: page table, anchors, and TLBs."""
        self._own_directory()
        anchors = self.directory.anchors_spanning(vpn)
        pfn = self.directory.note_unmap(vpn)
        self.mapping.unmap_page(vpn)
        # Incremental maintenance stands in for the default full flush.
        self._synced_version = self.mapping.version
        self._shootdown_page(vpn, anchors)
        return pfn

    def map_page(self, vpn: int, pfn: int) -> None:
        """Map one 4 KiB page, merging it into surrounding anchor runs."""
        self._own_directory()
        self.directory.note_map(vpn, pfn)
        self.mapping.map_page(vpn, pfn)
        self._synced_version = self.mapping.version
        # Stale anchors around the new page now under-report contiguity;
        # invalidate them so refills pick up the merged runs.
        self._shootdown_page(vpn, self.directory.anchors_spanning(vpn))

    def protect_page(self, vpn: int, prot: int) -> None:
        """Change one page's protection, splitting coalesced coverage."""
        self._own_directory()
        anchors = self.directory.anchors_spanning(vpn)
        self.directory.note_protect(vpn, prot)
        self.mapping.set_protection(vpn, 1, prot)
        self._synced_version = self.mapping.version
        self._shootdown_page(vpn, anchors)

    def rebuild(self, mapping: MemoryMapping) -> None:
        """Adopt an updated mapping (allocation/relocation), flushing TLBs."""
        self.mapping = mapping
        self._synced_version = mapping.version
        self.directory = AnchorDirectory.build(mapping, self.distance, self.enable_thp)
        self._dir_shared = False
        self._invalidate_block_cache()
        self.flush()

    def _on_mapping_update(self, frozen) -> None:
        """External mapping mutation: replan coverage, then flush."""
        self.directory = AnchorDirectory.build(
            self.mapping, self.distance, self.enable_thp)
        self._dir_shared = False
        self._invalidate_block_cache()
        self.flush()

    def _translate(self, vpn: int) -> int:
        directory = self.directory
        huge_base = directory.huge.get((vpn >> _HUGE_SHIFT) << _HUGE_SHIFT)
        if huge_base is not None:
            return huge_base + (vpn & ((1 << _HUGE_SHIFT) - 1))
        via_anchor = directory.translate_via_anchor(vpn)
        if via_anchor is not None:
            return via_anchor
        pfn = directory.small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        return pfn
