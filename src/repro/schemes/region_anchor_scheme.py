"""``anchor-region``: multi-region anchors as a real scheme (paper §4.2).

The paper sketches the extension: a small fully associative *region
table* holds ``(start VPN, end VPN, anchor distance)`` triples, looked
up in parallel with the TLB; an L2 miss then probes the anchor entry
computed with the matching region's distance, so differently fragmented
parts of the address space each get the distance that suits them.

The implementation partitions the address space with
:func:`repro.vmos.regions.partition_regions` (per-region Algorithm 1),
builds one :class:`AnchorDirectory` per region, and keeps all regions'
anchor entries in the one shared L2 — keys cannot alias because regions
are disjoint, and each anchor entry is indexed with its own region's
distance shift, exactly as the §4.2 hardware would.  The batched path
is ``AnchorScheme``'s (:func:`anchor_access_block`) with a distance per
reference, so its L2 keys carry the running tenant's tag like every
scheme's and tagged fleets may share the array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PageFaultError
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.hw.anchor_tlb import KIND_ANCHOR, KIND_HUGE, KIND_SMALL
from repro.schemes.base import L2_ARRAY, TranslationScheme
from repro.schemes.anchor_scheme import PlanViews, anchor_access_block
from repro.sim.lru import collapse_runs
from repro.vmos.anchor import AnchorDirectory
from repro.vmos.mapping import MemoryMapping
from repro.vmos.regions import AnchorRegion, partition_regions

_HUGE_SHIFT = 9


class RegionAnchorScheme(TranslationScheme):
    """Hybrid coalescing with per-region anchor distances."""

    name = "anchor-region"
    hardware = {**TranslationScheme.hardware, "l2": L2_ARRAY}

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
        capacity: int = 8,
        regions: list[AnchorRegion] | None = None,
    ) -> None:
        super().__init__(mapping, config)
        if regions is None:
            regions = partition_regions(mapping, mapping.vmas, capacity)
            if not regions and len(mapping):
                # No VMA metadata: fall back to one region spanning the
                # whole mapping with the process-wide distance.
                from repro.vmos.contiguity import contiguity_histogram
                from repro.vmos.distance import select_distance

                vpns = [vpn for vpn, _ in mapping.items()]
                regions = [AnchorRegion(
                    vpns[0], vpns[-1] + 1,
                    select_distance(contiguity_histogram(mapping)),
                )]
        elif len(regions) > capacity:
            raise ValueError("more regions than the region table holds")
        self.regions = sorted(regions, key=lambda r: r.start_vpn)
        self._build_directories()

    def _build_directories(self) -> None:
        """Per-region coverage plans over the region's slice of the map."""
        mapping = self.mapping
        self._directories: list[AnchorDirectory] = []
        self._dlogs: list[int] = []
        for region in self.regions:
            slice_mapping = MemoryMapping(vmas=list(mapping.vmas))
            for vpn, pfn in mapping.items():
                if region.start_vpn <= vpn < region.end_vpn:
                    slice_mapping.map_page(vpn, pfn, mapping.protection_of(vpn))
            self._directories.append(
                AnchorDirectory.build(slice_mapping, region.distance)
            )
            self._dlogs.append(region.distance.bit_length() - 1)
        self._block_cache = None

    def _on_mapping_update(self, frozen) -> None:
        """External mapping mutation: replan every region, then flush."""
        self._build_directories()
        self.flush()

    def _prepare_share(self) -> None:
        super()._prepare_share()
        self._merged_arrays()

    # ------------------------------------------------------------------

    def _region_index(self, vpn: int) -> int | None:
        """The region-table lookup (parallel compare over <= 8 entries)."""
        for index, region in enumerate(self.regions):
            if vpn in region:
                return index
        return None

    def access(self, vpn: int) -> int:
        stats = self.stats
        stats.accesses += 1
        latency = self.config.latency
        index = self._region_index(vpn)
        if index is None:
            raise PageFaultError(f"vpn {vpn:#x} outside every region")
        directory = self._directories[index]
        dlog = self._dlogs[index]
        hvpn = vpn >> _HUGE_SHIFT
        huge_base = directory.huge.get(hvpn << _HUGE_SHIFT)
        if huge_base is not None:
            if self.l1.huge.lookup(hvpn, hvpn) is not None:
                stats.l1_hits += 1
                return 0
            if self.l2.lookup(hvpn, (hvpn << 2) | KIND_HUGE) is not None:
                stats.l2_huge_hits += 1
                self.l1.fill_huge(hvpn, huge_base)
                return latency.l2_hit
            stats.walks += 1
            self.l2.insert(hvpn, (hvpn << 2) | KIND_HUGE, huge_base)
            self.l1.fill_huge(hvpn, huge_base)
            return self._walk_cycles(vpn, huge=True)
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        pfn = self.l2.lookup(vpn, (vpn << 2) | KIND_SMALL)
        if pfn is not None:
            stats.l2_small_hits += 1
            self.l1.fill_small(vpn, pfn)  # type: ignore[arg-type]
            return latency.l2_hit
        # Anchor probe with the region's own distance.
        avpn = vpn >> dlog << dlog
        entry = self.l2.lookup(avpn >> dlog, (avpn << 2) | KIND_ANCHOR)
        if entry is not None:
            appn, contiguity = entry  # type: ignore[misc]
            offset = vpn - avpn
            if offset < contiguity:
                stats.coalesced_hits += 1
                self.l1.fill_small(vpn, appn + offset)
                return latency.coalesced_hit
        pfn = directory.small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        contiguity = directory.anchor_contiguity.get(avpn, 0)
        if vpn - avpn < contiguity:
            self.l2.insert(
                avpn >> dlog,
                (avpn << 2) | KIND_ANCHOR,
                (directory.small[avpn], contiguity),
            )
        else:
            self.l2.insert(vpn, (vpn << 2) | KIND_SMALL, pfn)
        self.l1.fill_small(vpn, pfn)
        return self._walk_cycles(vpn)

    # ------------------------------------------------------------------
    # Batched fast path
    # ------------------------------------------------------------------

    def _merged_arrays(self):
        """Region table + merged plan views (static after __init__).

        The per-region directories merge safely: a promoted huge window
        or an anchor's contiguity run lies entirely inside its region's
        leaves (regions are disjoint in VPN space), so a covering entry
        found in the merged dict always belongs to the probing VPN's own
        region, and a non-covering one yields the same walk decision as
        a per-region miss.
        """
        if self._block_cache is None:
            huge: dict[int, int] = {}
            small: dict[int, int] = {}
            anchors: dict[int, int] = {}
            for directory in self._directories:
                huge.update(directory.huge)
                small.update(directory.small)
                anchors.update(directory.anchor_contiguity)
            self._block_cache = (
                np.asarray([r.start_vpn for r in self.regions], dtype=np.int64),
                np.asarray([r.end_vpn for r in self.regions], dtype=np.int64),
                np.asarray(self._dlogs, dtype=np.int64),
                PlanViews.of(huge, small, anchors),
            )
        return self._block_cache

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path: :func:`anchor_access_block` with each
        head's distance taken from its region-table entry.

        Every mapping update rebuilds the directories and flushes the
        L2 (``_on_mapping_update``), so no resident entry can disagree
        with the merged plan: unlike ``AnchorScheme`` there is no drift
        to force into the replay.
        """
        if vpns.shape[0] == 0:
            return
        starts, ends, dlogs, views = self._merged_arrays()
        if starts.size == 0:
            return super().access_block(vpns)
        heads = collapse_runs(vpns)
        ridx = np.searchsorted(starts, heads, side="right") - 1
        if int(ridx.min()) < 0 or not bool((heads < ends[ridx]).all()):
            # A page outside every region: the scalar loop faults there.
            return super().access_block(vpns)
        anchor_access_block(self, self.l2, vpns, heads, views, dlogs[ridx])

    def _translate(self, vpn: int) -> int:
        index = self._region_index(vpn)
        if index is None:
            raise PageFaultError(f"vpn {vpn:#x} outside every region")
        directory = self._directories[index]
        huge_base = directory.huge.get((vpn >> _HUGE_SHIFT) << _HUGE_SHIFT)
        if huge_base is not None:
            return huge_base + (vpn & ((1 << _HUGE_SHIFT) - 1))
        via = directory.translate_via_anchor(vpn)
        if via is not None:
            return via
        pfn = directory.small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        return pfn

    @property
    def region_distances(self) -> list[int]:
        return [region.distance for region in self.regions]
