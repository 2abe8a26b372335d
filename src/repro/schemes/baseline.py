"""``Base``: 4 KiB pages only (Table 3, Baseline row).

The reference point of every figure — no huge pages, no coalescing, a
plain 1024-entry 8-way L2 of 4 KiB entries.  All miss counts in the
experiments are reported relative to this scheme.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PageFaultError
from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.schemes.base import L2_ARRAY, TranslationScheme
from repro.sim.lru import collapse_runs, simulate_block
from repro.vmos.mapping import MemoryMapping


class BaselineScheme(TranslationScheme):
    """4 KiB-only two-level TLB hierarchy."""

    name = "base"
    hardware = {**TranslationScheme.hardware, "l2": L2_ARRAY}

    def __init__(
        self,
        mapping: MemoryMapping,
        config: MachineConfig = DEFAULT_MACHINE,
    ) -> None:
        super().__init__(mapping, config)
        # Live reference to the page table (not a copy): scalar lookups
        # always see the current mapping, and the compiled array view
        # comes version-checked from mapping.frozen() per block.
        self._small = mapping.frozen().page_table

    def access(self, vpn: int) -> int:
        stats = self.stats
        stats.accesses += 1
        if self.l1.small.lookup(vpn, vpn) is not None:
            stats.l1_hits += 1
            return 0
        pfn = self.l2.lookup(vpn, vpn)
        if pfn is not None:
            stats.l2_small_hits += 1
            self.l1.fill_small(vpn, pfn)  # type: ignore[arg-type]
            return self.config.latency.l2_hit
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        stats.walks += 1
        self.l2.insert(vpn, vpn, pfn)
        self.l1.fill_small(vpn, pfn)
        return self._walk_cycles(vpn)

    def access_block(self, vpns: np.ndarray) -> None:
        """Vectorised fast path: both levels are plain promote-or-insert
        LRU arrays keyed by the VPN, so the whole block resolves with
        two :func:`simulate_block` passes (L1, then the L1 misses
        through the L2)."""
        if vpns.shape[0] == 0:
            return
        heads = collapse_runs(vpns)
        if not self.mapping.frozen().contains_all(heads):
            # An unmapped page in the block: the scalar loop raises the
            # page fault at exactly the right reference.
            return super().access_block(vpns)
        small = self._small
        hit1 = simulate_block(self.l1.small, heads, heads, small.__getitem__)
        miss1 = heads[~hit1]
        hit2 = simulate_block(self.l2, miss1, miss1, small.__getitem__)
        l2_hits = int(np.count_nonzero(hit2))
        walk_vpns = miss1[~hit2]
        self.stats.bulk_update(
            accesses=vpns.shape[0],
            l1_hits=vpns.shape[0] - heads.shape[0] + int(np.count_nonzero(hit1)),
            l2_small_hits=l2_hits,
            walks=walk_vpns.shape[0],
            walk_pt_accesses=self._block_walk_accesses(walk_vpns),
        )

    def _translate(self, vpn: int) -> int:
        pfn = self._small.get(vpn)
        if pfn is None:
            raise PageFaultError(f"vpn {vpn:#x} not mapped")
        return pfn
