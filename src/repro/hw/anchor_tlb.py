"""Anchor lookup logic on the shared L2 TLB (paper §3.2, Figs. 5-6).

The L2 TLB array is unmodified except for a few contiguity bits per
entry; regular 4 KiB, 2 MiB and anchor entries share its sets and ways.
What changes is the *lookup sequence* after an L1 miss:

1. probe the L2 with the regular index (VA bits [12, 12+N));
2. on a miss, probe again for the anchor entry: AVPN = VPN aligned down
   to the anchor distance, indexed with VA bits [d+12, d+12+N) so that
   consecutive anchors spread over all sets (Fig. 6);
3. an anchor entry hits iff ``VPN − AVPN < contiguity``; the PPN is
   ``APPN + (VPN − AVPN)`` — one adder, no extra SRAM;
4. otherwise walk; per Table 2 the walker fetches the regular PTE first
   (critical path) and the anchor PTE after, then fills exactly one of
   the two into the L2.

Entry keys pack the entry type into the low bits of the VPN so the three
types never alias inside a set.
"""

from __future__ import annotations

from repro.params import MachineConfig
from repro.hw.tlb import SetAssociativeTLB

# Key type tags (packed into TLB keys below the VPN).
KIND_SMALL = 0
KIND_HUGE = 1
KIND_ANCHOR = 2

_HUGE_SHIFT = 9


class AnchorL2TLB:
    """The shared L2 TLB with regular, huge, and anchor entries."""

    __slots__ = ("array", "distance", "_dlog")

    def __init__(self, config: MachineConfig, distance: int) -> None:
        self.array = SetAssociativeTLB(config.l2.entries, config.l2.ways)
        self.set_distance(distance)

    def set_distance(self, distance: int) -> None:
        """Change the anchor distance register (flushes the TLB, §3.3).

        With an address-space tag selected, only the current tenant's
        entries are dropped: a tenant re-planning its own coverage must
        not shoot down its neighbours' tagged entries.
        """
        if distance <= 0 or distance & (distance - 1):
            raise ValueError("distance must be a positive power of two")
        self.distance = distance
        self._dlog = distance.bit_length() - 1
        if self.array.tag:
            self.array.flush_tag(self.array.tag)
        else:
            self.array.flush()

    def restore_distance(self, distance: int) -> None:
        """Restore a tenant's distance register on a context switch.

        Per §3.1 the distance is per-process context reloaded alongside
        CR3.  Unlike :meth:`set_distance` this does *not* flush: the
        incoming tenant's entries (created under this same distance) are
        exactly the ones its tagged lookups can hit, so they survive.
        """
        if distance <= 0 or distance & (distance - 1):
            raise ValueError("distance must be a positive power of two")
        self.distance = distance
        self._dlog = distance.bit_length() - 1

    def set_tag(self, tag: int) -> None:
        """Select the address-space tag on the shared array."""
        self.array.set_tag(tag)

    def flush_tag(self, tag: int) -> int:
        """Drop every entry carrying ``tag`` (ASID recycling)."""
        return self.array.flush_tag(tag)

    # -- regular entries ----------------------------------------------------

    def lookup_small(self, vpn: int) -> int | None:
        value = self.array.lookup(vpn, (vpn << 2) | KIND_SMALL)
        return value  # type: ignore[return-value]

    def fill_small(self, vpn: int, pfn: int) -> None:
        self.array.insert(vpn, (vpn << 2) | KIND_SMALL, pfn)

    def lookup_huge(self, hvpn: int) -> int | None:
        value = self.array.lookup(hvpn, (hvpn << 2) | KIND_HUGE)
        return value  # type: ignore[return-value]

    def fill_huge(self, hvpn: int, base_pfn: int) -> None:
        self.array.insert(hvpn, (hvpn << 2) | KIND_HUGE, base_pfn)

    # -- anchor entries -----------------------------------------------------

    def lookup_anchor(self, vpn: int) -> int | None:
        """Translate via the anchor entry for ``vpn``; None on miss.

        A resident anchor whose contiguity does not reach ``vpn`` is a
        miss (Table 2, row 3).
        """
        avpn = vpn >> self._dlog << self._dlog
        index = vpn >> self._dlog  # VA bits [d+12, d+12+N)
        entry = self.array.lookup(index, (avpn << 2) | KIND_ANCHOR)
        if entry is None:
            return None
        appn, contiguity = entry  # type: ignore[misc]
        offset = vpn - avpn
        if offset >= contiguity:
            return None
        return appn + offset

    def fill_anchor(self, avpn: int, appn: int, contiguity: int) -> None:
        index = avpn >> self._dlog
        self.array.insert(index, (avpn << 2) | KIND_ANCHOR, (appn, contiguity))

    # -- shootdown support ----------------------------------------------

    def invalidate_small(self, vpn: int) -> bool:
        return self.array.invalidate(vpn, (vpn << 2) | KIND_SMALL)

    def invalidate_anchor(self, avpn: int) -> bool:
        index = avpn >> self._dlog
        return self.array.invalidate(index, (avpn << 2) | KIND_ANCHOR)

    def flush(self) -> None:
        self.array.flush()
