"""The split L1 TLB (Table 3, *Common* rows).

Every scheme shares the same first level: a 64-entry 4-way TLB for 4 KiB
pages and a 32-entry 4-way TLB for 2 MiB pages, probed in parallel with
the L1 cache so that hits contribute no translation cycles.  Schemes
that never create 2 MiB mappings simply never fill the 2 MiB side.
"""

from __future__ import annotations

from repro.params import MachineConfig
from repro.hw.tlb import SetAssociativeTLB


class L1TLB:
    """Split 4 KiB / 2 MiB / 1 GiB first-level TLB."""

    __slots__ = ("small", "huge", "giga")

    def __init__(self, config: MachineConfig) -> None:
        self.small = SetAssociativeTLB(config.l1_4k.entries, config.l1_4k.ways)
        self.huge = SetAssociativeTLB(config.l1_2m.entries, config.l1_2m.ways)
        self.giga = SetAssociativeTLB(config.l1_1g.entries, config.l1_1g.ways)

    def lookup_small(self, vpn: int) -> object | None:
        return self.small.lookup(vpn, vpn)

    def lookup_huge(self, hvpn: int) -> object | None:
        return self.huge.lookup(hvpn, hvpn)

    def fill_small(self, vpn: int, pfn: int) -> None:
        self.small.insert(vpn, vpn, pfn)

    def fill_huge(self, hvpn: int, base_pfn: int) -> None:
        self.huge.insert(hvpn, hvpn, base_pfn)

    def fill_giga(self, gvpn: int, base_pfn: int) -> None:
        self.giga.insert(gvpn, gvpn, base_pfn)

    def flush(self) -> None:
        self.small.flush()
        self.huge.flush()
        self.giga.flush()

    def set_tag(self, tag: int) -> None:
        """Select the address-space tag on all three arrays."""
        self.small.set_tag(tag)
        self.huge.set_tag(tag)
        self.giga.set_tag(tag)

    def flush_tag(self, tag: int) -> int:
        """Drop every entry carrying ``tag`` (ASID recycling)."""
        return (
            self.small.flush_tag(tag)
            + self.huge.flush_tag(tag)
            + self.giga.flush_tag(tag)
        )

    def state(self) -> dict[str, list]:
        """Replacement state of all three arrays (LRU -> MRU per set).

        Used by the parity suite to compare the batched engine's final
        hardware state against the scalar engine's, entry for entry.
        """
        return {
            "small": self.small.state(),
            "huge": self.huge.state(),
            "giga": self.giga.state(),
        }
