"""Generic TLB arrays with true-LRU replacement.

Both structures store opaque values under integer keys.  The
set-associative array takes the set index from the caller because
different entry types index the same physical array with different
address bits (Fig. 6: anchor entries use VA bits [d+12, d+12+N), regular
entries the usual [12, 12+N)); the caller owns that mapping.

LRU is implemented with insertion-ordered dicts: a hit reinserts the
key, eviction pops the oldest.  This is exact LRU, matching the
reference model used by the property tests.

Both arrays carry an ASID/PCID-style *tag register* for multi-tenant
sharing: ``set_tag`` selects the address-space tag of the currently
running tenant, and every ``lookup``/``insert``/``peek``/``invalidate``
packs that tag into the entry key's high bits (above :data:`TAG_SHIFT`).
Entries of different tenants therefore never alias — a lookup only hits
same-tag entries — but they do compete for the same sets and ways,
which is exactly the shared-TLB contention the fleet model measures.
Tag 0 (the default) leaves keys bit-identical to the untagged
single-process behaviour.

The structures here (with :class:`repro.hw.range_tlb.RangeTLB`) are the
only code that packs or strips the tag; the batched LRU kernel
(:func:`repro.sim.lru.simulate_block`) packs it too, reading the same
register.  Schemes hand these methods untagged keys and read resident
state through :meth:`SetAssociativeTLB.owned`, so no scheme knows the
tag layout and every scheme can share a tagged hierarchy.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.params import is_pow2

#: Bit position of the address-space tag inside entry keys.  Scheme key
#: packings use at most ``vpn << 2 | kind`` with 48-bit virtual
#: addresses (36-bit VPNs), so bits [46, 58) are free for the tag.
TAG_SHIFT = 46

#: Width of the tag field: x86 PCIDs are 12 bits, and 46 + 12 = 58 keeps
#: tagged keys comfortably inside a non-negative int64.
TAG_BITS = 12

#: Largest representable tag (tags above this must be recycled).
MAX_TAG = (1 << TAG_BITS) - 1

#: Mask selecting the untagged part of an entry key.
KEY_MASK = (1 << TAG_SHIFT) - 1


def _check_tag(tag: int) -> int:
    if not 0 <= tag <= MAX_TAG:
        raise ValueError(f"tag must be in [0, {MAX_TAG}], got {tag}")
    return tag


class SetAssociativeTLB:
    """A set-associative array of ``entries`` slots, ``ways`` per set."""

    __slots__ = ("entries", "ways", "sets", "index_mask", "_sets",
                 "tag", "_tag_base")

    def __init__(self, entries: int, ways: int) -> None:
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ValueError("entries must be a positive multiple of ways")
        sets = entries // ways
        if not is_pow2(sets):
            raise ValueError(f"set count {sets} must be a power of two")
        self.entries = entries
        self.ways = ways
        self.sets = sets
        self.index_mask = sets - 1
        self._sets: list[dict[int, object]] = [dict() for _ in range(sets)]
        self.tag = 0
        self._tag_base = 0

    def set_tag(self, tag: int) -> None:
        """Select the address-space tag for subsequent accesses."""
        self.tag = _check_tag(tag)
        self._tag_base = tag << TAG_SHIFT

    def flush_tag(self, tag: int) -> int:
        """Drop every entry carrying ``tag``; return the count dropped.

        The ASID-recycling shootdown: when a tag value is reassigned to
        a new tenant, the previous owner's entries must not be visible
        to it.
        """
        _check_tag(tag)
        dropped = 0
        for bucket in self._sets:
            stale = [key for key in bucket if key >> TAG_SHIFT == tag]
            for key in stale:
                del bucket[key]
            dropped += len(stale)
        return dropped

    def lookup(self, index: int, key: int) -> object | None:
        """Return the value stored under ``key`` (touching LRU) or None."""
        bucket = self._sets[index & self.index_mask]
        key |= self._tag_base
        value = bucket.get(key)
        if value is not None:
            del bucket[key]
            bucket[key] = value
        return value

    def insert(self, index: int, key: int, value: object) -> None:
        """Insert/refresh an entry, evicting LRU on conflict."""
        bucket = self._sets[index & self.index_mask]
        key |= self._tag_base
        if key in bucket:
            del bucket[key]
        elif len(bucket) >= self.ways:
            del bucket[next(iter(bucket))]
        bucket[key] = value

    def peek(self, index: int, key: int) -> object | None:
        """The value stored under ``key``, or None, leaving LRU alone."""
        return self._sets[index & self.index_mask].get(key | self._tag_base)

    def owned(
        self, indices: Iterable[int] | None = None
    ) -> list[tuple[int, int, object]]:
        """The running tenant's entries as ``(set, key, value)`` triples.

        Keys come back untagged, each set's entries in LRU -> MRU order,
        over ``indices`` (every set when None).  Other tenants' entries
        are skipped: they occupy ways but no lookup of this tenant can
        see them.
        """
        sets = self._sets
        tag = self.tag
        return [
            (index, key & KEY_MASK, value)
            for index in (range(self.sets) if indices is None else indices)
            for key, value in sets[index].items()
            if key >> TAG_SHIFT == tag
        ]

    def invalidate(self, index: int, key: int) -> bool:
        bucket = self._sets[index & self.index_mask]
        return bucket.pop(key | self._tag_base, None) is not None

    def flush(self) -> None:
        for bucket in self._sets:
            bucket.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def keys(self) -> list[int]:
        return [key for bucket in self._sets for key in bucket]

    def state(self) -> list[list[tuple[int, object]]]:
        """Per-set ``(key, value)`` pairs in LRU -> MRU order.

        The exact replacement state, used by the engine parity suite to
        assert that the batched fast path leaves the array bit-identical
        to the scalar walk.
        """
        return [list(bucket.items()) for bucket in self._sets]


class FullyAssociativeTLB:
    """A fully associative array with true LRU (used by the range TLB).

    Exposes the same ``_sets``/``ways``/``index_mask`` surface as
    :class:`SetAssociativeTLB` — one set holding every entry — so
    :func:`repro.sim.lru.simulate_block` can drive it directly (the
    batched page-walk-cache model relies on this).
    """

    __slots__ = ("capacity", "_sets", "tag", "_tag_base")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._sets: list[dict[int, object]] = [dict()]
        self.tag = 0
        self._tag_base = 0

    def set_tag(self, tag: int) -> None:
        """Select the address-space tag for subsequent accesses."""
        self.tag = _check_tag(tag)
        self._tag_base = tag << TAG_SHIFT

    def flush_tag(self, tag: int) -> int:
        """Drop every entry carrying ``tag``; return the count dropped."""
        _check_tag(tag)
        entries = self._entries
        stale = [key for key in entries if key >> TAG_SHIFT == tag]
        for key in stale:
            del entries[key]
        return len(stale)

    @property
    def _entries(self) -> dict[int, object]:
        return self._sets[0]

    @property
    def ways(self) -> int:
        return self.capacity

    @property
    def index_mask(self) -> int:
        return 0

    def lookup(self, key: int) -> object | None:
        key |= self._tag_base
        value = self._entries.get(key)
        if value is not None:
            del self._entries[key]
            self._entries[key] = value
        return value

    def insert(self, key: int, value: object) -> None:
        key |= self._tag_base
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            del self._entries[next(iter(self._entries))]
        self._entries[key] = value

    def values(self):
        return list(self._entries.values())

    def state(self) -> list[tuple[int, object]]:
        """``(key, value)`` pairs in LRU -> MRU order (parity suite)."""
        return list(self._entries.items())

    def flush(self) -> None:
        self._entries.clear()

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return (key | self._tag_base) in self._entries
