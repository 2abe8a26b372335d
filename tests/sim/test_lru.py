"""The vectorised LRU kernel against the scalar TLB, access for access."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.tlb import TAG_SHIFT, FullyAssociativeTLB, SetAssociativeTLB
from repro.sim.lru import (
    SortedMembership,
    collapse_runs,
    isin_sorted,
    lookup_sorted,
    simulate_assoc_block,
    simulate_block,
    sorted_arrays,
)


def value_of(key: int) -> int:
    return key * 3 + 1


def reference_hits(tlb: SetAssociativeTLB, sets, keys) -> np.ndarray:
    """Drive the scalar TLB: lookup, insert-on-miss, per access."""
    hits = np.zeros(len(keys), dtype=bool)
    for i, (index, key) in enumerate(zip(sets, keys)):
        if tlb.lookup(index, key) is not None:
            hits[i] = True
        else:
            tlb.insert(index, key, value_of(key))
    return hits


def run_both(entries, ways, sets, keys, seed_entries=()):
    scalar = SetAssociativeTLB(entries, ways)
    batched = SetAssociativeTLB(entries, ways)
    for index, key in seed_entries:
        scalar.insert(index, key, value_of(key))
        batched.insert(index, key, value_of(key))
    sets = np.asarray(sets, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    expected = reference_hits(scalar, sets.tolist(), keys.tolist())
    got = simulate_block(batched, sets, keys, value_of)
    assert got.tolist() == expected.tolist()
    assert batched.state() == scalar.state()


GEOMETRIES = [(1, 1), (4, 2), (8, 2), (8, 4), (16, 4), (64, 8)]


class TestSimulateBlock:
    @pytest.mark.parametrize("entries,ways", GEOMETRIES)
    def test_random_traces(self, entries, ways):
        rng = np.random.default_rng(entries * 31 + ways)
        for universe in (ways, ways + 1, 4 * ways, 64 * ways):
            keys = rng.integers(0, universe, size=500)
            run_both(entries, ways, keys, keys)

    @pytest.mark.parametrize("entries,ways", GEOMETRIES)
    def test_preseeded_state(self, entries, ways):
        rng = np.random.default_rng(7)
        seed = [(int(k), int(k)) for k in rng.integers(0, 4 * ways, size=3 * ways)]
        keys = rng.integers(0, 4 * ways, size=300)
        run_both(entries, ways, keys, keys, seed_entries=seed)

    def test_set_and_key_decoupled(self):
        # Callers may derive the set index from the key any way they
        # like, as long as it is a function of the key.
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 64, size=400)
        run_both(16, 2, keys >> 2, keys)

    def test_long_reuse_span_reaches_straggler_scan(self):
        # Two hot keys pounded between two occurrences of a cold key.
        # More than ``ways`` distinct keys keep the no-eviction shortcut
        # off, and the cold key's 40k-position reuse span outlasts the
        # widest resolver window (32,768), so its outcome comes from
        # the exact per-straggler scan.
        ways = 4
        keys = [5, 6, 7, 8, 99] + [1, 2] * 20_000 + [99]
        run_both(8, ways, [0] * len(keys), keys)

    def test_empty_block(self):
        tlb = SetAssociativeTLB(8, 2)
        out = simulate_block(
            tlb, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            value_of)
        assert out.size == 0

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=12),
                      min_size=1, max_size=120),
        geometry=st.sampled_from(GEOMETRIES),
    )
    def test_property_random_traces(self, keys, geometry):
        entries, ways = geometry
        run_both(entries, ways, keys, keys)


def tagged_value(tag: int, key: int) -> int:
    """The entry tenant ``tag`` stores under ``key``: distinct per tag,
    so a foreign survivor re-resolved through the active tenant's
    ``value_of`` ends up with the wrong value."""
    return (tag << 40) | (key * 3 + 1)


def tenant_value_of(tag: int):
    return lambda key: tagged_value(tag, key)


def prefill(tlbs, tags, rng, universe, count):
    """Insert ``count`` random keys per tag into every array in ``tlbs``
    (identically), each holding its owner's ``tagged_value``."""
    for tag in tags:
        keys = rng.integers(0, universe, size=count).tolist()
        for tlb in tlbs:
            tlb.set_tag(tag)
            assoc = isinstance(tlb, FullyAssociativeTLB)
            for key in keys:
                where = (key,) if assoc else (key, key)
                tlb.insert(*where, tagged_value(tag, key))


def drive(scalar, batched, tag, keys):
    """One block under ``tag``: scalar lookup/insert vs the kernel."""
    value_of = tenant_value_of(tag)
    assoc = isinstance(scalar, FullyAssociativeTLB)
    scalar.set_tag(tag)
    batched.set_tag(tag)
    expected = []
    for key in keys.tolist():
        where = (key,) if assoc else (key, key)
        hit = scalar.lookup(*where) is not None
        if not hit:
            scalar.insert(*where, value_of(key))
        expected.append(hit)
    if assoc:
        got = simulate_assoc_block(batched, keys, value_of)
    else:
        got = simulate_block(batched, keys, keys, value_of)
    assert got.tolist() == expected
    assert batched.state() == scalar.state()


class TestFleetShape:
    """Scalar vs batched at the tagged fleet's real shape: a full shared
    1024-entry/8-way L2 holding several tenants, 500-key blocks."""

    def test_full_shared_l2_round_robin(self):
        rng = np.random.default_rng(500)
        scalar = SetAssociativeTLB(1024, 8)
        batched = SetAssociativeTLB(1024, 8)
        prefill((scalar, batched), (1, 2, 3, 4), rng, 8192, 1024)
        assert batched.occupancy == 1024
        for block in range(12):
            tag = 1 + block % 5              # tag 5 starts cold
            keys = rng.integers(0, 2048 if block % 2 else 512, size=500)
            drive(scalar, batched, tag, keys)

    @pytest.mark.parametrize("capacity", [2, 4, 32])
    def test_page_walk_cache_sizes(self, capacity):
        rng = np.random.default_rng(capacity)
        scalar = FullyAssociativeTLB(capacity)
        batched = FullyAssociativeTLB(capacity)
        prefill((scalar, batched), (1, 2, 3), rng, 64, capacity)
        for block in range(9):
            tag = 1 + block % 4
            universe = (2, capacity, 4 * capacity, 400)[block % 4]
            keys = rng.integers(0, universe, size=500)
            drive(scalar, batched, tag, keys)

    @settings(max_examples=60, deadline=None)
    @given(
        active=st.integers(min_value=0, max_value=5),
        resident=st.lists(st.integers(min_value=1, max_value=5),
                          max_size=4, unique=True),
        keys=st.lists(st.integers(min_value=0, max_value=40),
                      min_size=1, max_size=120),
        geometry=st.sampled_from([(8, 2), (16, 4), (64, 8), (32, 32)]),
    )
    def test_property_tagged_blocks(self, active, resident, keys, geometry):
        entries, ways = geometry
        rng = np.random.default_rng(len(keys))
        scalar = SetAssociativeTLB(entries, ways)
        batched = SetAssociativeTLB(entries, ways)
        prefill((scalar, batched), resident, rng, 48, entries)
        drive(scalar, batched, active, np.asarray(keys, dtype=np.int64))


class Entry:
    """A value object compared by identity only."""

    def __init__(self, key: int) -> None:
        self.key = key


class TestFinalStateContract:
    def test_untouched_sets_are_left_alone(self):
        tlb = SetAssociativeTLB(64, 4)                # 16 sets
        for key in range(64):
            tlb.insert(key, key, Entry(key))
        before = [list(bucket.items()) for bucket in tlb._sets]
        keys = np.asarray([3, 19, 3, 35, 51, 67, 7, 7, 23], dtype=np.int64)
        simulate_block(tlb, keys, keys, Entry)
        touched = {3, 7}
        for index, bucket in enumerate(tlb._sets):
            if index in touched:
                continue
            after = list(bucket.items())
            assert [k for k, _ in after] == [k for k, _ in before[index]]
            assert all(a is b for (_, a), (_, b) in zip(after, before[index]))

    @pytest.mark.parametrize("tag", [0, 2])
    def test_own_survivors_hold_value_of_result(self, tag):
        # Like the cluster scheme's builder, value_of makes a fresh
        # entry per call, so resident own-tag values are replaced; a
        # foreign survivor keeps its resident object.
        tlb = SetAssociativeTLB(16, 4)                # 4 sets
        foreign = Entry(1)
        tlb.set_tag(5)
        tlb.insert(1, 1, foreign)
        tlb.set_tag(tag)
        resident = {key: Entry(key) for key in (0, 4, 8)}
        for key, entry in resident.items():
            tlb.insert(key, key, entry)
        built = {}

        def value_of(key):
            built[key] = Entry(key)
            return built[key]

        keys = np.asarray([0, 4, 12, 1, 0, 5], dtype=np.int64)
        simulate_block(tlb, keys, keys, value_of)
        tag_base = tag << TAG_SHIFT
        for bucket in tlb._sets:
            for key, value in bucket.items():
                if key == (5 << TAG_SHIFT) | 1:
                    assert value is foreign
                else:
                    assert value is built[key ^ tag_base]
        assert set(built) >= {0, 4, 8, 12, 1, 5}


class TestHelpers:
    def test_collapse_runs(self):
        vpns = np.asarray([5, 5, 5, 2, 2, 7, 5, 5], dtype=np.int64)
        assert collapse_runs(vpns).tolist() == [5, 2, 7, 5]
        assert collapse_runs(np.empty(0, dtype=np.int64)).size == 0

    def test_isin_sorted(self):
        table = np.asarray([2, 5, 9], dtype=np.int64)
        probes = np.asarray([1, 2, 5, 9, 10], dtype=np.int64)
        assert isin_sorted(table, probes).tolist() == [
            False, True, True, True, False]

    def test_lookup_sorted(self):
        keys, values = sorted_arrays({5: 50, 2: 20, 9: 90})
        out, found = lookup_sorted(
            keys, values, np.asarray([2, 3, 9, 11], dtype=np.int64),
            default=-1)
        assert out.tolist() == [20, -1, 90, -1]
        assert found.tolist() == [True, False, True, False]

    def test_sorted_membership_contiguous_and_sparse(self):
        dense = SortedMembership({10: 1, 11: 1, 12: 1})
        assert dense.contiguous
        assert dense.contains_all(np.asarray([10, 12], dtype=np.int64))
        assert not dense.contains_all(np.asarray([9], dtype=np.int64))
        sparse = SortedMembership({10: 1, 12: 1})
        assert not sparse.contiguous
        assert sparse.mask(np.asarray([10, 11, 12], dtype=np.int64)).tolist() \
            == [True, False, True]
        empty = SortedMembership({})
        assert not empty.contains_all(np.asarray([1], dtype=np.int64))
        assert empty.contains_all(np.empty(0, dtype=np.int64))
