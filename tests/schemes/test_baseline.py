"""Tests for the 4 KiB baseline scheme."""

import pytest

from repro.errors import PageFaultError
from repro.schemes.baseline import BaselineScheme
from repro.sim.engine import run_trace


class TestBaseline:
    def test_cold_access_walks(self, contiguous_mapping):
        scheme = BaselineScheme(contiguous_mapping)
        cycles = scheme.access(0x1000)
        assert cycles == 50
        assert scheme.stats.walks == 1

    def test_l1_hit_is_free(self, contiguous_mapping):
        scheme = BaselineScheme(contiguous_mapping)
        scheme.access(0x1000)
        assert scheme.access(0x1000) == 0
        assert scheme.stats.l1_hits == 1

    def test_l2_hit_after_l1_eviction(self, contiguous_mapping, tiny_machine):
        scheme = BaselineScheme(contiguous_mapping, tiny_machine)
        # Touch enough pages mapping to the same L1 set to evict the
        # first from L1 while it survives in the larger L2.
        scheme.access(0x1000)
        for i in range(1, 5):
            scheme.access(0x1000 + i * 4)  # L1 has 4 sets in tiny config
        cycles = scheme.access(0x1000)
        assert cycles == tiny_machine.latency.l2_hit
        assert scheme.stats.l2_small_hits == 1

    def test_unmapped_faults(self, contiguous_mapping):
        scheme = BaselineScheme(contiguous_mapping)
        with pytest.raises(PageFaultError):
            scheme.access(0xDEAD000)
        with pytest.raises(PageFaultError):
            scheme.translate(0xDEAD000)

    def test_flush_forces_walks_again(self, contiguous_mapping):
        scheme = BaselineScheme(contiguous_mapping)
        scheme.access(0x1000)
        scheme.flush()
        assert scheme.access(0x1000) == 50

    def test_run_conserves_stats(self, contiguous_mapping, make_trace):
        scheme = BaselineScheme(contiguous_mapping)
        trace = make_trace([0x1000 + (i % 64) for i in range(500)])
        stats = run_trace(scheme, trace).stats
        assert stats.accesses == 500
        stats.check_conservation()

    def test_run_is_removed(self, contiguous_mapping):
        # The deprecated run() shim was deleted; run_trace() is the API.
        scheme = BaselineScheme(contiguous_mapping)
        assert not hasattr(scheme, "run")

    def test_capacity_thrash(self, contiguous_mapping, tiny_machine):
        # 256 pages round-robin over a 32-entry L2: every access misses.
        scheme = BaselineScheme(contiguous_mapping, tiny_machine)
        for _ in range(3):
            for vpn in range(0x1000, 0x1100):
                scheme.access(vpn)
        assert scheme.stats.walks > 256 * 2
