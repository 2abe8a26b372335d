"""Tests for 1 GiB page support (paper §2.1)."""

import pytest

from repro.mem.frames import FrameRange
from repro.params import GIGA_PAGE_PAGES
from repro.schemes.base import promote_giga_pages
from repro.schemes.registry import make_scheme
from repro.schemes.thp import THPScheme
from repro.sim.engine import run_trace
from repro.vmos.mapping import MemoryMapping


@pytest.fixture(scope="module")
def giga_friendly():
    """One aligned, phase-matched 1 GiB run plus a 2 MiB remainder."""
    mapping = MemoryMapping()
    mapping.map_run(GIGA_PAGE_PAGES, FrameRange(GIGA_PAGE_PAGES * 2,
                                                GIGA_PAGE_PAGES + 512))
    return mapping


class TestGigaPromotion:
    def test_aligned_run_promotes(self, giga_friendly):
        giga, rest = promote_giga_pages(giga_friendly)
        assert set(giga) == {GIGA_PAGE_PAGES}
        assert len(rest) == 512  # the 2 MiB tail stays

    def test_phase_mismatch_blocks(self):
        mapping = MemoryMapping()
        mapping.map_run(GIGA_PAGE_PAGES, FrameRange(7, GIGA_PAGE_PAGES))
        giga, rest = promote_giga_pages(mapping)
        assert not giga
        assert len(rest) == GIGA_PAGE_PAGES

    def test_sub_giga_run_not_promoted(self):
        mapping = MemoryMapping()
        mapping.map_run(0, FrameRange(0, GIGA_PAGE_PAGES // 2))
        giga, _ = promote_giga_pages(mapping)
        assert not giga


class TestTHP1GScheme:
    def test_registry_name(self, giga_friendly):
        scheme = make_scheme("thp1g", giga_friendly)
        assert scheme.name == "thp1g"
        assert scheme.giga_windows == 1

    def test_one_walk_covers_a_gigabyte(self, giga_friendly):
        scheme = THPScheme(giga_friendly, use_giga=True)
        assert scheme.access(GIGA_PAGE_PAGES) == 50
        # Distant pages of the same 1 GiB window never walk again.
        for offset in (1, 4096, 100_000, GIGA_PAGE_PAGES - 1):
            assert scheme.access(GIGA_PAGE_PAGES + offset) == 0
        assert scheme.stats.walks == 1

    def test_tail_uses_2mb_pages(self, giga_friendly):
        scheme = THPScheme(giga_friendly, use_giga=True)
        tail = GIGA_PAGE_PAGES * 2
        assert scheme.access(tail) == 50         # 2 MiB window walk
        assert scheme.access(tail + 100) == 0    # L1 huge hit
        assert scheme.huge_windows == 1

    def test_translate_all_levels(self, giga_friendly):
        scheme = THPScheme(giga_friendly, use_giga=True)
        for vpn, pfn in list(giga_friendly.items())[:: GIGA_PAGE_PAGES // 8]:
            assert scheme.translate(vpn) == pfn

    def test_plain_thp_ignores_giga(self, giga_friendly):
        scheme = THPScheme(giga_friendly, use_giga=False)
        assert scheme.giga_windows == 0
        # It still translates correctly via 2 MiB pages.
        assert scheme.translate(GIGA_PAGE_PAGES) == GIGA_PAGE_PAGES * 2

    def test_separate_giga_tlb_capacity(self, giga_friendly):
        scheme = THPScheme(giga_friendly, use_giga=True)
        assert scheme.l2_giga.entries == 16

    def test_flush(self, giga_friendly):
        scheme = THPScheme(giga_friendly, use_giga=True)
        scheme.access(GIGA_PAGE_PAGES)
        scheme.flush()
        assert scheme.access(GIGA_PAGE_PAGES) == 50

    def test_conservation(self, giga_friendly, make_trace):
        scheme = THPScheme(giga_friendly, use_giga=True)
        vpns = [GIGA_PAGE_PAGES + i * 977 for i in range(200)]
        run_trace(scheme, make_trace(vpns))
        scheme.stats.check_conservation()
