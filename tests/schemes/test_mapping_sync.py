"""Regression: mutating a mapping after scheme construction must not
leave a scheme translating through stale snapshots.

Before the ``FrozenMapping``/version plumbing, every scheme copied the
page table (``mapping.as_dict()``) and OS-side views (promotions, range
tables, anchor directories) into private dicts at construction time and
never looked back — a mapping mutated afterwards silently diverged from
what the scheme translated.  Schemes now track ``mapping.version`` and
resynchronise on the next ``translate``/epoch boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PageFaultError
from repro.params import MachineConfig, TLBGeometry
from repro.schemes.anchor_scheme import AnchorScheme
from repro.schemes.region_anchor_scheme import RegionAnchorScheme
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim.engine import run_trace
from repro.sim.trace import Trace
from repro.vmos.mapping import MemoryMapping
from repro.vmos.vma import VMA

TINY = MachineConfig(
    l1_4k=TLBGeometry(8, 2),
    l1_2m=TLBGeometry(4, 2),
    l2=TLBGeometry(32, 4),
)


def make_mapping() -> MemoryMapping:
    mapping = MemoryMapping(vmas=[VMA(0x1000, 1024)])
    for i in range(900):
        mapping.map_page(0x1000 + i, 0x9000 + i)
    return mapping


ALL_SCHEMES = scheme_names(include_extras=True)


def built_on(mapping, scheme_name, like):
    """``scheme_name`` built on ``mapping``, keeping ``like``'s anchor
    distances: a mapping sync replans coverage at the distances already
    chosen (only an epoch-boundary reselection changes them), whereas
    construction would choose afresh."""
    if isinstance(like, AnchorScheme):
        return AnchorScheme(mapping, TINY, distance=like.distance)
    if isinstance(like, RegionAnchorScheme):
        return RegionAnchorScheme(mapping, TINY, regions=like.regions)
    return make_scheme(scheme_name, mapping, TINY)


class TestMappingVersionSync:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_remap_visible_to_translate(self, scheme_name):
        """Remapping a page to a new frame after construction (and after
        the scheme has warmed its caches) must show up in translate()."""
        mapping = make_mapping()
        scheme = make_scheme(scheme_name, mapping, TINY)
        assert scheme.translate(0x1010) == 0x9010
        mapping.unmap_page(0x1010)
        mapping.map_page(0x1010, 0xFFFF0)
        assert scheme.translate(0x1010) == 0xFFFF0

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_new_page_visible_to_translate(self, scheme_name):
        mapping = make_mapping()
        scheme = make_scheme(scheme_name, mapping, TINY)
        new_vpn = 0x1000 + 950  # inside the VMA, not yet mapped
        with pytest.raises(PageFaultError):
            scheme.translate(new_vpn)
        mapping.map_page(new_vpn, 0xABCDE)
        assert scheme.translate(new_vpn) == 0xABCDE

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    @pytest.mark.parametrize("engine", ("scalar", "batched"))
    def test_remap_visible_to_simulation(self, scheme_name, engine):
        """A mutation between two run_trace() calls must be honoured by
        the next epoch (both engines resync at epoch boundaries)."""
        mapping = make_mapping()
        scheme = make_scheme(scheme_name, mapping, TINY)
        warm = Trace(np.arange(0x1000, 0x1000 + 256, dtype=np.int64), 768, "w")
        run_trace(scheme, warm, epoch_references=128, engine=engine)
        mapping.unmap_page(0x1020)
        mapping.map_page(0x1020, 0x77777)
        probe = Trace(np.full(16, 0x1020, dtype=np.int64), 48, "p")
        run_trace(scheme, probe, epoch_references=8, engine=engine)
        assert scheme.translate(0x1020) == 0x77777

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_unmap_faults_after_sync(self, scheme_name):
        mapping = make_mapping()
        scheme = make_scheme(scheme_name, mapping, TINY)
        assert scheme.translate(0x1005) == 0x9005
        mapping.unmap_page(0x1005)
        with pytest.raises(PageFaultError):
            scheme.translate(0x1005)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    @pytest.mark.parametrize("path", ("scalar", "batched"))
    def test_remap_shoots_down_resident_translations(self, scheme_name,
                                                     path):
        """§3.3: once a sync adopts a remap, no TLB structure may still
        hold the old translation — the remapped page's next access is a
        page walk, never a hit on a stale entry."""
        mapping = make_mapping()
        scheme = make_scheme(scheme_name, mapping, TINY)
        # Past the one 2 MiB-promotable run (0x1000..0x11ff), so the
        # page stays a 4 KiB page on both sides of the remap.
        vpn = 0x1000 + 800

        def touch():
            if path == "scalar":
                scheme.access(vpn)
            else:
                scheme.access_block(np.full(1, vpn, dtype=np.int64))

        touch()
        walks = scheme.stats.walks
        touch()
        assert scheme.stats.walks == walks  # resident before the remap
        mapping.unmap_page(vpn)
        mapping.map_page(vpn, 0xFFFF0)
        scheme.sync_mapping()
        touch()
        assert scheme.stats.walks == walks + 1
        assert scheme.translate(vpn) == 0xFFFF0

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    @pytest.mark.parametrize("path", ("scalar", "batched"))
    def test_synced_scheme_matches_fresh_construction(self, scheme_name,
                                                      path):
        """Every view an access path reads must follow the mapping: a
        warmed scheme that syncs an unmap, a remap and a new page then
        runs exactly like a scheme built on the final mapping (with the
        same anchor distances) — a view cached before the change would
        fault, or translate differently."""
        mapping = make_mapping()
        scheme = make_scheme(scheme_name, mapping, TINY)
        warm = np.arange(0x1000, 0x1000 + 900, 3, dtype=np.int64)
        scheme.access_block(warm)
        for vpn in warm[:64].tolist():
            scheme.access(vpn)
        mapping.unmap_page(0x1000 + 100)  # splits the 2 MiB-promotable run
        mapping.unmap_page(0x1000 + 800)
        mapping.map_page(0x1000 + 800, 0xFFFF0)
        mapping.map_page(0x1000 + 950, 0xABCDE)
        scheme.sync_mapping()
        fresh = built_on(mapping, scheme_name, scheme)
        mapped = np.asarray(sorted(vpn for vpn, _ in mapping.items()),
                            dtype=np.int64)
        rng = np.random.default_rng(11)
        vpns = np.concatenate([[0x1000 + 800, 0x1000 + 950],
                               mapped[rng.integers(0, mapped.shape[0], 600)],
                               [0x1000 + 800, 0x1000 + 950]])
        before = scheme.stats.snapshot()
        if path == "scalar":
            assert ([scheme.access(v) for v in vpns.tolist()]
                    == [fresh.access(v) for v in vpns.tolist()])
        else:
            for start in range(0, vpns.shape[0], 151):
                scheme.access_block(vpns[start:start + 151])
                fresh.access_block(vpns[start:start + 151])
        after = scheme.stats.snapshot()
        assert ({k: after[k] - before[k] for k in after}
                == fresh.stats.snapshot())
        assert scheme.translate(0x1000 + 800) == 0xFFFF0

    def test_version_counter_bumps_once_per_mutation(self):
        mapping = make_mapping()
        v0 = mapping.version
        mapping.map_page(0x1000 + 950, 0x1)
        assert mapping.version == v0 + 1
        mapping.unmap_page(0x1000 + 950)
        assert mapping.version == v0 + 2
        mapping.set_protection(0x1000, 1, 0b01)
        assert mapping.version == v0 + 3

    def test_frozen_cached_per_version(self):
        mapping = make_mapping()
        frozen_a = mapping.frozen()
        assert mapping.frozen() is frozen_a
        mapping.map_page(0x1000 + 950, 0x2)
        frozen_b = mapping.frozen()
        assert frozen_b is not frozen_a
        assert frozen_b.version == mapping.version
