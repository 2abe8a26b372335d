"""Differential suite for the prototype-clone contract.

``TranslationScheme.clone_fresh()`` powers the fleet's prototype-cloned
scheme construction: one prototype per mapping key pays the expensive
mapping-derived builds (anchor directories, promotion maps, range
tables), and every tenant receives a clone sharing that state read-only
with fresh per-tenant hardware and stats.  The contract these tests pin:

* a clone is *bit-identical* to a freshly constructed scheme — same
  stats, same per-access latencies — for every registered scheme, on
  every scenario, with the page-walk caches on and off, even when the
  prototype has already run;
* cloning leaves the prototype pristine (no stats, no warm TLBs), and
  clones never alias mutable state back into the prototype or each
  other — including after mid-run mapping updates and the anchor
  scheme's in-place incremental directory maintenance;
* a clone never re-runs a mapping-derived builder: once the prototype
  has been shared, another ``clone_fresh()`` calls none of them.
"""

import dataclasses
import importlib
import pkgutil
from collections import Counter

import numpy as np
import pytest

import repro.schemes
from repro.params import DEFAULT_MACHINE, SCENARIO_ORDER
from repro.schemes.registry import make_scheme, scheme_names
from repro.vmos.anchor import AnchorDirectory
from repro.vmos.mapping import MemoryMapping
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import AllocationSite, layout_vmas

ALL_SCHEMES = scheme_names(include_extras=True)

PWC_MACHINE = dataclasses.replace(DEFAULT_MACHINE, pwc=True)


@pytest.fixture(scope="module")
def vmas():
    return layout_vmas([AllocationSite(1024, 1), AllocationSite(48, 3)])


def drive(scheme, vpns):
    """Mixed block + scalar traffic; returns the scalar latency trace."""
    scheme.sync_mapping()
    block = np.asarray(sorted(vpns[: len(vpns) // 2]), dtype=np.int64)
    scheme.access_block(block)
    latencies = [scheme.access(int(v)) for v in vpns[len(vpns) // 2:]]
    scheme.stats.check_conservation()
    return latencies


def sample_vpns(mapping, count=3000, seed=7):
    rng = np.random.default_rng(seed)
    mapped = np.asarray([vpn for vpn, _ in mapping.items()], dtype=np.int64)
    return mapped[rng.integers(0, mapped.shape[0], size=count)]


@pytest.mark.parametrize("pwc", [False, True], ids=["pwc-off", "pwc-on"])
@pytest.mark.parametrize("scenario", SCENARIO_ORDER)
@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_clone_matches_fresh_construction(vmas, scheme_name, scenario, pwc):
    machine = PWC_MACHINE if pwc else DEFAULT_MACHINE
    mapping = build_mapping(vmas, scenario, seed=23)
    proto = make_scheme(scheme_name, mapping, machine)
    fresh = make_scheme(scheme_name, mapping, machine)
    clone = proto.clone_fresh()
    vpns = sample_vpns(mapping)
    assert drive(clone, vpns) == drive(fresh, vpns)
    assert clone.stats.snapshot() == fresh.stats.snapshot()
    # The prototype stays pristine: cloning must not warm its arrays or
    # touch its stats.
    assert proto.stats.snapshot()["accesses"] == 0
    assert proto.l1.small.occupancy == 0


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_clone_identical_after_mid_run_mapping_update(vmas, scheme_name):
    """An external mapping mutation mid-run must leave clone and fresh
    in lockstep: the clone's first post-mutation sync rebinds its own
    derived views without corrupting the prototype's."""
    mapping = build_mapping(vmas, "medium", seed=29)
    proto = make_scheme(scheme_name, mapping)
    fresh = make_scheme(scheme_name, mapping)
    clone = proto.clone_fresh()
    vpns = sample_vpns(mapping, count=2000, seed=11)
    drive(clone, vpns)
    drive(fresh, vpns)

    victim = int(vpns[0])
    mapping.unmap_page(victim)
    survivors = np.asarray(
        [int(v) for v in vpns.tolist() if v != victim], dtype=np.int64)
    assert drive(clone, survivors) == drive(fresh, survivors)
    assert clone.stats.snapshot() == fresh.stats.snapshot()
    # Restore for the module-scoped mapping consumers (build_mapping is
    # per-test here, but keep the mapping self-consistent regardless).
    assert victim not in dict(mapping.items())


def test_second_clone_unaffected_by_first_clones_traffic(vmas):
    mapping = build_mapping(vmas, "medium", seed=23)
    proto = make_scheme("anchor-dyn", mapping)
    first = proto.clone_fresh()
    vpns = sample_vpns(mapping, count=2000, seed=13)
    drive(first, vpns)
    second = proto.clone_fresh()
    fresh = make_scheme("anchor-dyn", mapping)
    assert drive(second, vpns) == drive(fresh, vpns)
    assert second.stats.snapshot() == fresh.stats.snapshot()


def counters(scheme) -> dict[str, int]:
    """The scheme's own integer counters (prefetch tallies and the like)."""
    return {name: value for name, value in vars(scheme).items()
            if type(value) is int}


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_clone_of_warmed_prototype_starts_fresh(vmas, scheme_name):
    """Cloning a scheme that has already run still yields fresh state:
    ``_reset_clone`` must recreate every per-tenant value the access
    paths touch — not just the declared hardware and the stats — so the
    clone's latencies, stats and own counters match a fresh scheme's."""
    mapping = build_mapping(vmas, "medium", seed=23)
    proto = make_scheme(scheme_name, mapping)
    drive(proto, sample_vpns(mapping, count=2000, seed=13))
    clone = proto.clone_fresh()
    fresh = make_scheme(scheme_name, mapping)
    vpns = sample_vpns(mapping, count=2000, seed=17)
    assert drive(clone, vpns) == drive(fresh, vpns)
    assert clone.stats.snapshot() == fresh.stats.snapshot()
    assert counters(clone) == counters(fresh)


def test_anchor_clone_incremental_unmap_does_not_leak(vmas):
    """AnchorScheme's ``unmap_page`` mutates the directory *in place*
    (``note_unmap``); a clone must privatise the shared directory first
    (copy-on-write) so the prototype's plan survives intact."""
    mapping = build_mapping(vmas, "medium", seed=23)
    proto = make_scheme("anchor-dyn", mapping)
    clone = proto.clone_fresh()
    assert clone.directory is proto.directory  # shared until mutated
    victim = next(iter(clone.directory.small))
    clone.unmap_page(victim)
    assert clone.directory is not proto.directory
    assert victim not in clone.directory.small
    # The prototype's in-memory plan is untouched by the clone's
    # incremental maintenance (it will resync from the mapping version
    # bump through its own _on_mapping_update, never through aliasing).
    assert victim in proto.directory.small


def test_prototype_incremental_unmap_does_not_leak_into_clone(vmas):
    """Copy-on-write cuts both ways: once a clone exists, the
    *prototype's* own in-place mutators must privatise too."""
    mapping = build_mapping(vmas, "medium", seed=23)
    proto = make_scheme("anchor-dyn", mapping)
    clone = proto.clone_fresh()
    victim = next(iter(proto.directory.small))
    proto.unmap_page(victim)
    assert proto.directory is not clone.directory
    assert victim in clone.directory.small


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_clone_hardware_and_stats_are_private(vmas, scheme_name):
    mapping = build_mapping(vmas, "medium", seed=23)
    proto = make_scheme(scheme_name, mapping)
    clone = proto.clone_fresh()
    assert clone.stats is not proto.stats
    assert clone.l1 is not proto.l1
    for attr in ("l2", "l2_giga", "regular", "clustered", "range_tlb",
                 "predictor", "shootdowns", "pwc"):
        mine = getattr(clone, attr, None)
        theirs = getattr(proto, attr, None)
        if mine is not None:
            assert mine is not theirs, (scheme_name, attr)


#: Mapping-derived builders a clone must share, never re-run, as the
#: scheme modules bind them (``from ... import name``).
MODULE_BUILDERS = ("promote_huge_pages", "promote_giga_pages", "RangeTable",
                   "SortedMembership", "sorted_arrays", "partition_regions")

SCHEME_MODULES = [
    importlib.import_module(f"repro.schemes.{info.name}")
    for info in pkgutil.iter_modules(repro.schemes.__path__)
]


def count_builder_calls(monkeypatch) -> Counter:
    """Wrap every mapping-derived builder with a call counter."""
    calls: Counter = Counter()

    def counted(label, original):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)
        return wrapper

    for module in SCHEME_MODULES:
        for name in MODULE_BUILDERS:
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(AnchorDirectory, "build", classmethod(
        counted("AnchorDirectory.build", AnchorDirectory.build.__func__)))
    monkeypatch.setattr(MemoryMapping, "frozen",
                        counted("MemoryMapping.frozen", MemoryMapping.frozen))
    return calls


@pytest.mark.parametrize("pwc", [False, True], ids=["pwc-off", "pwc-on"])
@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_second_clone_rebuilds_nothing(vmas, monkeypatch, scheme_name, pwc):
    """The first ``clone_fresh()`` may force the prototype's lazy views
    (``_prepare_share``); after that, ``_reset_clone`` and the rest of
    cloning recreate hardware only — no promotion pass, directory,
    range table, sorted-array view, region partition or frozen view."""
    machine = PWC_MACHINE if pwc else DEFAULT_MACHINE
    mapping = build_mapping(vmas, "medium", seed=31)
    proto = make_scheme(scheme_name, mapping, machine)
    proto.clone_fresh()
    calls = count_builder_calls(monkeypatch)
    proto.clone_fresh()
    assert calls == Counter(), f"{scheme_name}: clone rebuilt {dict(calls)}"
    # The counters sit where the schemes look the builders up: building
    # the scheme afresh goes through at least one of them.
    make_scheme(scheme_name, mapping, machine)
    assert calls, f"{scheme_name}: no builder wrapper was reached"
