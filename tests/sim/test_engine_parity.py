"""Golden parity: the batched engine must be bit-identical to scalar.

Every registered scheme is driven over the same trace by both engines;
counters must match exactly, and for the schemes with optimised
``access_block`` overrides the final hardware state (every set's entries
in LRU order) must match too — the batched path is a faster evaluation
of the same machine, not an approximation.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.tlb import SetAssociativeTLB
from repro.params import DEFAULT_MACHINE
from repro.schemes.base import TranslationScheme
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim.engine import DEFAULT_EPOCH_REFERENCES, SimulationResult, run_trace
from repro.sim.trace import Trace
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import AllocationSite, layout_vmas

#: schemes with a vectorised access_block (state must also match).
#: Since the universal-engine work this is every registered scheme.
OPTIMIZED = set(scheme_names(include_extras=True))

SCENARIOS = ("demand", "eager", "low")


def parity_vmas():
    return layout_vmas([
        AllocationSite(1024, 1),
        AllocationSite(64, 4),
        AllocationSite(8, 8),
    ])


def mapped_trace(mapping, references, seed):
    """A trace over mapped pages only (no faults — both engines finish)."""
    rng = np.random.default_rng(seed)
    vpns = np.fromiter((vpn for vpn, _ in mapping.items()), dtype=np.int64)
    picks = vpns[rng.integers(0, vpns.size, size=references)]
    return Trace(picks, references * 3, "parity")


def l2_state(scheme):
    l2 = getattr(scheme, "l2", None)
    if l2 is None:
        return None
    array = getattr(l2, "array", l2)
    return array.state() if hasattr(array, "state") else None


def hw_state(scheme):
    """Every piece of stateful hardware a scheme owns, LRU order and all."""
    state = {"l1": scheme.l1.state(), "l2": l2_state(scheme)}
    if hasattr(scheme, "regular"):
        state["regular"] = scheme.regular.state()
    if hasattr(scheme, "clustered"):
        state["clustered"] = scheme.clustered.array.state()
    if hasattr(scheme, "range_tlb"):
        state["range_tlb"] = list(scheme.range_tlb._entries.items())
    if hasattr(scheme, "_prefetched"):
        state["prefetched"] = sorted(scheme._prefetched)
        state["prefetch"] = (scheme.prefetches_issued, scheme.prefetch_hits)
    if scheme.pwc is not None:
        state["pwc"] = scheme.pwc.state()
        state["pwc_counters"] = (scheme.pwc.hits, scheme.pwc.probes)
    return state


@contextlib.contextmanager
def counted_lookups():
    """Count ``SetAssociativeTLB.lookup`` calls per array, by ``id``."""
    calls: dict[int, int] = {}
    original = SetAssociativeTLB.lookup

    def lookup(self, index, key):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return original(self, index, key)

    SetAssociativeTLB.lookup = lookup
    try:
        yield calls
    finally:
        SetAssociativeTLB.lookup = original


def tagged_outputs(build, tiny_machine):
    """Counters, epoch stats and hardware state of ``build(mapping,
    machine)`` run under ASID 5 by each engine, keyed by engine, plus
    the number of ``lookup`` calls the batched run made on the L2.

    The ``medium`` mapping leaves small pages un-anchored, so L2 misses
    give resident anchors weak touches and the anchor schemes' exact
    replay runs (a fully anchored input never reaches it)."""
    machine = dataclasses.replace(tiny_machine, pwc=True)
    mapping = build_mapping(parity_vmas(), "medium", seed=61)
    trace = mapped_trace(mapping, 6000, seed=67)
    outputs = {}
    for engine in ("scalar", "batched"):
        scheme = build(mapping, machine)
        scheme.set_asid(5)
        with counted_lookups() as calls:
            result = run_trace(scheme, trace, epoch_references=2500,
                              engine=engine)
        outputs[engine] = (
            scheme.stats.snapshot(), result.epoch_stats, hw_state(scheme))
    l2 = getattr(scheme, "l2", None)
    replayed = calls.get(id(getattr(l2, "array", l2)), 0)
    return outputs, replayed


def run_engine(scheme_name, mapping, trace, machine, engine, epoch):
    scheme = make_scheme(scheme_name, mapping, machine)
    result = run_trace(scheme, trace, epoch_references=epoch, engine=engine)
    return scheme, result


class TestGoldenParity:
    @pytest.mark.parametrize("scheme_name", scheme_names(include_extras=True))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scalar_batched_identical(self, scheme_name, scenario, tiny_machine):
        mapping = build_mapping(parity_vmas(), scenario, seed=13)
        trace = mapped_trace(mapping, 6000, seed=17)
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme, result = run_engine(
                scheme_name, mapping, trace, tiny_machine, engine, epoch=2500)
            outputs[engine] = (
                scheme.stats.snapshot(),
                result.epoch_stats,
                hw_state(scheme),
            )
        assert outputs["batched"] == outputs["scalar"]

    @pytest.mark.parametrize("scheme_name", sorted(OPTIMIZED))
    def test_full_machine_parity(self, scheme_name):
        mapping = build_mapping(parity_vmas(), "demand", seed=5)
        trace = mapped_trace(mapping, 20_000, seed=23)
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme, result = run_engine(
                scheme_name, mapping, trace, DEFAULT_MACHINE, engine,
                epoch=8000)
            outputs[engine] = (
                scheme.stats.snapshot(), result.epoch_stats,
                hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]

    @pytest.mark.parametrize("scheme_name", sorted(OPTIMIZED))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_pwc_parity(self, scheme_name, scenario, tiny_machine):
        """With page-walk caches on, the batched PWC model must match the
        scalar one access for access — counters and per-level LRU state."""
        machine = dataclasses.replace(tiny_machine, pwc=True)
        mapping = build_mapping(parity_vmas(), scenario, seed=29)
        trace = mapped_trace(mapping, 6000, seed=31)
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme, result = run_engine(
                scheme_name, mapping, trace, machine, engine, epoch=2500)
            assert scheme.pwc is not None
            outputs[engine] = (
                scheme.stats.snapshot(), result.epoch_stats, hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]
        # PWC runs charge per-step walk cycles, so the walks must have
        # recorded their page-table accesses.
        if outputs["batched"][0]["walks"]:
            assert outputs["batched"][0]["walk_pt_accesses"] > 0

    @pytest.mark.parametrize("scheme_name", sorted(OPTIMIZED))
    def test_no_scalar_fallback_with_pwc(self, scheme_name, tiny_machine,
                                         monkeypatch):
        """Fault-free blocks must stay on the fast path even with the PWC
        enabled — no scheme may silently fall back to the scalar loop."""
        calls = []

        def spy(self, vpns):
            calls.append(self.name)
            for vpn in vpns.tolist():
                self.access(int(vpn))

        monkeypatch.setattr(TranslationScheme, "access_block", spy)
        machine = dataclasses.replace(tiny_machine, pwc=True)
        mapping = build_mapping(parity_vmas(), "demand", seed=37)
        trace = mapped_trace(mapping, 4000, seed=41)
        scheme = make_scheme(scheme_name, mapping, machine)
        run_trace(scheme, trace, epoch_references=1000, engine="batched")
        assert calls == []

    @pytest.mark.parametrize("scheme_name", sorted(OPTIMIZED))
    def test_fault_mid_block_parity(self, scheme_name, tiny_machine):
        """An unmapped page mid-block: both engines must raise the page
        fault at the same reference with identical stats and state."""
        from repro.errors import PageFaultError

        mapping = build_mapping(parity_vmas(), "demand", seed=43)
        vpns = np.fromiter((vpn for vpn, _ in mapping.items()), dtype=np.int64)
        unmapped = int(vpns.max()) + 100_000
        rng = np.random.default_rng(47)
        picks = vpns[rng.integers(0, vpns.size, size=900)]
        picks[700] = unmapped  # fault mid-way through an epoch block
        trace = Trace(picks, 2700, "faulty")
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme = make_scheme(scheme_name, mapping, tiny_machine)
            with pytest.raises(PageFaultError):
                run_trace(scheme, trace, epoch_references=400, engine=engine)
            outputs[engine] = (scheme.stats.snapshot(), hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]

    @settings(max_examples=12, deadline=None)
    @given(
        epoch=st.integers(min_value=1, max_value=6001),
        scheme_name=st.sampled_from(sorted(OPTIMIZED)),
    )
    def test_arbitrary_epoch_boundaries(self, epoch, scheme_name):
        """Chunking must be invisible: any epoch size — from one
        reference per block to the whole trace in one block — produces
        the same final counters and hardware state as the scalar run."""
        from repro.params import MachineConfig, TLBGeometry

        tiny_machine = MachineConfig(
            l1_4k=TLBGeometry(8, 2),
            l1_2m=TLBGeometry(4, 2),
            l2=TLBGeometry(32, 4),
        )
        mapping = build_mapping(parity_vmas(), "demand", seed=53)
        trace = mapped_trace(mapping, 3000, seed=59)
        outputs = {}
        for engine, e in (("scalar", 3000), ("batched", epoch)):
            scheme, _ = run_engine(
                scheme_name, mapping, trace, tiny_machine, engine, epoch=e)
            outputs[engine] = (scheme.stats.snapshot(), hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]

    @pytest.mark.parametrize("scheme_name", sorted(OPTIMIZED))
    def test_tagged_parity(self, scheme_name, tiny_machine):
        """Every scheme under a nonzero ASID: the batched engine must
        pack the tag into every structure exactly as the scalar path
        does — counters and per-set (tagged) LRU state match."""
        outputs, replayed = tagged_outputs(
            lambda mapping, machine: make_scheme(scheme_name, mapping, machine),
            tiny_machine)
        assert outputs["batched"] == outputs["scalar"]
        if scheme_name in ("anchor-dyn", "anchor-region"):
            # The anchor schemes touch the L2 outside the kernel only
            # in their exact replay; the input must reach it.
            assert replayed > 0

    def test_tagged_parity_catches_an_untagged_key(self, tiny_machine):
        """A block path that fills the L2 under a raw key, ignoring the
        ASID, diverges from the scalar path under tagged parity."""
        from repro.schemes.baseline import BaselineScheme

        class RawKeyScheme(BaselineScheme):
            def access_block(self, vpns):
                for vpn in vpns.tolist():
                    self.access(vpn)
                    self._fill_raw(vpn)

            def _fill_raw(self, vpn):
                self.l2._sets[vpn & self.l2.index_mask][vpn] = self._small[vpn]

        outputs, _ = tagged_outputs(RawKeyScheme, tiny_machine)
        assert outputs["batched"] != outputs["scalar"]

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scheme_name=st.sampled_from(sorted(OPTIMIZED)),
    )
    def test_property_random_traces(self, seed, scheme_name):
        # Small page universe + tiny machine: evictions, residual LRU
        # walks and anchor refills all trigger within a short trace.
        from repro.params import MachineConfig, TLBGeometry

        tiny_machine = MachineConfig(
            l1_4k=TLBGeometry(8, 2),
            l1_2m=TLBGeometry(4, 2),
            l2=TLBGeometry(32, 4),
        )
        mapping = build_mapping(parity_vmas(), "medium", seed=3)
        vpns = np.fromiter(
            (vpn for vpn, _ in mapping.items()), dtype=np.int64)
        rng = np.random.default_rng(seed)
        hot = vpns[: max(8, vpns.size // 64)]
        picks = np.where(
            rng.random(3000) < 0.5,
            hot[rng.integers(0, hot.size, size=3000)],
            vpns[rng.integers(0, vpns.size, size=3000)],
        )
        trace = Trace(picks, 9000, "prop")
        outputs = {}
        for engine in ("scalar", "batched"):
            scheme, _ = run_engine(
                scheme_name, mapping, trace, tiny_machine, engine, epoch=1000)
            outputs[engine] = (scheme.stats.snapshot(), hw_state(scheme))
        assert outputs["batched"] == outputs["scalar"]


class TestEngineAPI:
    def test_unknown_engine_rejected(self, contiguous_mapping, make_trace):
        scheme = make_scheme("base", contiguous_mapping, DEFAULT_MACHINE)
        with pytest.raises(ValueError):
            run_trace(scheme, make_trace([0x1000]), engine="vectorised")

    def test_epoch_stats_snapshots(self, contiguous_mapping, make_trace):
        scheme = make_scheme("base", contiguous_mapping, DEFAULT_MACHINE)
        trace = make_trace([0x1000 + (i % 256) for i in range(900)])
        result = run_trace(scheme, trace, epoch_references=300)
        assert len(result.epoch_stats) == 3
        assert result.epoch_stats[-1] == scheme.stats.snapshot()
        assert [s["accesses"] for s in result.epoch_stats] == [300, 600, 900]

    def test_default_epoch_size(self):
        assert DEFAULT_EPOCH_REFERENCES == 50_000

    def test_result_round_trip(self, contiguous_mapping, make_trace):
        scheme = make_scheme("base", contiguous_mapping, DEFAULT_MACHINE)
        result = run_trace(
            scheme, make_trace([0x1000, 0x1001] * 50), epoch_references=40)
        payload = result.to_dict()
        rebuilt = SimulationResult.from_dict(payload)
        assert rebuilt.to_dict() == payload
        assert rebuilt.stats.snapshot() == scheme.stats.snapshot()
        assert rebuilt.epoch_stats == result.epoch_stats

    def test_stats_round_trip(self, contiguous_mapping, make_trace):
        scheme = make_scheme("base", contiguous_mapping, DEFAULT_MACHINE)
        run_trace(scheme, make_trace([0x1000 + i for i in range(80)]))
        payload = scheme.stats.to_dict()
        from repro.sim.stats import TranslationStats

        rebuilt = TranslationStats.from_dict(payload)
        assert rebuilt.snapshot() == scheme.stats.snapshot()
        assert rebuilt.latency.l2_hit == scheme.stats.latency.l2_hit
