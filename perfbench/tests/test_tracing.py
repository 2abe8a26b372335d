"""Span arithmetic and the wrappers' effect on outputs."""

from __future__ import annotations

import math

import pytest

import workloads
from repro.sim import lru
from repro.schemes import baseline
from tracing import Instrumentation, LayerTotals, Tracer, self_times


def span(name, start, end, parent=-1, n=0, nested=False, run="it"):
    return [name, start, end, parent, run, n, nested]


def test_self_time_subtracts_nested_children():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0),
             span("c", 2.0, 3.0, 1), span("b", 6.0, 7.0, 0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # Two children overlap on [3, 5]: the parent loses 1..7, not 2+4.
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0),
             span("c", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span("a", 0.0, 2.0), span("b", 1.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_busy_counts_outermost_spans_of_a_name_once():
    spans = [span("access_block", 0.0, 4.0, n=10),
             span("access_block", 1.0, 3.0, 0, n=10, nested=True),
             span("lru_kernel", 1.5, 2.5, 1, n=7)]
    totals = LayerTotals(spans, lambda s: True)
    assert totals.calls == {"access_block": 1, "lru_kernel": 1}
    assert totals.busy["access_block"] == pytest.approx(4.0)
    assert totals.work["access_block"] == 10
    # Self time still splits the nested chain: 2 + 1 outside the kernel.
    assert totals.self_s["access_block"] == pytest.approx(3.0)
    assert totals.child_calls == {("access_block", "lru_kernel"): 1}


def test_tracer_records_parents_and_nesting():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("outer"):
            pass
    (outer, inner) = tracer.spans
    assert outer[3] == -1 and inner[3] == 0
    assert not outer[6] and inner[6]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_instrumentation_patches_every_binding_and_restores_it():
    original = lru.simulate_block
    assert baseline.simulate_block is original
    tracer = Tracer()
    with Instrumentation(tracer):
        assert lru.simulate_block is not original
        assert baseline.simulate_block is lru.simulate_block
    assert lru.simulate_block is original
    assert baseline.simulate_block is original


def test_wrappers_leave_outputs_unchanged(tmp_path):
    wl = workloads.ChurnPwc(seed=2, size="tiny", workdir=tmp_path)
    wl.setup()
    plain = wl.collect(wl.run(0.0, lambda: None))
    tracer = Tracer()
    with Instrumentation(tracer):
        traced_raw = wl.run(0.0, lambda: None)
    traced = wl.collect(traced_raw)
    assert traced.digests == plain.digests
    names = {s[0] for s in tracer.spans}
    assert {"run_trace", "access_block", "lru_kernel", "pwc", "sync",
            "anchor_dir.incremental", "mapping_build"} <= names
    assert not math.isnan(sum(self_times(tracer.spans)))
