"""End-to-end integration: the public API path a user would take."""

import pytest

from repro import (
    build_mapping,
    get_workload,
    make_scheme,
    quick_compare,
    run_trace,
    scheme_names,
)


class TestQuickCompare:
    def test_returns_all_schemes(self):
        rows = quick_compare("sphinx3", "medium", references=2000, seed=1)
        assert [name for name, _ in rows] == list(scheme_names())
        values = dict(rows)
        assert values["base"] == pytest.approx(100.0)

    def test_anchor_wins_on_medium_sphinx(self):
        rows = dict(quick_compare("sphinx3", "medium", references=4000, seed=1))
        assert rows["anchor-dyn"] < min(
            rows[n] for n in ("thp", "cluster", "cluster2mb", "rmm")
        )

    def test_custom_scheme_subset(self):
        rows = quick_compare(
            "omnetpp", "low", references=1500, seed=2,
            schemes=("base", "anchor-dyn"),
        )
        assert len(rows) == 2


class TestManualPipeline:
    def test_workload_to_result(self):
        app = get_workload("milc")
        mapping = build_mapping(app.vmas(), "high", seed=9)
        trace = app.make_trace(3000, seed=9)
        result = run_trace(make_scheme("anchor-dyn", mapping), trace)
        assert result.stats.accesses == 3000
        assert result.anchor_distance is not None
        result.stats.check_conservation()

    def test_same_trace_all_schemes_conserved(self):
        app = get_workload("omnetpp")
        mapping = build_mapping(app.vmas(), "demand", seed=4)
        trace = app.make_trace(2500, seed=4)
        for name in scheme_names(include_extras=True):
            result = run_trace(make_scheme(name, mapping), trace)
            result.stats.check_conservation()
            assert result.stats.accesses == 2500
