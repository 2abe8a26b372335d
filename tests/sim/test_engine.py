"""Tests for the epoch-driven simulation engine."""

import numpy as np
import pytest

from repro.mem.frames import FrameRange
from repro.schemes.anchor_scheme import AnchorScheme
from repro.schemes.baseline import BaselineScheme
from repro.sim.engine import SimulationResult, run_trace
from repro.sim.trace import Trace
from repro.vmos.mapping import MemoryMapping


@pytest.fixture
def mapping():
    m = MemoryMapping()
    m.map_run(0, FrameRange(1000, 256))
    return m


def trace(length=1000, pages=256, seed=0, name="w"):
    rng = np.random.default_rng(seed)
    return Trace(rng.integers(0, pages, length), max(1, length * 3), name)


class TestSimulate:
    def test_result_fields(self, mapping):
        result = run_trace(BaselineScheme(mapping), trace(500))
        assert isinstance(result, SimulationResult)
        assert result.scheme == "base"
        assert result.workload == "w"
        assert result.stats.accesses == 500
        assert result.epochs == 1

    def test_epoch_splitting(self, mapping):
        result = run_trace(BaselineScheme(mapping), trace(1000),
                          epoch_references=250)
        assert result.epochs == 4
        assert result.stats.accesses == 1000

    def test_epoch_none_runs_whole_trace(self, mapping):
        result = run_trace(BaselineScheme(mapping), trace(100),
                          epoch_references=None)
        assert result.epochs == 1

    def test_epoch_validation(self, mapping):
        with pytest.raises(ValueError):
            run_trace(BaselineScheme(mapping), trace(10), epoch_references=-1)

    def test_anchor_reselect_called_at_epochs(self, mapping):
        scheme = AnchorScheme(mapping)
        result = run_trace(scheme, trace(1000), epoch_references=200)
        # Static mapping: the selection must be stable (paper §4.1).
        assert result.distance_changes == 0
        assert result.anchor_distance == scheme.distance

    def test_on_epoch_hook(self, mapping):
        seen = []
        run_trace(
            BaselineScheme(mapping),
            trace(1000),
            epoch_references=250,
            on_epoch=lambda epoch, scheme: seen.append(epoch),
        )
        assert seen == [1, 2, 3]  # not called after the final epoch

    def test_on_epoch_mapping_churn_triggers_distance_change(self):
        """Fragment the mapping mid-run: the dynamic scheme must adapt."""
        m = MemoryMapping()
        m.map_run(0, FrameRange(1 << 20, 4096))
        scheme = AnchorScheme(m)
        initial = scheme.distance

        def churn(epoch, s):
            if epoch != 2:
                return
            shattered = MemoryMapping()
            cursor = 1 << 22
            for vpn in range(4096):
                if vpn % 4 == 0:
                    cursor += 5
                shattered.map_page(vpn, cursor)
                cursor += 1
            s.rebuild(shattered)

        result = run_trace(scheme, trace(4000, pages=4096),
                          epoch_references=1000, on_epoch=churn)
        assert result.stats.accesses == 4000
        assert scheme.distance != initial
        assert scheme.shootdowns.distance_changes

    def test_relative_misses(self, mapping):
        base = run_trace(BaselineScheme(mapping), trace(500))
        anchor = run_trace(AnchorScheme(mapping, distance=64), trace(500))
        relative = anchor.relative_misses(base)
        assert 0 < relative < 100

    def test_relative_misses_zero_baseline(self, mapping):
        a = run_trace(BaselineScheme(mapping), trace(10))
        b = SimulationResult("x", "w", a.stats, 1)
        zero = SimulationResult("z", "w", type(a.stats)(), 1)
        assert b.relative_misses(zero) == float("inf")
        assert zero.relative_misses(zero) == 0.0

    def test_translation_cpi_property(self, mapping):
        result = run_trace(BaselineScheme(mapping), trace(500))
        assert result.translation_cpi > 0
        assert result.miss_ratio == result.stats.miss_ratio()
