"""Shared fixtures: small deterministic mappings, traces, and RNGs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.physmem import PhysicalMemory
from repro.params import MachineConfig, TLBGeometry
from repro.sim.trace import Trace
from repro.util.rng import make_rng
from repro.vmos.mapping import MemoryMapping
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import VMA, AllocationSite, layout_vmas


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--refresh-golden", action="store_true", default=False,
        help="regenerate the checked-in golden stats corpus under "
             "tests/golden/ instead of comparing against it",
    )


@pytest.fixture(scope="session")
def refresh_golden(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--refresh-golden"))


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(7)


@pytest.fixture
def small_vmas() -> list[VMA]:
    """A compact layout: one big region, several small ones."""
    return layout_vmas([
        AllocationSite(1024, 1),
        AllocationSite(64, 4),
        AllocationSite(8, 8),
    ])


@pytest.fixture
def medium_mapping(small_vmas) -> MemoryMapping:
    return build_mapping(small_vmas, "medium", seed=11)


@pytest.fixture
def max_mapping(small_vmas) -> MemoryMapping:
    return build_mapping(small_vmas, "max", seed=11)


@pytest.fixture
def demand_mapping(small_vmas) -> MemoryMapping:
    return build_mapping(small_vmas, "demand", seed=11)


@pytest.fixture
def contiguous_mapping() -> MemoryMapping:
    """A trivially fully contiguous mapping: vpn -> vpn + 0x100."""
    mapping = MemoryMapping(vmas=[VMA(0x1000, 256)])
    for i in range(256):
        mapping.map_page(0x1000 + i, 0x1100 + i)
    return mapping


@pytest.fixture
def fragmented_mapping(rng) -> MemoryMapping:
    """Every page mapped to a scattered frame: no contiguity at all."""
    mapping = MemoryMapping(vmas=[VMA(0x2000, 128)])
    frames = rng.permutation(4096)[:128] + 8192
    # Reject accidental adjacency by spacing odd/even frames.
    for i, pfn in enumerate(sorted(int(f) for f in frames)):
        mapping.map_page(0x2000 + i, pfn * 2)
    return mapping


@pytest.fixture
def tiny_machine() -> MachineConfig:
    """A shrunken machine so capacity effects appear with short traces."""
    return MachineConfig(
        l1_4k=TLBGeometry(8, 2),
        l1_2m=TLBGeometry(4, 2),
        l2=TLBGeometry(32, 4),
    )


@pytest.fixture
def small_memory() -> PhysicalMemory:
    return PhysicalMemory(total_frames=1 << 14, profile="pristine", seed=3)


def trace_of(vpns: list[int], instructions: int | None = None, name: str = "t") -> Trace:
    """Helper to build ad-hoc traces in tests."""
    array = np.asarray(vpns, dtype=np.int64)
    return Trace(array, instructions or max(1, len(vpns) * 3), name)


@pytest.fixture
def make_trace():
    return trace_of
