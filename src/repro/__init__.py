"""Reproduction of *Hybrid TLB Coalescing* (Park et al., ISCA 2017).

The package implements anchor-based HW-SW hybrid TLB coalescing together
with every substrate the paper's evaluation relies on: a buddy physical
allocator with controlled fragmentation, demand/eager paging and the
four synthetic mapping scenarios, an anchored x86-64 page table, the
competing translation schemes (4 KiB baseline, THP, cluster TLB,
cluster-2MB, CoLT, RMM), the dynamic anchor-distance selection algorithm,
and a trace-driven TLB/CPI simulator with per-application workload
models.

Quick start::

    from repro import quick_compare

    rows = quick_compare("gups", scenario="medium", references=50_000)
    for name, relative in rows:
        print(f"{name:12s} {relative:6.1f}% of baseline TLB misses")

See ``examples/`` and ``benchmarks/`` for the full experiment matrix.
"""

from __future__ import annotations

from repro.params import DEFAULT_MACHINE, MachineConfig
from repro.schemes import make_scheme, scheme_names
from repro.sim.engine import SimulationResult, run_trace
from repro.sim.workloads import WORKLOADS, get_workload, workload_names
from repro.system import System
from repro.vmos.scenarios import build_mapping

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_MACHINE",
    "MachineConfig",
    "make_scheme",
    "scheme_names",
    "SimulationResult",
    "run_trace",
    "WORKLOADS",
    "get_workload",
    "workload_names",
    "build_mapping",
    "System",
    "quick_compare",
    "__version__",
]


def quick_compare(
    workload: str,
    scenario: str = "medium",
    references: int = 50_000,
    seed: int | None = None,
    schemes: tuple[str, ...] | None = None,
) -> list[tuple[str, float]]:
    """Compare schemes on one workload/scenario; returns (name, rel%) rows.

    Relative numbers are L2 TLB misses as a percentage of the 4 KiB
    baseline, the paper's headline metric.
    """
    app = get_workload(workload)
    mapping = build_mapping(app.vmas(), scenario, seed=seed)
    trace = app.make_trace(references, seed=seed)
    names = schemes or scheme_names()
    baseline = None
    rows: list[tuple[str, float]] = []
    for name in names:
        result = run_trace(make_scheme(name, mapping), trace)
        if name == "base":
            baseline = result
        relative = result.relative_misses(baseline) if baseline else 100.0
        rows.append((name, relative))
    return rows
