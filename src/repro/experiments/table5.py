"""Table 5 — L2 TLB hit/miss breakdown for the anchor scheme.

For the demand and medium mappings, the share of L2-level accesses
(i.e. L1 misses) resolved by regular entries (R.hit — 4 KiB + 2 MiB),
anchor entries (A.hit), and page walks (L2 miss).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentConfig, MatrixRunner
from repro.experiments.report import Report
from repro.sim.workloads import WORKLOAD_ORDER

SCENARIOS = ("demand", "medium")


def run(
    config: ExperimentConfig | None = None,
    runner: MatrixRunner | None = None,
    workloads: tuple[str, ...] = WORKLOAD_ORDER,
) -> Report:
    runner = runner or MatrixRunner(config)
    report = Report(
        title="Table 5: anchor-scheme L2 breakdown (% of L2 accesses)",
        headers=[
            "workload",
            "demand R.hit", "demand A.hit", "demand miss",
            "medium R.hit", "medium A.hit", "medium miss",
        ],
    )
    runner.prefetch(workloads, SCENARIOS, ("anchor-dyn",))
    for workload in workloads:
        row: list[object] = [workload]
        for scenario in SCENARIOS:
            result = runner.maybe_run(workload, scenario, "anchor-dyn")
            if result is None:  # ledgered cell: render the gap
                row.extend([None, None, None])
                continue
            regular, anchor, miss = result.stats.l2_breakdown()
            row.extend([100 * regular, 100 * anchor, 100 * miss])
        report.table.append(row)
    report.notes.append(
        "paper example rows (demand R/A/miss): GemsFDTD 91/8/1, "
        "gups 27/20/53; (medium): milc 3/92/5, gups 11/1/88"
    )
    return report
