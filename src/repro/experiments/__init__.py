"""Experiment drivers: one module per paper figure/table, plus ablations.

Each driver exposes ``run(...)`` returning a report object with
``rows()`` (structured data) and ``render()`` (the text table printed by
the benchmark harness).  ``repro.experiments.cli`` provides the
``anchor-tlb`` command-line front end.
"""

from repro.experiments.common import ExperimentConfig, MatrixRunner
from repro.sim.api import SimRequest
from repro.sim.runner import Orchestrator, ResultStore, RunSummary

__all__ = [
    "ExperimentConfig",
    "MatrixRunner",
    "SimRequest",
    "Orchestrator",
    "ResultStore",
    "RunSummary",
]
