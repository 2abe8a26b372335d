"""Golden-stats regression corpus (DESIGN.md §6.1, ISSUE 7).

Every registered scheme is run over small fixed-seed workload traces —
with and without the page-walk caches — and the resulting
``TranslationStats`` snapshot is compared bit-for-bit against a
checked-in JSON file under ``tests/golden/``.  Any counter drift
(an extra walk, one fewer coalesced hit, a changed pt-access count)
fails with the exact cells and keys that moved.

The corpus is the repo's long-term memory of engine behaviour: the
hypothesis differential suites prove scalar==batched *today*, while
this corpus proves today==the day the numbers were frozen.  To update
the corpus after a deliberate behaviour change:

    PYTHONPATH=src python -m pytest tests/golden --refresh-golden

then review the JSON diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.params import SCENARIO_ORDER, MachineConfig, TLBGeometry
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim.engine import run_trace
from repro.sim.workloads import get_workload
from repro.vmos.scenarios import build_mapping

GOLDEN_DIR = Path(__file__).resolve().parent

#: Fixed-seed corpus shape.  Three workloads span the interesting
#: allocation regimes: omnetpp (thousands of small heap chunks),
#: sphinx3 (mixed small regions), gups (one giant array, uniform
#: random — the TLB-hostile worst case); each runs on all six Table-4
#: fragmentation scenarios.
WORKLOADS = ("omnetpp", "sphinx3", "gups")
MAPPING_SEED = 101
TRACE_SEED = 202
REFERENCES = 4_000
EPOCH = 1_500  # forces multi-epoch runs so chunking is in the loop

#: Shrunken machine so the short traces still trigger evictions on
#: every structure (same geometry the parity suites use).
TINY = MachineConfig(
    l1_4k=TLBGeometry(8, 2),
    l1_2m=TLBGeometry(4, 2),
    l2=TLBGeometry(32, 4),
)

ALL_SCHEMES = scheme_names(include_extras=True)


def golden_path(scheme_name: str) -> Path:
    return GOLDEN_DIR / f"stats_{scheme_name}.json"


def cell_key(scenario: str, workload: str, pwc: bool) -> str:
    return f"{scenario}/{workload}/pwc={'on' if pwc else 'off'}"


@pytest.fixture(scope="module")
def corpus_inputs():
    """Mappings and traces, built once per run (deterministic seeds)."""
    inputs = {}
    for name in WORKLOADS:
        workload = get_workload(name)
        trace = workload.make_trace(REFERENCES, seed=TRACE_SEED)
        for scenario in SCENARIO_ORDER:
            mapping = build_mapping(
                workload.vmas(), scenario, seed=MAPPING_SEED)
            inputs[scenario, name] = (mapping, trace)
    return inputs


def compute_cells(scheme_name: str, corpus_inputs) -> dict[str, dict]:
    cells: dict[str, dict] = {}
    for (scenario, workload), (mapping, trace) in corpus_inputs.items():
        for pwc in (False, True):
            machine = dataclasses.replace(TINY, pwc=True) if pwc else TINY
            scheme = make_scheme(scheme_name, mapping, machine)
            run_trace(scheme, trace, epoch_references=EPOCH)
            cells[cell_key(scenario, workload, pwc)] = scheme.stats.snapshot()
    return cells


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_golden_stats(scheme_name, corpus_inputs, refresh_golden):
    path = golden_path(scheme_name)
    cells = compute_cells(scheme_name, corpus_inputs)
    payload = {
        "meta": {
            "scenarios": list(SCENARIO_ORDER),
            "workloads": list(WORKLOADS),
            "mapping_seed": MAPPING_SEED,
            "trace_seed": TRACE_SEED,
            "references": REFERENCES,
            "epoch_references": EPOCH,
            "machine": "tiny(l1=8x2, l1_2m=4x2, l2=32x4)",
        },
        "cells": cells,
    }
    if refresh_golden:
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"no golden corpus for {scheme_name!r}; generate it with "
        f"--refresh-golden and check in {path.name}")
    golden = json.loads(path.read_text())
    assert golden["meta"] == payload["meta"], (
        "corpus parameters changed — regenerate with --refresh-golden")
    drift = []
    for key in sorted(set(golden["cells"]) | set(cells)):
        want = golden["cells"].get(key)
        got = cells.get(key)
        if want == got:
            continue
        moved = sorted(
            k for k in set(want or {}) | set(got or {})
            if (want or {}).get(k) != (got or {}).get(k))
        drift.append(f"{key}: {moved} "
                     f"(golden {[ (want or {}).get(k) for k in moved ]} "
                     f"!= got {[ (got or {}).get(k) for k in moved ]})")
    assert not drift, (
        f"{scheme_name}: golden stats drifted in {len(drift)} cell(s):\n  "
        + "\n  ".join(drift)
        + "\nIf the change is deliberate, rerun with --refresh-golden "
          "and review the JSON diff.")


def test_corpus_complete():
    """Every registered scheme has a checked-in corpus file (and no
    stale files for deregistered schemes linger)."""
    expected = {golden_path(name).name for name in ALL_SCHEMES}
    present = {p.name for p in GOLDEN_DIR.glob("stats_*.json")}
    assert present == expected, (
        f"missing: {sorted(expected - present)}; "
        f"stale: {sorted(present - expected)}")
