"""Bench: a 10M-reference run stays O(chunk) in memory when streamed.

Non-gating (``testpaths`` excludes ``benchmarks/``); run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/test_streaming_rss.py -m engine_bench

Each measurement runs in a fresh subprocess so ``ru_maxrss`` (a
process-lifetime high-water mark) reflects only that path.  The eager
path materializes the 10M-reference int64 array (~80 MiB) before
simulating; the streaming path pulls the same stream through the engine
one epoch at a time and must peak well below it.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.engine_bench

REFERENCES = 10_000_000
TRACE_BYTES = REFERENCES * 8

DRIVER = """
import sys
from repro.params import DEFAULT_MACHINE
from repro.schemes.registry import make_scheme
from repro.sim.engine import run_trace
from repro.sim.workloads import get_workload
from repro.util.proc import peak_rss_bytes
from repro.vmos.scenarios import build_mapping

mode, references = sys.argv[1], int(sys.argv[2])
workload = get_workload("gups")
mapping = build_mapping(workload.vmas(), "demand", seed=7)
if mode == "eager":
    trace = workload.make_trace(references, seed=11)
else:
    trace = workload.trace_source(references, seed=11)
scheme = make_scheme("base", mapping, DEFAULT_MACHINE)
result = run_trace(scheme, trace, epoch_references=65536)
assert result.stats.accesses == references
print(peak_rss_bytes())
"""


def measure(mode: str, references: int = REFERENCES) -> int:
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", DRIVER, mode, str(references)],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    return int(out.stdout.strip().splitlines()[-1])


def test_streaming_rss_bounded_by_chunk():
    streaming = measure("streaming")
    eager = measure("eager")
    print(f"\npeak rss: streaming {streaming / 2**20:.1f} MiB, "
          f"eager {eager / 2**20:.1f} MiB "
          f"(trace alone is {TRACE_BYTES / 2**20:.0f} MiB)")
    # The eager path must hold the whole array; the streaming path must
    # save at least half of it (the rest of both processes is identical:
    # interpreter, numpy, mapping, scheme).
    assert eager - streaming > TRACE_BYTES // 2
    # And streaming must not secretly materialize the trace anywhere.
    assert streaming < eager - TRACE_BYTES // 2
