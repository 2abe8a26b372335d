#!/usr/bin/env python
"""Time the scalar engine against the batched engine on fixed seeds.

Runs gups (uniform random, the TLB-hostile worst case) through every
registered scheme under both engines — with and without the page-walk
caches — asserts the counter snapshots are bit-identical, and writes
``BENCH_engine.json`` next to the repo root:

    PYTHONPATH=src python benchmarks/run_bench.py [--references N]

The JSON records per-scheme wall-clock seconds, references/second and
the batched-over-scalar speedup, one entry per ``name`` (PWC off) and
``name+pwc`` (PWC on), plus the trace-generation time and the process's
peak RSS; EXPERIMENTS.md documents the methodology and the acceptance
thresholds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from pathlib import Path

from repro.params import DEFAULT_MACHINE
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim.engine import run_trace
from repro.sim.trace import Trace
from repro.sim.workloads import get_workload
from repro.util.proc import peak_rss_bytes
from repro.vmos.mapping import MemoryMapping
from repro.vmos.scenarios import build_mapping

TIMED_SCHEMES = scheme_names(include_extras=True)
MAPPING_SEED = 7
TRACE_SEED = 11


def bench_scheme(name: str, mapping: MemoryMapping, trace: Trace,
                 repeats: int, pwc: bool = False) -> dict:
    references = trace.references
    machine = (dataclasses.replace(DEFAULT_MACHINE, pwc=True)
               if pwc else DEFAULT_MACHINE)
    timings: dict[str, float] = {}
    snapshots: dict[str, dict] = {}
    for engine in ("scalar", "batched"):
        best = float("inf")
        for _ in range(repeats):
            scheme = make_scheme(name, mapping, machine)
            start = time.perf_counter()
            run_trace(scheme, trace, engine=engine)
            best = min(best, time.perf_counter() - start)
        timings[engine] = best
        snapshots[engine] = scheme.stats.snapshot()
    if snapshots["scalar"] != snapshots["batched"]:
        raise AssertionError(
            f"{name}: engines disagree\n scalar : {snapshots['scalar']}"
            f"\n batched: {snapshots['batched']}")
    return {
        "references": references,
        "pwc": pwc,
        "scalar_seconds": round(timings["scalar"], 4),
        "batched_seconds": round(timings["batched"], 4),
        "scalar_refs_per_sec": round(references / timings["scalar"]),
        "batched_refs_per_sec": round(references / timings["batched"]),
        "speedup": round(timings["scalar"] / timings["batched"], 2),
        "stats": snapshots["batched"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--references", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=2,
                        help="runs per engine; the best time is kept")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_engine.json")
    args = parser.parse_args()
    if args.references <= 0 or args.repeats <= 0:
        parser.error("--references and --repeats must be positive")

    workload = get_workload("gups")
    mapping = build_mapping(workload.vmas(), "demand", seed=MAPPING_SEED)
    # Trace generation is part of every cold experiment run, so the
    # bench records it alongside the per-scheme engine timings.
    start = time.perf_counter()
    trace = workload.make_trace(args.references, seed=TRACE_SEED)
    trace_seconds = time.perf_counter() - start

    from hostmeta import host_metadata

    results = {"workload": "gups", "scenario": "demand",
               "mapping_seed": MAPPING_SEED, "trace_seed": TRACE_SEED,
               "host": host_metadata(),
               "trace_generation_seconds": round(trace_seconds, 4),
               "trace_refs_per_sec": round(args.references / trace_seconds),
               "schemes": {}}
    print(f"trace generation: {args.references} refs in {trace_seconds:.3f}s")
    for name in TIMED_SCHEMES:
        for pwc in (False, True):
            key = f"{name}+pwc" if pwc else name
            entry = bench_scheme(name, mapping, trace, args.repeats, pwc=pwc)
            if pwc:
                # The ratio ROADMAP item 1 gates on: what enabling the
                # page-walk caches costs the batched engine, per scheme.
                twin = results["schemes"][name]["batched_seconds"]
                entry["pwc_slowdown"] = (
                    round(entry["batched_seconds"] / twin, 2) if twin else 0.0)
            results["schemes"][key] = entry
            slowdown = (f"  pwc-slowdown {entry['pwc_slowdown']:4.2f}x"
                        if pwc else "")
            print(f"{key:18s} scalar {entry['scalar_seconds']:7.3f}s"
                  f"  batched {entry['batched_seconds']:7.3f}s"
                  f"  speedup {entry['speedup']:5.2f}x{slowdown}")
    results["peak_rss_bytes"] = peak_rss_bytes()
    print(f"peak rss: {results['peak_rss_bytes'] / 2**20:.1f} MiB")
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
