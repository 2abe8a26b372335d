"""The workload process: set up, time, trace, check, report.

``run.py`` starts this in a child process and reads the one result
line it prints.  The end-to-end numbers always come from the untraced
phase; with ``--trace 1`` an untraced and a traced phase share the
time budget, and the per-layer numbers come from the traced one.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from tracing import Instrumentation, LayerTotals, Tracer
from workloads import WORKLOADS, BenchWorkload, Outcome, modelled_totals
from workloads import outputs_digest

#: Set-ups (and fresh-interpreter imports) per run; ``setup_s`` adds
#: the two medians.
SETUP_REPEATS = 3


#: The speed probe's time on the host the benchmark was defined on
#: (2-vCPU x86_64 VM, CPython 3.11, numpy 2.4).  Every host time is
#: scaled to that speed: that host's speed drifted by up to 2x over
#: minutes, which no amount of repetition inside one run averages out.
PROBE_REFERENCE_S = 0.022
#: Units per probe; the probe reports their median, because single
#: units jitter by about 10% from one to the next.
PROBE_UNITS = 5
#: Least time between two probes inside one iteration.
PROBE_EVERY_S = 2.0


def probe_seconds() -> float:
    """Median time of one fixed unit of CPU work that shares no code
    with ``repro``: a numpy sort and an interpreter loop, the two kinds
    of work every workload does."""
    keys = np.random.default_rng(0).integers(0, 1 << 20, 50_000)
    times = []
    for _ in range(PROBE_UNITS):
        began = time.perf_counter()
        np.unique(np.sort(keys))
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(values, q)) if values else float("nan")


class SpeedProbe:
    """Probes taken between iterations and, where a workload offers a
    safe point (``tick``), at most every :data:`PROBE_EVERY_S` inside
    one; the time they take is excluded from the iteration's wall."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.excluded = 0.0
        self._last = 0.0

    def sample(self) -> None:
        began = time.perf_counter()
        self.samples.append(probe_seconds())
        self._last = time.perf_counter()
        self.excluded += self._last - began

    def tick(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()


@dataclass
class Phase:
    """The timed iterations of one phase.

    ``scales[i]`` is :data:`PROBE_REFERENCE_S` over the mean of the
    probes taken just before, during and just after iteration ``i``:
    multiplying a host time by it gives the time at the reference speed.
    """

    outcomes: list[Outcome] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    def refs_per_s(self, scaled: bool = True) -> float:
        return statistics.median(
            o.refs / (w * (s if scaled else 1.0))
            for o, w, s in zip(self.outcomes, self.walls, self.scales))

    def latencies(self, scaled: bool = True) -> list[float]:
        """Operation latencies; an iteration without finer operations
        is one operation itself."""
        return [lat * (s if scaled else 1.0)
                for o, w, s in zip(self.outcomes, self.walls, self.scales)
                for lat in (o.latencies or [w])]


def run_phase(workload: BenchWorkload, budget: float,
              tracer: Tracer | None = None) -> Phase:
    """Timed iterations until the next one would overrun ``budget``
    (at least one).  A traced phase probes only between iterations, so
    no probe lands inside a span."""
    probe = SpeedProbe()
    probe.sample()
    phase = Phase(probes=probe.samples)
    start = time.perf_counter()
    while True:
        remaining = budget - (time.perf_counter() - start)
        if phase.walls and remaining < phase.walls[-1]:
            break
        if tracer is not None:
            tracer.run = f"iteration{len(phase.walls)}"
            root = tracer.begin("iteration")
        first = len(probe.samples) - 1
        probe.excluded = 0.0
        began = time.perf_counter()
        raw = workload.run(max(remaining, 0.0),
                           probe.tick if tracer is None else lambda: None)
        phase.walls.append(time.perf_counter() - began - probe.excluded)
        if tracer is not None:
            tracer.end(root)
            tracer.enabled = False
        phase.outcomes.append(workload.collect(raw))
        probe.sample()
        phase.scales.append(
            PROBE_REFERENCE_S / statistics.fmean(probe.samples[first:]))
        if tracer is not None:
            tracer.enabled = True
    return phase


def peak_rss_mb() -> float:
    """Largest resident set of this process and every child it has
    waited for (the service and its pool), in MB."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak * 1024 / 1e6


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Per-layer numbers for one set-up plus one iteration: set-up spans
    count once, iteration spans are averaged over ``iterations``."""
    setup = LayerTotals(tracer.spans, lambda span: span[4] == "setup")
    timed = LayerTotals(tracer.spans, lambda span: span[4] != "setup")

    def combine(attr: str) -> dict[str, float]:
        once, each = getattr(setup, attr), getattr(timed, attr)
        return {name: once.get(name, 0) + each.get(name, 0) / iterations
                for name in set(once) | set(each)}

    calls, busy, own, work = (combine("calls"), combine("busy"),
                              combine("self_s"), combine("work"))
    quanta = timed.child_calls.get(("schedule", "access_block"), 0)

    def get(table: dict[str, float], *names: str) -> float:
        return sum(table.get(name, 0.0) for name in names)

    access_calls = get(calls, "access_block")
    frozen_calls = get(calls, "frozen")
    return {
        "lru_kernel.busy_s": get(busy, "lru_kernel"),
        "lru_kernel.calls": get(calls, "lru_kernel"),
        "lru_kernel.keys": get(work, "lru_kernel"),
        "access_block.busy_s": get(busy, "access_block"),
        "access_block.self_s": get(own, "access_block"),
        "access_block.calls": access_calls,
        "access_block.refs": get(work, "access_block"),
        "access_block.us_per_call": (get(busy, "access_block") / access_calls
                                     * 1e6 if access_calls else 0.0),
        "anchor_dir.builds": get(calls, "anchor_dir.build"),
        "anchor_dir.busy_s": get(busy, "anchor_dir.build"),
        "anchor_dir.incremental_calls": get(calls, "anchor_dir.incremental"),
        "anchor_dir.incremental_s": get(busy, "anchor_dir.incremental"),
        "mapping_build.calls": get(calls, "mapping_build"),
        "mapping_build.busy_s": get(busy, "mapping_build"),
        "frozen.calls": frozen_calls,
        "frozen.builds": get(calls, "frozen.build"),
        "frozen.reuse_ratio": (1.0 - get(calls, "frozen.build") / frozen_calls
                               if frozen_calls else 0.0),
        "sync.calls": get(calls, "sync"),
        "sync.busy_s": get(busy, "sync"),
        "pwc.calls": get(calls, "pwc"),
        "pwc.busy_s": get(busy, "pwc"),
        "distance.calls": get(calls, "distance"),
        "distance.busy_s": get(busy, "distance"),
        "distance.changes": get(work, "distance"),
        "scheme_build.calls": get(calls, "scheme_build"),
        "scheme_build.busy_s": get(busy, "scheme_build"),
        "clone.calls": get(calls, "clone"),
        "clone.busy_s": get(busy, "clone"),
        "schedule.quanta": quanta / iterations,
        "schedule.self_s": get(own, "schedule"),
        "stats.calls": get(calls, "stats"),
        "stats.busy_s": get(busy, "stats"),
        "run_trace.self_s": get(own, "run_trace"),
        "run_trace.epochs": get(work, "run_trace"),
        "static_ideal.self_s": get(own, "static_ideal"),
        "trace_gen.calls": get(calls, "trace_gen"),
        "trace_gen.busy_s": get(busy, "trace_gen"),
        "trace_store.busy_s": get(busy, "trace_store"),
        "tracing.unattributed_s": get(own, "setup", "iteration"),
        "tracing.wall_s": get(busy, "setup", "iteration"),
        "tracing.spans": float(len(tracer.spans)),
    }


def service_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """``repro.service`` as the clients and the ``status`` op see it."""
    replies = [r for o in outcomes for r in o.extra.get("replies", [])]
    computed = [r["latency"] * 1e3 for r in replies
                if r["event"] == "result" and not r["cached"]
                and not r["joined"]]
    cached = [r["latency"] * 1e3 for r in replies
              if r["event"] == "result" and r["cached"]]
    status: dict[str, Any] = {}
    for outcome in outcomes:
        status = outcome.extra.get("status", {}).get("metrics", status)
    received = status.get("received", 0)
    return {
        "service.computed_ms_p50": percentile(computed, 50) if computed else 0.0,
        "service.cached_ms_p50": percentile(cached, 50) if cached else 0.0,
        "service.hit_ratio": (status.get("cache_hits", 0) / received
                              if received else 0.0),
        "service.joined_inflight": float(status.get("joined_inflight", 0)),
        "service.rejected": float(status.get("rejected", 0)),
        "service.errors": float(status.get("errors", 0)),
    }


def _load_pins(path: Path, workload: BenchWorkload) -> dict[str, str] | None:
    if not path.is_file():
        return None
    entry = json.loads(path.read_text(encoding="utf-8")).get(workload.name)
    if (entry is None or entry["seed"] != workload.seed
            or entry["size"] != workload.size):
        return None
    return entry["digests"]


def _write_pins(path: Path, workload: BenchWorkload,
                digests: dict[str, str]) -> None:
    pins = (json.loads(path.read_text(encoding="utf-8"))
            if path.is_file() else {})
    pins[workload.name] = {"seed": workload.seed, "size": workload.size,
                           "digests": dict(sorted(digests.items()))}
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def import_seconds() -> float:
    """Start a fresh interpreter that imports the workloads (and with
    them ``repro``): the part of set-up every process pays once."""
    began = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import workloads"], check=True)
    return time.perf_counter() - began


def child_main(args: Any, out: Path, pins_path: Path) -> dict[str, Any]:
    workload = WORKLOADS[args.workload](args.seed, args.size, out / "tmp")
    pins = None if args.repin else _load_pins(pins_path, workload)
    tracer = Tracer() if args.trace else None
    setups: list[float] = []
    try:
        if tracer is None:
            probes = [probe_seconds()]
            imports = [import_seconds() for _ in range(SETUP_REPEATS)]
            for index in range(SETUP_REPEATS):
                began = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - began)
                if index < SETUP_REPEATS - 1:
                    workload.teardown()
            probes.append(probe_seconds())
            setup_scale = 2 * PROBE_REFERENCE_S / sum(probes)
            timed = run_phase(workload, args.seconds)
            traced = Phase()
        else:
            with Instrumentation(tracer):
                with tracer.span("setup"):
                    workload.setup()
            timed = run_phase(workload, args.seconds / 2)
            with Instrumentation(tracer):
                traced = run_phase(workload, args.seconds / 2, tracer)
    finally:
        workload.teardown()
    peak = peak_rss_mb()

    outcomes = timed.outcomes + traced.outcomes
    checks, mismatches, messages = workload.verify(outcomes, pins)
    fixed_digests, fixed_stats = workload.fixed_outputs(outcomes)
    if args.repin and mismatches == 0:
        _write_pins(pins_path, workload, fixed_digests)
    attempted = sum(o.ops for o in outcomes)
    failed = min(attempted, sum(o.failures for o in outcomes) + mismatches)
    record: dict[str, Any] = {
        "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted if attempted else 1.0,
        "checks": checks, "messages": messages[:20],
        "pinned": pins is not None,
        "iterations": len(timed.walls),
        "latency_samples": len(timed.latencies()),
        "repeat_share": workload.repeat_share,
        "outputs_digest": outputs_digest(fixed_digests),
        "probe_s": statistics.median(timed.probes),
    }
    if "paper_err_pp" in outcomes[0].extra:
        record["paper_err_pp"] = outcomes[0].extra["paper_err_pp"]
    result: dict[str, Any] = {"record": record}
    if tracer is None:
        raw_setup = statistics.median(imports) + statistics.median(setups)
        result["end_to_end"] = {
            "setup_s": raw_setup * setup_scale,
            "refs_per_s": timed.refs_per_s(),
            "latency_p50_ms": percentile(timed.latencies(), 50) * 1e3,
            "latency_p90_ms": percentile(timed.latencies(), 90) * 1e3,
            "peak_rss_mb": peak,
        }
        # The same numbers in unscaled host time, for reference.
        record["host_time"] = {
            "setup_s": raw_setup,
            "refs_per_s": timed.refs_per_s(scaled=False),
            "latency_p50_ms": percentile(timed.latencies(False), 50) * 1e3,
            "latency_p90_ms": percentile(timed.latencies(False), 90) * 1e3,
        }
    else:
        layers = layer_metrics(tracer, len(traced.walls))
        layers.update(service_metrics(traced.outcomes))
        layers.update(modelled_totals(fixed_stats))
        traced_rate = traced.refs_per_s()
        layers["tracing.overhead_ratio"] = (
            timed.refs_per_s() / traced_rate if traced_rate else 0.0)
        result["per_layer"] = layers
        path = tracer.dump(
            out / "spans" / f"{workload.name}-seed{args.seed}.jsonl")
        record["spans_file"] = str(path.relative_to(out.parent))
    return result
