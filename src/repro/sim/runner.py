"""Process-parallel experiment orchestration with a content-addressed cache.

The paper's evaluation is a (workload x scenario x scheme x seed) matrix;
this module turns each cell into a declarative
:class:`~repro.sim.api.SimRequest`, hashes it to a content-addressed
key, and runs the cache misses through a :class:`Orchestrator` — a
``ProcessPoolExecutor`` wrapper with per-job timeout, bounded retry,
and a failure ledger, so one crashed cell degrades to a reported gap
instead of killing the whole report.

The moving parts:

* :class:`~repro.sim.api.SimRequest` — everything that determines a
  cell's result (workload, scenario, scheme, seed, trace length, epoch
  length, machine configuration).  ``key()`` is a SHA-256 over the
  canonical JSON of those fields, so equal specs always collide and any
  field perturbation changes the key.
* :class:`ResultStore` — a directory of ``<key>.json`` files holding
  ``SimulationResult.to_dict()`` payloads.  Corrupted or truncated
  files are treated as misses, never as errors.
* :func:`~repro.sim.api.execute_request` — the picklable worker entry
  point.  Workers memoise mappings and traces per (workload, scenario,
  seed) with a digest guard, so the many schemes of one cell column share one
  mapping build without risking cross-job aliasing.
* :class:`Orchestrator` — runs specs serially (``workers=0``) or on a
  process pool, returning payloads plus a :class:`RunSummary`
  (computed / cached / retried / failed counts and the ledger).

Determinism: job results are bit-identical between the serial and
parallel paths because every stochastic input is derived from the spec
via :func:`repro.util.rng.spawn_rng` — nothing depends on process
identity, scheduling order, or wall-clock time.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import CellFailedError, OrchestrationError
from repro.sim.api import (
    CACHE_FORMAT,
    STATIC_IDEAL,
    SimReply,
    SimRequest,
    TenancyConfig,
    digest_payload,
    execute_request,
    machine_digest,
    simulate_request,
)
from repro.sim.engine import SimulationResult, run_trace
from repro.sim.stats import canonical_json
from repro.sim.trace import Trace
from repro.sim.trace_store import TraceStore
from repro.sim.workloads import get_workload
from repro.util.proc import peak_rss_bytes
from repro.vmos.mapping import MemoryMapping
from repro.vmos.scenarios import build_mapping

__all__ = [
    "STATIC_IDEAL",
    "SimRequest",
    "TenancyConfig",
    "SimReply",
    "execute_request",
    "simulate_request",
    "ResultStore",
    "TraceStore",
    "configure_trace_store",
    "process_pool",
    "kill_pool",
    "JobFailure",
    "RunSummary",
    "Orchestrator",
    "simulate_spec",
    "combine_summaries",
    "digest_payload",
    "machine_digest",
    "mapping_digest",
    "trace_digest",
    "CellFailedError",
    "OrchestrationError",
]

ProgressFn = Callable[[str], None]


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def mapping_digest(mapping: MemoryMapping) -> str:
    """Content digest of a mapping's chunk structure.

    Hashes the maximal contiguous chunks plus the mapped-page count, so
    any map/unmap/mprotect mutation — including ones that only move
    chunk boundaries — changes the digest.
    """
    sha = hashlib.sha256()
    for chunk in mapping.chunks():
        sha.update(f"{chunk.vpn}:{chunk.pfn}:{chunk.pages};".encode("ascii"))
    sha.update(str(mapping.mapped_pages).encode("ascii"))
    return sha.hexdigest()


def trace_digest(trace: Trace) -> str:
    """Content digest of a trace (VPN stream + instruction count)."""
    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(trace.vpns).tobytes())
    sha.update(f"|{trace.instructions}|{trace.name}".encode("utf-8"))
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


class ResultStore:
    """Content-addressed JSON store for job payloads.

    Files live at ``<root>/<key[:2]>/<key>.json`` wrapped in an envelope
    recording the format version and key.  ``get`` treats anything
    unreadable — missing file, truncated write, garbage bytes, stale
    format — as a cache miss and reports it in ``corrupt`` when the
    bytes existed but did not verify.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8", errors="strict")
        except OSError:
            self.misses += 1
            return None
        except ValueError:  # undecodable bytes: treat as corruption
            self.corrupt += 1
            self.misses += 1
            return None
        try:
            envelope = json.loads(text)
        except ValueError:  # malformed JSON or undecodable bytes
            self.corrupt += 1
            self.misses += 1
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != CACHE_FORMAT
            or envelope.get("key") != key
            or not isinstance(envelope.get("payload"), dict)
        ):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return envelope["payload"]

    def put(self, key: str, payload: dict) -> Path:
        """Atomically persist ``payload`` under ``key`` (tmp + rename)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"format": CACHE_FORMAT, "key": key, "payload": payload}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(canonical_json(envelope), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


# ---------------------------------------------------------------------------
# Job execution (worker side)
# ---------------------------------------------------------------------------

#: Per-process memo caches: the schemes of one matrix column share one
#: mapping/trace build.  Keys include the seed and trace length so two
#: configs that differ only there can never alias; values carry the
#: build-time digest, verified on every reuse.
_WORKER_MAPPINGS: dict[tuple, tuple[MemoryMapping, str]] = {}
_WORKER_TRACES: dict[tuple, tuple[Trace, str]] = {}

#: The shared trace store this process reads traces from, when the
#: orchestrator configured one (see :func:`configure_trace_store`).
_WORKER_TRACE_STORE: TraceStore | None = None


def configure_trace_store(root: str | Path | None) -> TraceStore | None:
    """Point this process's job execution at a shared trace store.

    With a store configured, :func:`execute_request` memory-maps traces the
    orchestrator generated instead of rebuilding them.  Called in the
    parent by the orchestrator and in each pool worker via the executor
    initializer (fork inherits the parent's setting, but spawned workers
    would not).  ``None`` reverts to per-process generation.
    """
    global _WORKER_TRACE_STORE
    _WORKER_TRACE_STORE = None if root is None else TraceStore(root)
    return _WORKER_TRACE_STORE


#: The start method of every process pool this package builds, picked
#: once: fork where the platform has it (cheapest, and job functions
#: pickle by reference), the platform default elsewhere.
_POOL_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


def process_pool(
    workers: int, trace_root: str | Path | None = None
) -> ProcessPoolExecutor:
    """A process pool whose workers read traces from ``trace_root``.

    The one pool constructor behind :class:`Orchestrator`, the
    simulation service and sharded fleets.  The initializer always runs
    :func:`configure_trace_store`, so a spawned worker sees the same
    store as a forked one, and a forked worker of a storeless pool
    drops whatever store its parent had configured.
    """
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=_POOL_CONTEXT,
        initializer=configure_trace_store,
        initargs=(None if trace_root is None else str(trace_root),),
    )


def kill_pool(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dead workers."""
    processes = dict(getattr(executor, "_processes", None) or {})
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes.values():
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 — already-dead workers
            pass


def _mapping_for(spec: SimRequest) -> MemoryMapping:
    key = (spec.workload, spec.scenario, spec.seed)
    entry = _WORKER_MAPPINGS.get(key)
    if entry is None:
        vmas = get_workload(spec.workload).vmas()
        mapping = build_mapping(vmas, spec.scenario, seed=spec.seed)
        _WORKER_MAPPINGS[key] = (mapping, mapping_digest(mapping))
        return mapping
    mapping, digest = entry
    if mapping_digest(mapping) != digest:
        raise OrchestrationError(
            f"cached mapping for {key} was mutated since it was built"
        )
    return mapping


def _trace_for(spec: SimRequest) -> Trace:
    store = _WORKER_TRACE_STORE
    if store is not None:
        # The orchestrator pre-generated every distinct trace; this is a
        # cheap mmap open.  The read-only map cannot be mutated, so the
        # digest guard below is unnecessary on this path; the miss
        # branch inside get_or_create regenerates (and logs it) if the
        # store was cleared between dispatch and execution.
        trace_key = TraceStore.key(spec.workload, spec.references, spec.seed)
        return store.get_or_create(
            trace_key,
            lambda: get_workload(spec.workload).trace_source(
                spec.references, seed=spec.seed
            ),
        )
    key = (spec.workload, spec.seed, spec.references)
    entry = _WORKER_TRACES.get(key)
    if entry is None:
        trace = get_workload(spec.workload).make_trace(
            spec.references, seed=spec.seed
        )
        _WORKER_TRACES[key] = (trace, trace_digest(trace))
        return trace
    trace, digest = entry
    if trace_digest(trace) != digest:
        raise OrchestrationError(
            f"cached trace for {key} was mutated since it was built"
        )
    return trace


def simulate_spec(
    spec: SimRequest, mapping: MemoryMapping, trace: Trace
) -> SimulationResult:
    """Run one ``kind="simulate"`` request on prebuilt inputs."""
    # Deferred: the schemes package imports repro.sim.stats, so a
    # top-level import here would be circular via repro.sim.__init__.
    from repro.schemes import make_scheme
    from repro.sim.sweep import static_ideal

    if spec.scheme == STATIC_IDEAL:
        return static_ideal(
            mapping, trace, spec.machine, subsample=spec.ideal_subsample
        )
    scheme = make_scheme(spec.scheme, mapping, spec.machine)
    return run_trace(
        scheme, trace,
        epoch_references=spec.epoch_references,
        engine=spec.engine,
    )


# ---------------------------------------------------------------------------
# Failure ledger and run summary
# ---------------------------------------------------------------------------


@dataclass
class JobFailure:
    """One permanently failed job (after exhausting its retries)."""

    key: str
    label: str
    error: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class RunSummary:
    """What one orchestrated run did, cell by cell."""

    total: int = 0
    computed: int = 0
    cached: int = 0
    retried: int = 0
    failed: int = 0
    wall_seconds: float = 0.0
    #: Distinct traces this run actually generated (trace-store misses);
    #: 0 when every trace was already persisted or no store was used.
    traces_generated: int = 0
    trace_generation_seconds: float = 0.0
    #: The orchestrating process's high-water RSS at the end of the run
    #: (``ru_maxrss``); the bounded-memory gauge for streaming runs.
    peak_rss_bytes: int = 0
    failures: list[JobFailure] = field(default_factory=list)

    def render(self) -> str:
        line = (
            f"run summary: {self.total} cells — {self.computed} computed, "
            f"{self.cached} cached, {self.retried} retried, "
            f"{self.failed} failed ({self.wall_seconds:.1f}s)"
        )
        if self.traces_generated:
            line += (
                f"\n  traces: {self.traces_generated} generated in "
                f"{self.trace_generation_seconds:.2f}s"
            )
        if self.peak_rss_bytes:
            line += f"\n  peak rss: {self.peak_rss_bytes / 2**20:.1f} MiB"
        for failure in self.failures:
            line += f"\n  failed: {failure.label} after {failure.attempts} " \
                    f"attempts: {failure.error}"
        return line

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "computed": self.computed,
            "cached": self.cached,
            "retried": self.retried,
            "failed": self.failed,
            "wall_seconds": self.wall_seconds,
            "traces_generated": self.traces_generated,
            "trace_generation_seconds": self.trace_generation_seconds,
            "peak_rss_bytes": self.peak_rss_bytes,
            "failures": [f.to_dict() for f in self.failures],
        }

    def write_ledger(self, path: str | Path) -> Path:
        """Persist the summary + failure ledger as JSON (CI artifact)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        return path


def combine_summaries(summaries: Iterable[RunSummary]) -> RunSummary:
    """Fold several run summaries into one (for the CLI's closing line)."""
    combined = RunSummary()
    for summary in summaries:
        combined.total += summary.total
        combined.computed += summary.computed
        combined.cached += summary.cached
        combined.retried += summary.retried
        combined.failed += summary.failed
        combined.wall_seconds += summary.wall_seconds
        combined.traces_generated += summary.traces_generated
        combined.trace_generation_seconds += summary.trace_generation_seconds
        combined.peak_rss_bytes = max(
            combined.peak_rss_bytes, summary.peak_rss_bytes
        )
        combined.failures.extend(summary.failures)
    return combined


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------


class Orchestrator:
    """Runs job specs against the cache, serially or on a process pool.

    * ``workers=0`` executes in-process (the deterministic reference
      path; also what tests and the default CLI use).
    * ``workers>0`` runs misses on a ``ProcessPoolExecutor``.  A job
      that raises is retried up to ``retries`` extra attempts; a job
      that exceeds ``timeout`` seconds or kills its worker burns an
      attempt, the pool is rebuilt, and innocent in-flight jobs are
      resubmitted without losing an attempt.  Jobs that exhaust their
      attempts land in the failure ledger instead of raising.
    * ``trace_store`` (a :class:`TraceStore`, or a directory to open
      one in) enables the shared streaming trace pipeline: the parent
      generates each distinct (workload, references, seed) trace
      exactly once into the store before dispatch, and every worker —
      serial or pooled — memory-maps the persisted file instead of
      rebuilding the trace.
    """

    def __init__(
        self,
        workers: int = 0,
        store: ResultStore | None = None,
        trace_store: TraceStore | str | Path | None = None,
        timeout: float | None = None,
        retries: int = 1,
        job_fn: Callable[[SimRequest], dict] = execute_request,
        progress: ProgressFn | None = None,
    ) -> None:
        if workers < 0:
            raise OrchestrationError("workers must be >= 0")
        if retries < 0:
            raise OrchestrationError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise OrchestrationError("timeout must be positive")
        self.workers = workers
        self.store = store
        if trace_store is not None and not isinstance(trace_store, TraceStore):
            trace_store = TraceStore(trace_store)
        self.trace_store = trace_store
        self.timeout = timeout
        self.retries = retries
        self.job_fn = job_fn
        self.progress = progress

    # ------------------------------------------------------------------

    def run(
        self, specs: Sequence[SimRequest]
    ) -> tuple[dict[str, dict], RunSummary]:
        """Execute ``specs``; return payloads by key plus the summary."""
        global _WORKER_TRACE_STORE
        started = time.perf_counter()
        ordered: list[SimRequest] = []
        seen: set[str] = set()
        for spec in specs:
            key = spec.key()
            if key not in seen:
                seen.add(key)
                ordered.append(spec)

        summary = RunSummary(total=len(ordered))
        results: dict[str, dict] = {}
        pending: list[SimRequest] = []
        for spec in ordered:
            payload = self.store.get(spec.key()) if self.store else None
            if payload is not None:
                results[spec.key()] = payload
                summary.cached += 1
                self._emit(summary, f"{spec.label()}: cached")
            else:
                pending.append(spec)

        # Point this process at the shared trace store only for the
        # duration of the run, so two orchestrators with different
        # stores (common in tests) never alias through the global.
        previous_store = _WORKER_TRACE_STORE
        try:
            if pending and self.trace_store is not None:
                self._prepare_traces(pending, summary)
            if pending:
                if self.workers == 0:
                    self._run_serial(pending, results, summary)
                else:
                    self._run_pool(pending, results, summary)
        finally:
            _WORKER_TRACE_STORE = previous_store
        summary.wall_seconds = time.perf_counter() - started
        summary.peak_rss_bytes = peak_rss_bytes()
        return results, summary

    def _prepare_traces(
        self, pending: Sequence[SimRequest], summary: RunSummary
    ) -> None:
        """Generate each distinct pending trace into the shared store.

        Runs in the parent before any job is dispatched, so the
        exactly-once guarantee holds even with many pool workers: by
        the time a worker opens a trace it is already persisted, and
        the worker's ``get_or_create`` is a pure mmap hit.  Streaming
        generation (``put_streaming``) keeps parent memory at
        O(chunk), and the per-trace generation log gives tests and
        post-hoc audits the generation count.
        """
        store = self.trace_store
        assert store is not None
        configure_trace_store(store.root)
        generated_before = store.generated
        seconds_before = store.generation_seconds
        done: set[str] = set()
        for spec in pending:
            if (
                spec.kind == "fleet"
                and spec.tenancy is not None
                and spec.tenancy.trace_variants > 0
            ):
                # A bounded-trace-pool fleet reads zero-copy from the
                # store; pre-generate its distinct traces here so every
                # shard worker mmap-hits.
                from repro.sim.api import fleet_for
                from repro.sim.tenants import prepare_fleet_traces

                prepare_fleet_traces(fleet_for(spec), store)
                continue
            if spec.kind != "simulate":
                continue
            trace_key = store.key(spec.workload, spec.references, spec.seed)
            if trace_key in done:
                continue
            done.add(trace_key)
            store.get_or_create(
                trace_key,
                lambda spec=spec: get_workload(spec.workload).trace_source(
                    spec.references, seed=spec.seed
                ),
            )
        summary.traces_generated += store.generated - generated_before
        summary.trace_generation_seconds += (
            store.generation_seconds - seconds_before
        )
        if summary.traces_generated:
            self._emit(
                summary,
                f"traces: {summary.traces_generated} generated in "
                f"{summary.trace_generation_seconds:.2f}s",
            )

    # ------------------------------------------------------------------

    def _emit(self, summary: RunSummary, message: str) -> None:
        if self.progress is not None:
            done = summary.computed + summary.cached + summary.failed
            self.progress(f"[{done}/{summary.total}] {message}")

    def _record_success(
        self,
        spec: SimRequest,
        payload: dict,
        results: dict[str, dict],
        summary: RunSummary,
        seconds: float,
        attempt: int,
    ) -> None:
        key = spec.key()
        if self.store is not None:
            self.store.put(key, payload)
        results[key] = payload
        summary.computed += 1
        suffix = f" (attempt {attempt})" if attempt > 1 else ""
        self._emit(summary, f"{spec.label()}: computed in {seconds:.2f}s{suffix}")

    def _record_attempt_failure(
        self,
        spec: SimRequest,
        attempt: int,
        error: str,
        summary: RunSummary,
        requeue: Callable[[SimRequest, int], None],
    ) -> None:
        """Charge one failed attempt; requeue or write the ledger."""
        if attempt <= self.retries:
            summary.retried += 1
            requeue(spec, attempt)
            return
        failure = JobFailure(spec.key(), spec.label(), error, attempts=attempt)
        summary.failures.append(failure)
        summary.failed += 1
        self._emit(summary, f"{spec.label()}: FAILED after {attempt} attempts "
                            f"({error})")

    # ------------------------------------------------------------------
    # Serial path
    # ------------------------------------------------------------------

    def _run_serial(
        self,
        pending: list[SimRequest],
        results: dict[str, dict],
        summary: RunSummary,
    ) -> None:
        queue: deque[tuple[SimRequest, int]] = deque((s, 0) for s in pending)
        while queue:
            spec, attempts = queue.popleft()
            job_started = time.perf_counter()
            try:
                payload = self.job_fn(spec)
            except Exception as exc:  # noqa: BLE001 — ledger, don't crash
                self._record_attempt_failure(
                    spec, attempts + 1, repr(exc), summary,
                    lambda s, a: queue.append((s, a)),
                )
                continue
            self._record_success(
                spec, payload, results, summary,
                time.perf_counter() - job_started, attempts + 1,
            )

    # ------------------------------------------------------------------
    # Pool path
    # ------------------------------------------------------------------

    def _new_executor(self) -> ProcessPoolExecutor:
        store = self.trace_store
        return process_pool(
            self.workers, None if store is None else store.root)

    def _run_pool(
        self,
        pending: list[SimRequest],
        results: dict[str, dict],
        summary: RunSummary,
    ) -> None:
        queue: deque[tuple[SimRequest, int]] = deque((s, 0) for s in pending)
        executor = self._new_executor()
        # future -> (spec, prior attempts, submit time).  At most
        # ``workers`` futures are in flight, so submit time approximates
        # start time and per-job deadlines stay meaningful.
        inflight: dict[Future, tuple[SimRequest, int, float]] = {}

        def requeue(spec: SimRequest, attempts: int) -> None:
            queue.append((spec, attempts))

        try:
            while queue or inflight:
                while queue and len(inflight) < self.workers:
                    spec, attempts = queue.popleft()
                    future = executor.submit(self.job_fn, spec)
                    inflight[future] = (spec, attempts, time.monotonic())

                wait_timeout = None
                if self.timeout is not None:
                    now = time.monotonic()
                    deadlines = [
                        started + self.timeout - now
                        for (_, _, started) in inflight.values()
                    ]
                    wait_timeout = max(0.05, min(deadlines))
                done, _ = wait(
                    set(inflight), timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )

                broken = False
                for future in done:
                    spec, attempts, job_started = inflight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        # The worker died mid-job; every other in-flight
                        # future is dead too — handle them all below.
                        broken = True
                        self._record_attempt_failure(
                            spec, attempts + 1, "worker process died",
                            summary, requeue,
                        )
                    except Exception as exc:  # noqa: BLE001 — ledger path
                        self._record_attempt_failure(
                            spec, attempts + 1, repr(exc), summary, requeue,
                        )
                    else:
                        self._record_success(
                            spec, payload, results, summary,
                            time.monotonic() - job_started, attempts + 1,
                        )

                expired: list[tuple[SimRequest, int]] = []
                if self.timeout is not None and not done:
                    now = time.monotonic()
                    for future, (spec, attempts, started) in list(
                        inflight.items()
                    ):
                        if now - started >= self.timeout:
                            del inflight[future]
                            expired.append((spec, attempts))

                if broken or expired:
                    # The pool is unusable (dead worker) or holds a hung
                    # job: rebuild it.  Expired jobs burn an attempt;
                    # innocent in-flight jobs are resubmitted for free.
                    for future, (spec, attempts, _) in inflight.items():
                        queue.append((spec, attempts))
                    inflight.clear()
                    for spec, attempts in expired:
                        self._record_attempt_failure(
                            spec, attempts + 1,
                            f"timed out after {self.timeout:.1f}s",
                            summary, requeue,
                        )
                    kill_pool(executor)
                    executor = self._new_executor()
        finally:
            kill_pool(executor)
