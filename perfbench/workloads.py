"""The benchmark's four workloads, built only on ``repro``'s public API.

Layer entry points (``run_trace``, ``build_mapping``, ``make_scheme``)
are called through their modules, so the traced run's wrappers see the
benchmark's own calls too.

Each workload makes its inputs from the seed alone (:meth:`inputs`
describes them), sets up outside the timed phase, runs timed
iterations, and checks every output it produced (:meth:`verify`).
Why each workload exists, and which layer each one should move, is
recorded in ``NOTES.md`` beside this file.
"""

from __future__ import annotations

import dataclasses
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterator

import numpy as np

from repro.experiments import fig7
from repro.experiments.common import (
    ExperimentConfig,
    MatrixRunner,
    figure_schemes,
)
from repro.experiments.paper_data import PAPER_MEAN_REDUCTION
from repro.params import DEFAULT_MACHINE, SCENARIO_ORDER
from repro.schemes.anchor_scheme import AnchorScheme
from repro.schemes.base import TranslationScheme
from repro.schemes import registry
from repro.service import client
from repro.sim.api import (
    STATIC_IDEAL,
    SimRequest,
    digest_payload,
    execute_request,
)
from repro.sim import engine
from repro.sim.runner import mapping_digest
from repro.sim.stats import COUNTER_FIELDS, canonical_json
from repro.sim import tenants
from repro.sim.tenants import TenantFleet, prepare_fleet_traces, simulate_fleet
from repro.sim.trace_store import TraceStore
from repro.sim.workloads import WORKLOAD_ORDER, get_workload
from repro.vmos.mapping import DEFAULT_PROT
from repro.vmos import scenarios

SIZES = ("full", "tiny")


@dataclass
class Outcome:
    """What one timed iteration did and produced."""

    refs: int = 0                    #: requested simulated references done
    #: Per-operation seconds, when an operation is smaller than the
    #: iteration (otherwise the iteration itself is the operation).
    latencies: list[float] = field(default_factory=list)
    ops: int = 0                     #: operations attempted
    failures: int = 0                #: operations that failed outright
    digests: dict[str, str] = field(default_factory=dict)
    stats: list[dict[str, int]] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)


class BenchWorkload:
    """One workload: seeded inputs, set-up, timed iterations, checks."""

    name: ClassVar[str]
    #: Share of operations that repeat an earlier key (cache reuse).
    repeat_share: ClassVar[float] = 0.0

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def inputs(self) -> dict[str, Any]:
        raise NotImplementedError

    def setup(self) -> None:
        """Prepare everything the timed phase needs (repeatable)."""

    def teardown(self) -> None:
        """Release what :meth:`setup` made."""

    def run(self, budget: float, tick: Callable[[], None]) -> Any:
        """One timed iteration; ``budget`` bounds open-ended loops.

        ``tick`` marks a safe point between operations where the
        workload process may run its speed probe.
        """
        raise NotImplementedError

    def collect(self, raw: Any) -> Outcome:
        """Digest what :meth:`run` returned (outside the timed and
        traced region, so checking never counts as layer work)."""
        raise NotImplementedError

    def oracle(self, outcome: Outcome) -> int:
        """Seeds with no pin: re-check a sample against the scalar
        engine; returns the number of mismatches."""
        return 0

    def fixed_outputs(self, outcomes: list[Outcome]
                      ) -> tuple[dict[str, str], list[dict[str, int]]]:
        """The output digests and stats that the record and the *sim.**
        metrics report: a set the seed alone fixes, whatever the timing.
        Every iteration repeats the first one's outputs."""
        return outcomes[0].digests, outcomes[0].stats

    def verify(self, outcomes: list[Outcome],
               pins: dict[str, str] | None) -> tuple[int, int, list[str]]:
        """Check every output: ``(checks, mismatches, messages)``.

        Every iteration (traced or not) must reproduce the first one's
        digest for each output; with ``pins`` (the default seed) every
        pinned output must match its pin, otherwise a sample is
        re-checked by :meth:`oracle`.
        """
        checks = mismatches = 0
        messages: list[str] = []
        first: dict[str, str] = {}
        for outcome in outcomes:
            for key, digest in outcome.digests.items():
                checks += 1
                expected = first.setdefault(key, digest)
                if pins is not None and key in pins:
                    expected = pins[key]
                if digest != expected:
                    mismatches += 1
                    messages.append(f"{key}: digest {digest[:12]} "
                                    f"!= {expected[:12]}")
        if pins is None and outcomes:
            checks += 1
            try:
                bad = self.oracle(outcomes[0])
            except Exception as exc:  # noqa: BLE001 — the oracle failed
                bad = 1
                messages.append(f"scalar oracle raised {exc!r}")
            if bad:
                mismatches += bad
                messages.append(f"{bad} sampled output(s) differ from the "
                                "scalar oracle")
        return checks, mismatches, messages


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def result_digest(result: Any) -> str:
    return digest_payload(result.to_dict())


# ----------------------------------------------------------------------
# fig7-demand: the paper path
# ----------------------------------------------------------------------


class Fig7Demand(BenchWorkload):
    """``fig7.run`` on a fresh in-process, uncached ``MatrixRunner``."""

    name = "fig7-demand"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        full = size == "full"
        self.workloads = WORKLOAD_ORDER if full else ("omnetpp", "sphinx3")
        self.config = ExperimentConfig(
            references=100_000 if full else 4_000, seed=seed)
        self.schemes = figure_schemes(include_ideal=True)

    def inputs(self) -> dict[str, Any]:
        return {"workloads": list(self.workloads), "scenario": fig7.SCENARIO,
                "schemes": list(self.schemes),
                "references": self.config.references, "seed": self.seed}

    def run(self, budget: float, tick: Callable[[], None]) -> Any:
        runner = MatrixRunner(self.config, workers=0,
                              progress=lambda _line: tick())
        return runner, fig7.run(runner=runner, workloads=self.workloads)

    def collect(self, raw: Any) -> Outcome:
        runner, report = raw
        outcome = Outcome()
        for workload in self.workloads:
            for scheme in self.schemes:
                outcome.ops += 1
                result = runner.maybe_run(workload, fig7.SCENARIO, scheme)
                key = f"{workload}/{scheme}"
                if result is None:          # a CellFailedError gap
                    outcome.failures += 1
                    outcome.digests[key] = "gap"
                    continue
                outcome.refs += self.config.references
                outcome.digests[key] = result_digest(result)
                outcome.stats.append(result.stats.to_dict())
        outcome.ops += 1
        outcome.digests["table"] = digest_payload(report.table)
        outcome.extra["paper_err_pp"] = paper_error_pp(
            report.headers, report.row_for("mean"))
        return outcome

    def oracle(self, outcome: Outcome) -> int:
        runner = MatrixRunner(self.config, workers=0)
        cells = [(w, k) for w in self.workloads for k in self.schemes
                 if k != STATIC_IDEAL]
        rng = _rng(self.seed, 7)
        bad = 0
        for index in rng.choice(len(cells), size=2, replace=False):
            workload, scheme = cells[int(index)]
            spec = dataclasses.replace(
                runner.spec(workload, fig7.SCENARIO, scheme), engine="scalar")
            expected = digest_payload(execute_request(spec))
            bad += outcome.digests[f"{workload}/{scheme}"] != expected
        return bad


def paper_error_pp(headers: list[str], mean_row: list[Any]) -> float:
    """Mean |model - paper| mean miss reduction, percentage points.

    The model's reduction for a scheme is ``100 - mean relative misses``
    from the report's ``mean`` row.  This compares synthetic inputs
    against the paper's stated means; it does not validate the model.
    """
    paper = PAPER_MEAN_REDUCTION["demand"]
    errors = []
    for scheme, reduction in sorted(paper.items()):
        value = mean_row[list(headers).index(scheme)]
        if value is not None:
            errors.append(abs((100.0 - value) - reduction))
    return sum(errors) / len(errors) if errors else float("nan")


# ----------------------------------------------------------------------
# fleet-q500: the tenant fleet at its real block size
# ----------------------------------------------------------------------


@contextmanager
def scalar_access_blocks() -> Iterator[None]:
    """Point every scheme's ``access_block`` at the base class's
    per-reference loop (the scalar oracle) for the ``with`` body."""
    undo = []
    todo = list(TranslationScheme.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "access_block" in cls.__dict__:
            undo.append((cls, cls.__dict__["access_block"]))
            cls.access_block = TranslationScheme.access_block
    try:
        yield
    finally:
        for cls, method in undo:
            cls.access_block = method


class FleetQ500(BenchWorkload):
    """A tagged anchor-dyn ``TenantFleet``, serial, quantum 500."""

    name = "fleet-q500"
    scheme = "anchor-dyn"
    knobs = {"policy": "tagged", "quantum": 500, "active_pool": 8,
             "shards": 1, "workers": 0}

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.fleet = self._fleet(450 if size == "full" else 12)
        self.store: TraceStore | None = None
        self._tmp: Path | None = None

    def _fleet(self, tenants: int) -> TenantFleet:
        return TenantFleet(
            size=tenants, workloads=("gups", "omnetpp", "sphinx3"),
            scenarios=SCENARIO_ORDER,
            references=1_000 if self.size == "full" else 600,
            seed=self.seed, mapping_variants=1, trace_variants=4)

    def inputs(self) -> dict[str, Any]:
        arrays = self.fleet.sample_arrays()
        return {"fleet": dataclasses.asdict(self.fleet),
                "scheme": self.scheme, **self.knobs,
                "columns": {k: v.tolist() for k, v in arrays.items()}}

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._tmp = Path(tempfile.mkdtemp(prefix="fleet-", dir=self.workdir))
        self.store = TraceStore(self._tmp / "traces")
        prepare_fleet_traces(self.fleet, self.store)

    def teardown(self) -> None:
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
        self._tmp = self.store = None

    def _simulate(self, fleet: TenantFleet) -> Any:
        return simulate_fleet(fleet, scheme=self.scheme,
                              trace_store=self.store, **self.knobs)

    def run(self, budget: float, tick: Callable[[], None]) -> Any:
        # A wave boundary (the end of one run_schedule call) is the
        # fleet's only safe point for the speed probe (see child.py).
        original = tenants.run_schedule

        def run_schedule_then_tick(*args: Any, **kwargs: Any) -> Any:
            try:
                return original(*args, **kwargs)
            finally:
                tick()

        tenants.run_schedule = run_schedule_then_tick
        try:
            return self._simulate(self.fleet)
        except Exception as exc:  # noqa: BLE001 — a failed fleet
            return exc
        finally:
            tenants.run_schedule = original

    def collect(self, raw: Any) -> Outcome:
        if isinstance(raw, Exception):
            return Outcome(ops=1, failures=1,
                           digests={"fleet": f"error: {raw!r}"})
        result = raw
        requested = self.fleet.size * self.fleet.references
        return Outcome(
            refs=result.executed, ops=1,
            failures=int(result.executed != requested),
            digests={"fleet": digest_payload(result.to_dict())},
            stats=[result.stats.to_dict()])

    def oracle(self, outcome: Outcome) -> int:
        # A small fleet from the same seed, batched against scalar.
        small = self._fleet(6)
        if self.store is not None:
            prepare_fleet_traces(small, self.store)
        batched = digest_payload(self._simulate(small).to_dict())
        with scalar_access_blocks():
            scalar = digest_payload(self._simulate(small).to_dict())
        return int(batched != scalar)


# ----------------------------------------------------------------------
# churn-pwc: mapping writes beside translation reads
# ----------------------------------------------------------------------


class Churn:
    """``on_epoch`` hook: remap and re-protect pages every epoch.

    ``anchor-dyn`` goes through its incremental ``unmap_page`` /
    ``map_page`` / ``protect_page``; every other scheme sees direct
    ``MemoryMapping`` mutation, adopted by ``sync_mapping`` at the next
    block.  Remapped pages move to fresh frames above the mapping's
    highest frame, so contiguity erodes as the run goes on.
    """

    def __init__(self, rng: np.random.Generator, mapping: Any,
                 remaps: int, protects: int) -> None:
        frozen = mapping.frozen()
        self.rng = rng
        self.vpns = frozen.vpns.copy()
        self.next_pfn = int(frozen.pfns.max()) + 1
        self.remaps = remaps
        self.protects = protects

    def pick(self, small: dict[int, int] | None, count: int) -> list[int]:
        """``count`` seeded pages; only 4 KiB leaves when ``small`` (an
        anchor directory's leaf map) is given."""
        picked: list[int] = []
        for index in self.rng.permutation(len(self.vpns)):
            vpn = int(self.vpns[index])
            if small is None or vpn in small:
                picked.append(vpn)
                if len(picked) == count:
                    break
        return picked

    def __call__(self, epoch: int, scheme: Any) -> None:
        mapping = scheme.mapping
        anchor = isinstance(scheme, AnchorScheme)
        pages = self.pick(scheme.directory.small if anchor else None,
                          self.remaps + self.protects)
        for vpn in pages[:self.remaps]:
            pfn, self.next_pfn = self.next_pfn, self.next_pfn + 1
            if anchor:
                scheme.unmap_page(vpn)
                scheme.map_page(vpn, pfn)
            else:
                mapping.unmap_page(vpn)
                mapping.map_page(vpn, pfn)
        for vpn in pages[self.remaps:]:
            prot = (DEFAULT_PROT & ~0b10
                    if mapping.protection_of(vpn) == DEFAULT_PROT
                    else DEFAULT_PROT)
            if anchor:
                scheme.protect_page(vpn, prot)
            else:
                mapping.set_protection(vpn, 1, prot)


class ChurnPwc(BenchWorkload):
    """``run_trace`` with per-epoch remaps on ``medium`` mappings, PWC on."""

    name = "churn-pwc"
    scenario = "medium"
    schemes = ("anchor-dyn", "cluster", "rmm", "base")

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        full = size == "full"
        self.workloads = ("mcf", "omnetpp", "sphinx3") if full else ("omnetpp",)
        self.references = 30_000 if full else 6_000
        self.epoch = 5_000 if full else 2_000
        self.remaps, self.protects = 32, 8
        self.machine = dataclasses.replace(DEFAULT_MACHINE, pwc=True)
        self.traces: dict[str, Any] = {}

    def inputs(self) -> dict[str, Any]:
        plans = {}
        for wi, workload in enumerate(self.workloads):
            mapping = scenarios.build_mapping(
                get_workload(workload).vmas(), self.scenario, seed=self.seed)
            hook = Churn(_rng(self.seed, wi, 0), mapping, self.remaps,
                         self.protects)
            plans[workload] = {"mapping": mapping_digest(mapping),
                               "first_pages": hook.pick(None, 8)}
        return {"workloads": list(self.workloads), "schemes": list(self.schemes),
                "scenario": self.scenario, "references": self.references,
                "epoch": self.epoch, "remaps": self.remaps,
                "protects": self.protects, "seed": self.seed, "plans": plans}

    def setup(self) -> None:
        self.traces = {w: get_workload(w).make_trace(self.references,
                                                     seed=self.seed)
                       for w in self.workloads}

    def teardown(self) -> None:
        self.traces = {}

    def run_cell(self, wi: int, ki: int, mode: str = "batched"
                 ) -> tuple[Any, Any]:
        workload, scheme_name = self.workloads[wi], self.schemes[ki]
        mapping = scenarios.build_mapping(
            get_workload(workload).vmas(), self.scenario, seed=self.seed)
        scheme = registry.make_scheme(scheme_name, mapping, self.machine)
        hook = Churn(_rng(self.seed, wi, ki), mapping, self.remaps,
                     self.protects)
        if workload not in self.traces:     # the oracle runs after teardown
            self.setup()
        result = engine.run_trace(
            scheme, self.traces[workload], epoch_references=self.epoch,
            on_epoch=hook, engine=mode)
        return result, mapping

    def run(self, budget: float, tick: Callable[[], None]) -> Any:
        # One operation is the whole workload x scheme matrix: single
        # cells differ in cost by seed, so their percentiles would move
        # with the seed rather than with the code.
        cells = []
        for wi in range(len(self.workloads)):
            for ki in range(len(self.schemes)):
                try:
                    cells.append((wi, ki, *self.run_cell(wi, ki)))
                except Exception as exc:  # noqa: BLE001 — a failed cell
                    cells.append((wi, ki, exc, None))
                tick()
        return cells

    def collect(self, raw: Any) -> Outcome:
        outcome = Outcome()
        for wi, ki, result, mapping in raw:
            key = f"{self.workloads[wi]}/{self.schemes[ki]}"
            outcome.ops += 1
            if mapping is None:
                outcome.failures += 1
                outcome.digests[key] = f"error: {result!r}"
                continue
            outcome.refs += self.references
            outcome.digests[key] = result_digest(result)
            outcome.digests[key + "/mapping"] = mapping_digest(mapping)
            outcome.stats.append(result.stats.to_dict())
        return outcome

    def oracle(self, outcome: Outcome) -> int:
        rng = _rng(self.seed, 11)
        wi = int(rng.integers(len(self.workloads)))
        ki = int(rng.integers(len(self.schemes)))
        result, mapping = self.run_cell(wi, ki, mode="scalar")
        key = f"{self.workloads[wi]}/{self.schemes[ki]}"
        return int(outcome.digests[key] != result_digest(result)) + int(
            outcome.digests.get(key + "/mapping") != mapping_digest(mapping))


# ----------------------------------------------------------------------
# service-mix: the simulation service under a closed loop
# ----------------------------------------------------------------------


class RequestStream:
    """The seeded request sequence of ``service-mix``.

    Fresh requests walk the fixed pool of (workload, scenario, scheme)
    shapes in rounds, each round a seeded permutation, so any prefix
    holds a near-even mix; round ``r`` asks for ``base + r`` references,
    which keeps every fresh key distinct.  Every ``repeat_every``-th
    request repeats a seeded earlier fresh request instead.
    """

    def __init__(self, seed: int, shapes: list[tuple[str, str, str]],
                 references: int, epoch: int, repeat_every: int) -> None:
        self.seed = seed
        self.shapes = shapes
        self.references = references
        self.epoch = epoch
        self.repeat_every = repeat_every
        self.issued: list[SimRequest] = []
        self._fresh: list[SimRequest] = []
        self._rng = _rng(seed, 23)
        self._round: list[tuple[str, str, str]] = []
        self._rounds = 0

    def _next_fresh(self) -> SimRequest:
        if not self._round:
            order = self._rng.permutation(len(self.shapes))
            self._round = [self.shapes[int(i)] for i in order[::-1]]
            self._rounds += 1
        workload, scenario, scheme = self._round.pop()
        request = SimRequest(
            workload=workload, scenario=scenario, scheme=scheme,
            references=self.references + self._rounds - 1, seed=self.seed,
            epoch_references=self.epoch)
        self._fresh.append(request)
        return request

    def next(self) -> SimRequest:
        index = len(self.issued)
        if self._fresh and index % self.repeat_every == self.repeat_every - 1:
            request = self._fresh[int(self._rng.integers(len(self._fresh)))]
        else:
            request = self._next_fresh()
        self.issued.append(request)
        return request

    def take(self, count: int) -> list[SimRequest]:
        return [self.next() for _ in range(count)]


_LISTENING = re.compile(r"listening on (\S+):(\d+)")


class ServiceMix(BenchWorkload):
    """``anchor-tlb serve`` with a warm one-worker pool, driven by a
    closed loop of one blocking client.

    One client keeps the loop a single pipeline (client, server, pool
    worker) that the single-threaded speed probe tracks; with two, the
    spread between runs doubled on the defining host.
    """

    name = "service-mix"
    slice_s = 4.5
    repeat_every = 4
    repeat_share = 1 / repeat_every

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        full = size == "full"
        workloads = (("astar_biglake", "cactusADM", "canneal", "sphinx3")
                     if full else ("omnetpp", "sphinx3"))
        scenarios = ("demand", "low", "medium") if full else ("low",)
        schemes = (("base", "thp", "cluster", "rmm", "anchor-dyn") if full
                   else ("base", "anchor-dyn"))
        self.shapes = [(w, s, k) for w in workloads for s in scenarios
                       for k in schemes]
        self.references = 3_000 if full else 1_500
        self.epoch = 1_000
        self.stream = self._stream()
        #: The stream's first distinct requests: the fixed outputs.
        self.first_requests = list(
            {r.key(): r for r in self._stream().take(32)}.values())
        #: The first reply to each key: its digest and stats.
        self.first_reply: dict[str, tuple[str, dict[str, int]]] = {}
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.replies: list[dict[str, Any]] = []

    def _stream(self) -> RequestStream:
        return RequestStream(self.seed, self.shapes, self.references,
                             self.epoch, self.repeat_every)

    def inputs(self) -> dict[str, Any]:
        return {"shapes": [list(s) for s in self.shapes],
                "repeat_share": self.repeat_share,
                "first_requests": [r.key() for r in self._stream().take(64)]}

    def setup(self) -> None:
        command = [sys.executable, "-m", "repro.experiments.cli", "serve",
                   "--port", "0", "--workers", "1"]
        self.workdir.mkdir(parents=True, exist_ok=True)
        log = self.workdir / "serve.log"
        # The server's stderr goes to a file: an unread pipe could fill
        # and stall it.
        with open(log, "w", encoding="utf-8") as handle:
            self.proc = subprocess.Popen(command, stderr=handle,
                                         stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while self.address is None and time.monotonic() < deadline:
            match = _LISTENING.search(log.read_text(encoding="utf-8"))
            if match:
                self.address = (match.group(1), int(match.group(2)))
            elif self.proc.poll() is not None:
                break
            else:
                time.sleep(0.01)
        if self.address is None:
            self.teardown()
            raise RuntimeError("service did not report its address")
        # Requests outside the stream (fewer references) warm the pool
        # worker and its per-process mapping memo, so cold mapping
        # builds land in set-up rather than in the first timed seconds.
        for workload, scenario in dict.fromkeys(
                (w, s) for w, s, _ in self.shapes):
            warm = SimRequest(workload=workload, scenario=scenario,
                              scheme="base", references=500, seed=self.seed)
            client.submit_and_wait(warm, *self.address, timeout=120)

    def teardown(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if self.address is not None and proc.poll() is None:
                client.drain(*self.address, timeout=60)
            proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait(timeout=60)
        finally:
            self.address = None

    def run(self, budget: float, tick: Callable[[], None]) -> Any:
        # Slices keep the loop between speed probes (see child.py).
        deadline = time.perf_counter() + min(budget, self.slice_s)
        assert self.address is not None
        replies: list[dict[str, Any]] = []
        while time.perf_counter() < deadline:
            request = self.stream.next()
            start = time.perf_counter()
            try:
                envelopes = list(client.submit(request, *self.address,
                                               timeout=120))
            except OSError as exc:
                envelopes = [{"event": "error", "error": repr(exc)}]
            latency = time.perf_counter() - start
            last = envelopes[-1] if envelopes else {"event": "error"}
            replies.append({"request": request, "latency": latency,
                            "event": last.get("event"), "envelope": last})
        return replies, client.status(*self.address, timeout=60)

    def collect(self, raw: Any) -> Outcome:
        replies, status = raw
        self.replies.extend(replies)
        outcome = Outcome(ops=len(replies), extra={"status": status,
                                                   "replies": replies})
        for reply in replies:
            outcome.latencies.append(reply["latency"])
            envelope = reply.pop("envelope")
            reply["digest"] = None
            if reply["event"] != "result":
                outcome.failures += 1
                continue
            payload = envelope["reply"]["payload"]
            reply["digest"] = digest_payload(payload)
            reply["cached"] = bool(envelope.get("cached"))
            reply["joined"] = bool(envelope.get("joined"))
            outcome.refs += reply["request"].references
            key = reply["request"].key()
            outcome.digests.setdefault(key, reply["digest"])
            self.first_reply.setdefault(
                key, (reply["digest"], payload["stats"]))
        return outcome

    def fixed_outputs(self, outcomes: list[Outcome]
                      ) -> tuple[dict[str, str], list[dict[str, int]]]:
        """The replies to :attr:`first_requests`, in stream order.

        Timing decides how far into the stream a run gets, so a first
        request the run never reached is computed here by a direct
        ``execute_request``, which :meth:`verify` holds every service
        reply equal to.
        """
        digests: dict[str, str] = {}
        stats: list[dict[str, int]] = []
        for request in self.first_requests:
            key = request.key()
            if key not in self.first_reply:
                payload = execute_request(request)
                self.first_reply[key] = (digest_payload(payload),
                                         payload["stats"])
            digests[key], reply_stats = self.first_reply[key]
            stats.append(reply_stats)
        return digests, stats

    def verify(self, outcomes: list[Outcome],
               pins: dict[str, str] | None) -> tuple[int, int, list[str]]:
        # The fixed outputs join the iterations so that the pins cover
        # them all, reached by the service or not.
        fixed = Outcome(digests=self.fixed_outputs(outcomes)[0])
        checks, mismatches, messages = super().verify(
            [*outcomes, fixed], pins)
        by_key: dict[str, SimRequest] = {}
        seen: dict[str, set[str]] = {}
        for reply in self.replies:
            if reply["digest"] is None:
                continue
            key = reply["request"].key()
            by_key[key] = reply["request"]
            seen.setdefault(key, set()).add(reply["digest"])
        keys = sorted(by_key)
        # Every distinct key is recomputed outside the service by a
        # direct execute_request, on at most nproc processes.
        workers = max(1, min(2, os.cpu_count() or 1))
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=get_context("spawn")) as pool:
            expected = list(pool.map(_payload_digest,
                                     [by_key[k] for k in keys], chunksize=8))
        for key, want in zip(keys, expected):
            checks += 1
            if seen[key] != {want}:
                mismatches += 1
                messages.append(f"service reply for {key[:12]} differs "
                                "from execute_request")
        return checks, mismatches, messages

    def oracle(self, outcome: Outcome) -> int:
        # verify() recomputes every reply with execute_request already.
        return 0


def _payload_digest(request: SimRequest) -> str:
    return digest_payload(execute_request(request))


WORKLOADS: dict[str, type[BenchWorkload]] = {
    cls.name: cls for cls in (Fig7Demand, FleetQ500, ChurnPwc, ServiceMix)
}


def modelled_totals(stats: list[dict[str, int]]) -> dict[str, float]:
    """*Simulated* design metrics summed over a workload's results."""
    total = {name: sum(s[name] for s in stats) for name in COUNTER_FIELDS}
    l2_lookups = total["accesses"] - total["l1_hits"]
    l2_hits = (total["l2_small_hits"] + total["l2_huge_hits"]
               + total["coalesced_hits"])
    return {
        "sim.l1_hit_ratio": (total["l1_hits"] / total["accesses"]
                             if total["accesses"] else 0.0),
        "sim.l2_hit_ratio": l2_hits / l2_lookups if l2_lookups else 0.0,
        "sim.coalesced_hits": float(total["coalesced_hits"]),
        "sim.walks": float(total["walks"]),
        "sim.walk_pt_accesses": float(total["walk_pt_accesses"]),
    }


def outputs_digest(digests: dict[str, str]) -> str:
    """One digest over a run's fixed outputs (for the compare report)."""
    return digest_payload(canonical_json(sorted(digests.items())))
