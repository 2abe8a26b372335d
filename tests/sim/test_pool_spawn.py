"""Process pools under the spawn start method.

Every pool in the package comes from :func:`repro.sim.runner.process_pool`,
which prefers fork.  A forked worker inherits the parent's module
globals, so a global the pool forgot to wire still looks right there;
a spawned worker starts from a fresh import and exposes it.  These
tests force spawn and check that the Orchestrator and service pools
still see the shared trace store and still produce the serial results.
``ProcessPoolExecutor`` pickles every submission under any start
method, so a lambda or nested function submitted to a pool fails at
the submission site (see the last test).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.service import ServiceThread, submit_and_wait
from repro.sim import runner
from repro.sim.api import SimRequest, execute_request
from repro.sim.runner import Orchestrator, process_pool
from repro.sim.trace_store import TraceStore

SPAWN = multiprocessing.get_context("spawn")


def store_root(spec: SimRequest | None = None) -> dict:
    """Pool job: the trace store this worker process reads from."""
    store = runner._WORKER_TRACE_STORE
    return {"root": None if store is None else str(store.root)}


def request_of(**overrides) -> SimRequest:
    fields = dict(workload="gups", scenario="low", scheme="base",
                  references=5_000, seed=3)
    fields.update(overrides)
    return SimRequest(**fields)


@pytest.fixture
def spawn_pools(monkeypatch):
    monkeypatch.setattr(runner, "_POOL_CONTEXT", SPAWN)


def test_process_pool_wires_trace_store_under_spawn(spawn_pools, tmp_path):
    with process_pool(1, tmp_path) as pool:
        assert pool.submit(store_root).result() == {"root": str(tmp_path)}


def test_unwired_worker_global_is_lost_under_spawn(monkeypatch, tmp_path):
    """The failure the wiring prevents: a pool without the initializer
    leaves a spawned worker without the parent's configured store."""
    monkeypatch.setattr(runner, "_WORKER_TRACE_STORE", TraceStore(tmp_path))
    assert store_root() == {"root": str(tmp_path)}
    with ProcessPoolExecutor(1, mp_context=SPAWN) as pool:
        assert pool.submit(store_root).result() == {"root": None}


def test_orchestrator_pool_under_spawn(spawn_pools, tmp_path):
    traces = tmp_path / "traces"
    requests = [request_of(), request_of(scheme="thp")]
    probe = Orchestrator(workers=1, trace_store=traces, job_fn=store_root)
    seen, _ = probe.run(requests)
    assert all(p == {"root": str(traces)} for p in seen.values())

    pooled, summary = Orchestrator(workers=2, trace_store=traces).run(requests)
    assert summary.failed == 0
    serial, _ = Orchestrator(workers=0).run(requests)
    assert pooled == serial


def test_service_pool_under_spawn(spawn_pools, tmp_path):
    request = request_of()
    with ServiceThread(workers=1, cache_dir=tmp_path) as service:
        reply, _ = submit_and_wait(request, service.host, service.port)
    assert reply.payload == execute_request(request)


def test_unpicklable_jobs_fail_at_the_pool(tmp_path):
    """Lambdas and nested functions never cross a process boundary:
    each submission fails instead of running with stale state."""
    captured = {}

    def nested(spec):
        return captured

    for job in (lambda spec: {}, nested):
        _, summary = Orchestrator(workers=1, retries=0, job_fn=job).run(
            [request_of()])
        assert summary.failed == 1
        assert "pickle" in summary.failures[0].error.lower()
