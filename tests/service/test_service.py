"""End-to-end tests for the simulation service (repro.service).

Each test boots a real :class:`SimService` on an ephemeral port via
:class:`ServiceThread` and talks to it with the blocking client — the
same code path as ``anchor-tlb serve`` / ``anchor-tlb submit``.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import signal
import socket
import time

import pytest

from repro.service import ServiceThread, status, submit, submit_and_wait
from repro.sim.api import (
    SimRequest,
    TenancyConfig,
    execute_request,
    simulate_request,
)


def request_of(**overrides) -> SimRequest:
    defaults = dict(
        workload="gups", scenario="medium", scheme="base",
        references=10_000, seed=7,
    )
    defaults.update(overrides)
    return SimRequest(**defaults)


class TestBurstAndDedup:
    def test_three_request_burst_with_duplicate(self):
        """ISSUE acceptance: a duplicate request is served from cache
        without re-simulation, and the service drains cleanly."""
        first = request_of()
        other = request_of(scheme="thp")
        with ServiceThread(queue_limit=4) as service_thread:
            host, port = service_thread.host, service_thread.port
            reply_a, envelopes_a = submit_and_wait(first, host, port)
            reply_b, _ = submit_and_wait(other, host, port)
            reply_dup, envelopes_dup = submit_and_wait(first, host, port)
            metrics = status(host, port)["metrics"]

        assert metrics["received"] == 3
        assert metrics["computed"] == 2       # the duplicate never ran
        assert metrics["cache_hits"] == 1
        assert metrics["errors"] == 0
        assert reply_a.key != reply_b.key
        # The reply is byte-identical however it was resolved...
        assert reply_dup == reply_a
        # ...while the transport envelope records the resolution path.
        assert envelopes_a[-1]["cached"] is False
        assert envelopes_dup[-1]["cached"] is True

    def test_concurrent_duplicates_join_inflight(self):
        request = request_of(references=30_000)
        with ServiceThread(queue_limit=4) as service_thread:
            host, port = service_thread.host, service_thread.port
            with concurrent.futures.ThreadPoolExecutor(3) as pool:
                replies = [
                    future.result()[0]
                    for future in [
                        pool.submit(submit_and_wait, request, host, port)
                        for _ in range(3)
                    ]
                ]
            metrics = status(host, port)["metrics"]
        assert metrics["computed"] == 1
        assert metrics["cache_hits"] + metrics["joined_inflight"] == 2
        assert replies[0] == replies[1] == replies[2]

    def test_envelope_stream_shape(self):
        request = request_of(references=8_000, epoch_references=2_000)
        with ServiceThread() as service_thread:
            events = [
                envelope["event"]
                for envelope in submit(
                    request, service_thread.host, service_thread.port
                )
            ]
        assert events[0] == "accepted"
        assert events[-1] == "result"
        assert events.count("epoch") == 4

    def test_epoch_replay_identical_for_cached_requests(self):
        """Every client of a key sees the same epoch stream, whether
        the result was computed for it or replayed from the cache."""
        request = request_of(references=9_000, epoch_references=3_000)
        with ServiceThread() as service_thread:
            host, port = service_thread.host, service_thread.port
            _, first = submit_and_wait(request, host, port)
            _, second = submit_and_wait(request, host, port)
        epochs_first = [e for e in first if e["event"] == "epoch"]
        epochs_second = [e for e in second if e["event"] == "epoch"]
        assert epochs_first == epochs_second
        assert len(epochs_first) == 3


class TestByteIdentity:
    def test_service_reply_identical_to_direct_execution(self):
        """ISSUE acceptance: workers=0 in-process execution and a
        service-submitted request produce byte-identical replies for
        the same key."""
        request = request_of(references=15_000)
        direct = simulate_request(request)
        with ServiceThread(workers=0) as service_thread:
            served, _ = submit_and_wait(
                request, service_thread.host, service_thread.port
            )
        assert served.key == direct.key == request.key()
        assert served.payload == direct.payload

    def test_fleet_request_through_service(self):
        request = request_of(
            references=800, kind="fleet",
            tenancy=TenancyConfig(tenants=4, quantum=200, active_pool=2),
        )
        direct = execute_request(request)
        with ServiceThread() as service_thread:
            served, _ = submit_and_wait(
                request, service_thread.host, service_thread.port
            )
        assert served.payload["tenants"] == 4
        # FleetResult.to_dict carries no process-dependent fields, so
        # the served payload equals the in-process one byte for byte.
        assert served.payload == direct

    def test_sharded_parallel_fleet_through_service(self):
        """A workers>0 fleet runs its own shard pool from the service
        parent and still returns the workers=0 bytes — and both worker
        counts hash to the same key (one cache entry)."""
        tenancy = TenancyConfig(tenants=6, quantum=200, active_pool=2,
                                shards=3, workers=2)
        request = request_of(references=800, kind="fleet", tenancy=tenancy)
        serial = request_of(
            references=800, kind="fleet",
            tenancy=TenancyConfig(tenants=6, quantum=200, active_pool=2,
                                  shards=3, workers=0),
        )
        assert request.key() == serial.key()
        direct = execute_request(serial)
        with ServiceThread() as service_thread:
            served, _ = submit_and_wait(
                request, service_thread.host, service_thread.port
            )
        assert served.payload == direct
        assert served.payload["shards"] == 3


class TestPersistentCache:
    def test_results_survive_service_restart(self, tmp_path):
        request = request_of(references=12_000)
        with ServiceThread(cache_dir=tmp_path) as service_thread:
            reply_first, _ = submit_and_wait(
                request, service_thread.host, service_thread.port
            )
        with ServiceThread(cache_dir=tmp_path) as service_thread:
            reply_second, envelopes = submit_and_wait(
                request, service_thread.host, service_thread.port
            )
            metrics = status(
                service_thread.host, service_thread.port
            )["metrics"]
        assert reply_second == reply_first
        assert envelopes[-1]["cached"] is True
        assert metrics["computed"] == 0


class TestFailureHandling:
    def test_bad_request_yields_error_envelope(self):
        request = request_of(workload="no-such-workload")
        with ServiceThread() as service_thread:
            envelopes = list(submit(
                request, service_thread.host, service_thread.port
            ))
            metrics = status(
                service_thread.host, service_thread.port
            )["metrics"]
        assert envelopes[-1]["event"] == "error"
        assert "no-such-workload" in envelopes[-1]["error"]
        assert metrics["errors"] == 1

    @pytest.mark.parametrize("line, message", [
        pytest.param(b"[1]", "JSON object", id="[1]"),
        pytest.param(b'"x"', "JSON object", id='"x"'),
        pytest.param(b"3", "JSON object", id="3"),
        pytest.param(b"{not json", "malformed JSON", id="malformed"),
        pytest.param(b'{"op": "bogus"}', "unknown op 'bogus'",
                     id="unknown-op"),
    ])
    def test_non_object_line_keeps_connection_open(self, line, message):
        """A protocol error — valid JSON that is not an object, a line
        that is not JSON, an unknown op — gets an error envelope and
        counts as an error; the same connection still answers status."""
        with ServiceThread() as service_thread:
            with socket.create_connection(
                    (service_thread.host, service_thread.port),
                    timeout=30) as sock:
                stream = sock.makefile("rwb")
                stream.write(line + b"\n" + b'{"op": "status"}\n')
                stream.flush()
                error = json.loads(stream.readline())
                reply = json.loads(stream.readline())
        assert error["event"] == "error"
        assert message in error["error"]
        assert reply["event"] == "status"
        assert reply["metrics"]["errors"] == 1

    def test_error_does_not_poison_cache(self):
        bad = request_of(workload="no-such-workload")
        good = request_of()
        with ServiceThread() as service_thread:
            host, port = service_thread.host, service_thread.port
            assert list(submit(bad, host, port))[-1]["event"] == "error"
            # The same bad key errors again (not served from cache)...
            assert list(submit(bad, host, port))[-1]["event"] == "error"
            # ...and good requests still work.
            reply, _ = submit_and_wait(good, host, port)
        assert reply.payload["stats"]["accesses"] == 10_000

    def test_submit_and_wait_raises_on_error(self):
        with ServiceThread() as service_thread:
            with pytest.raises(RuntimeError):
                submit_and_wait(
                    request_of(workload="no-such-workload"),
                    service_thread.host,
                    service_thread.port,
                )


class TestWorkerDeath:
    def test_pool_rebuilt_after_worker_sigkill(self):
        """A dead pool worker costs one rebuild, not every later
        request: the next submission is retried on a fresh pool and
        answers exactly like direct execution."""
        request = request_of(seed=11)
        direct = execute_request(request)
        with ServiceThread(workers=1) as service_thread:
            host, port = service_thread.host, service_thread.port
            submit_and_wait(request_of(references=2_000), host, port)
            (worker,) = service_thread.service._pool._processes.values()
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=30)
            served, _ = submit_and_wait(request, host, port)
            metrics = status(host, port)["metrics"]
        assert served.key == request.key()
        assert (json.dumps(served.payload, sort_keys=True)
                == json.dumps(direct, sort_keys=True))
        assert metrics["pool_restarts"] == 1
        assert metrics["errors"] == 0


class TestBackpressure:
    def test_overflow_rejected_not_queued(self):
        """With one admission slot and a tiny timeout, a second distinct
        in-flight request is rejected with backpressure, not queued
        without bound."""
        slow = request_of(references=200_000)
        other = request_of(references=200_000, scheme="thp")
        with ServiceThread(queue_limit=1, queue_timeout=0.05) as service_thread:
            host, port = service_thread.host, service_thread.port
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                slow_future = pool.submit(submit_and_wait, slow, host, port)
                # Wait until the slow job is registered in-flight (and so
                # holds the only admission slot) before offering the
                # competitor, else the competitor can win the slot and
                # the slow job itself gets the rejection.
                while (status(host, port)["inflight"] == 0
                       and not slow_future.done()):
                    time.sleep(0.01)
                outcomes = []
                # Retry until the slow job actually occupies the slot.
                while not slow_future.done():
                    envelopes = list(submit(other, host, port))
                    outcomes.append(envelopes[-1])
                    if envelopes[-1]["event"] == "rejected":
                        break
                slow_future.result()
            metrics = status(host, port)["metrics"]
        rejected = [o for o in outcomes if o["event"] == "rejected"]
        if rejected:  # the race is real: only assert when it was hit
            assert rejected[-1]["reason"] == "backpressure"
            assert metrics["rejected"] >= 1


class TestCliEntryPoints:
    def test_serve_and_submit_reachable_from_cli(self):
        """'anchor-tlb serve' / 'anchor-tlb submit' dispatch before the
        experiment argument parser."""
        import repro.experiments.cli as cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--help"])
        assert excinfo.value.code == 0
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["submit", "--help"])
        assert excinfo.value.code == 0

    def test_submit_main_against_live_service(self, capsys):
        from repro.service.client import submit_main

        with ServiceThread() as service_thread:
            code = submit_main([
                "--port", str(service_thread.port),
                "--workload", "gups", "--scenario", "low",
                "--scheme", "base", "--references", "5000", "--seed", "1",
            ])
            assert code == 0
            envelopes = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
            ]
            assert envelopes[-1]["event"] == "result"

            code = submit_main([
                "--port", str(service_thread.port), "--op", "status",
            ])
            assert code == 0
            metrics = json.loads(capsys.readouterr().out)["metrics"]
            assert metrics["computed"] == 1


class TestClientRetries:
    def test_connect_retries_until_server_appears(self, monkeypatch):
        """The first connects are refused (cold server); the backoff
        loop keeps trying and succeeds once the socket exists."""
        from repro.service import client as client_mod

        real_connect = client_mod.socket.create_connection
        failures = {"left": 2}
        attempts = []

        def flaky(address, timeout=None):
            attempts.append(address)
            if failures["left"] > 0:
                failures["left"] -= 1
                raise ConnectionRefusedError("cold server")
            return real_connect(address, timeout=timeout)

        with ServiceThread() as service_thread:
            # Patch after startup so the thread's own readiness probe
            # does not consume the scripted failures.
            monkeypatch.setattr(client_mod.socket, "create_connection",
                                flaky)
            snapshot = client_mod.status(
                service_thread.host, service_thread.port,
                retries=5, retry_delay=0.01,
            )
            status_attempts = len(attempts)
        assert snapshot["event"] == "status"
        assert failures["left"] == 0
        assert status_attempts == 3  # two refusals + one success

    def test_retries_exhausted_raises(self, monkeypatch):
        from repro.service import client as client_mod

        calls = []

        def always_refused(address, timeout=None):
            calls.append(address)
            raise ConnectionRefusedError("nobody home")

        monkeypatch.setattr(client_mod.socket, "create_connection",
                            always_refused)
        with pytest.raises(OSError):
            client_mod.status("127.0.0.1", 1, retries=3, retry_delay=0.001)
        assert len(calls) == 4  # first attempt + three retries

    def test_no_retries_by_default(self, monkeypatch):
        from repro.service import client as client_mod

        calls = []

        def always_refused(address, timeout=None):
            calls.append(address)
            raise ConnectionRefusedError("nobody home")

        monkeypatch.setattr(client_mod.socket, "create_connection",
                            always_refused)
        with pytest.raises(OSError):
            client_mod.status("127.0.0.1", 1)
        assert len(calls) == 1
