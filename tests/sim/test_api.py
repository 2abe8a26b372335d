"""Tests for the unified SimRequest/SimReply API (repro.sim.api)."""

from __future__ import annotations

import warnings

import pytest

from repro.errors import OrchestrationError
from repro.sim.api import (
    SimReply,
    SimRequest,
    TenancyConfig,
    digest_payload,
    execute_request,
    simulate_request,
)


def request_of(**overrides) -> SimRequest:
    defaults = dict(
        workload="sphinx3", scenario="medium", scheme="base",
        references=500, seed=3,
    )
    defaults.update(overrides)
    return SimRequest(**defaults)


def fleet_request(**overrides) -> SimRequest:
    defaults = dict(
        workload="gups", scenario="medium", scheme="base",
        references=600, seed=5, kind="fleet",
        tenancy=TenancyConfig(tenants=4, quantum=200, active_pool=2),
    )
    defaults.update(overrides)
    return SimRequest(**defaults)


class TestKeyCompatibility:
    """SimRequest keys must be byte-identical to the keys the old
    JobSpec minted, so existing result caches stay valid."""

    def test_default_request_describes_like_jobspec(self):
        description = request_of().describe()
        # The legacy JobSpec hash covered exactly these fields...
        assert set(description) == {
            "format", "kind", "workload", "scenario", "scheme",
            "references", "seed", "epoch_references", "ideal_subsample",
            "machine",
        }
        # ...so new fields must stay out of the hash at their defaults.
        assert "engine" not in description
        assert "tenancy" not in description

    def test_default_key_matches_legacy_jobspec_key(self):
        # The key the pre-SimRequest JobSpec minted for this cell.
        assert request_of().key() == (
            "a0e4f504da22acd530a485992f4ca66b1b81160b6f65144a0a2bd5c930fa76fb")

    def test_non_default_engine_and_tenancy_perturb_key(self):
        base = request_of()
        assert request_of(engine="scalar").key() != base.key()
        assert fleet_request().key() != base.key()

    def test_key_is_stable_across_processes(self):
        """The key is a pure content hash — pin one value so an
        accidental format change cannot slip by unnoticed."""
        assert request_of().key() == digest_payload(request_of().describe())
        assert request_of().key() == request_of().key()

    def test_default_fleet_tenancy_hash_unchanged_by_sharding_fields(self):
        """Pre-sharding fleet caches must stay valid: at their defaults
        the new shards/trace_variants fields stay out of the tenancy
        hash, leaving exactly the PR 6 field set."""
        tenancy = fleet_request().tenancy.describe()
        assert set(tenancy) == {
            "tenants", "policy", "quantum", "active_pool", "storm_every",
            "storm_quantum", "mapping_variants", "asid_bits", "workloads",
            "scenarios",
        }

    def test_shards_and_trace_variants_perturb_key(self):
        base = fleet_request()
        sharded = fleet_request(
            tenancy=TenancyConfig(tenants=4, quantum=200, active_pool=2,
                                  shards=4))
        bounded = fleet_request(
            tenancy=TenancyConfig(tenants=4, quantum=200, active_pool=2,
                                  trace_variants=3))
        assert sharded.key() != base.key()
        assert bounded.key() != base.key()
        assert sharded.key() != bounded.key()

    def test_workers_never_enters_the_key(self):
        """Worker count is an execution knob: a shard's bytes are
        identical under any pool size, so two requests differing only
        in workers must share one cache entry."""
        serial = fleet_request(
            tenancy=TenancyConfig(tenants=4, quantum=200, active_pool=2,
                                  shards=4, workers=0))
        pooled = fleet_request(
            tenancy=TenancyConfig(tenants=4, quantum=200, active_pool=2,
                                  shards=4, workers=8))
        assert serial.key() == pooled.key()
        assert "workers" not in serial.tenancy.describe()


class TestWireForm:
    def test_round_trip(self):
        request = request_of()
        assert SimRequest.from_dict(request.to_dict()) == request

    def test_round_trip_with_tenancy(self):
        request = fleet_request()
        clone = SimRequest.from_dict(request.to_dict())
        assert clone == request
        assert clone.key() == request.key()

    def test_round_trip_preserves_sharding_fields(self):
        """workers rides the wire (the service honours it) even though
        it never enters the hash."""
        request = fleet_request(
            tenancy=TenancyConfig(tenants=4, quantum=200, active_pool=2,
                                  shards=4, trace_variants=3, workers=8))
        clone = SimRequest.from_dict(request.to_dict())
        assert clone == request
        assert clone.tenancy.workers == 8
        assert clone.tenancy.shards == 4
        assert clone.tenancy.trace_variants == 3

    def test_from_dict_accepts_pre_sharding_payloads(self):
        """Wire payloads minted before the sharding fields existed must
        still deserialize (defaults fill in)."""
        data = fleet_request().to_dict()
        for field in ("shards", "trace_variants", "workers"):
            data["tenancy"].pop(field, None)
        clone = SimRequest.from_dict(data)
        assert clone.tenancy.shards == 1
        assert clone.tenancy.trace_variants == 0
        assert clone.tenancy.workers == 0

    def test_round_trip_through_json(self):
        import json

        request = fleet_request(seed=None)
        clone = SimRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert clone == request

    def test_reply_round_trip(self):
        reply = SimReply(key="ab" * 32, payload={"stats": {"walks": 3}})
        assert SimReply.from_dict(reply.to_dict()) == reply


class TestExecuteRequest:
    def test_simulate_kind(self):
        payload = execute_request(request_of(references=300))
        assert payload["stats"]["accesses"] == 300
        assert payload["scheme"] == "base"

    def test_distances_kind(self):
        payload = execute_request(request_of(kind="distances", scheme="-"))
        assert set(payload) == {"distance"}
        assert payload["distance"] >= 1

    def test_fleet_kind(self):
        payload = execute_request(fleet_request())
        assert payload["tenants"] == 4
        assert payload["executed"] == 4 * 600
        assert payload["policy"] == "tagged"

    def test_fleet_without_tenancy_rejected(self):
        with pytest.raises(OrchestrationError, match="tenancy"):
            execute_request(request_of(kind="fleet"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(OrchestrationError, match="kind"):
            execute_request(request_of(kind="bogus"))

    def test_simulate_request_wraps_reply(self):
        request = request_of(references=300)
        reply = simulate_request(request)
        assert reply.key == request.key()
        assert reply.payload == execute_request(request)

    def test_engines_agree(self):
        batched = execute_request(request_of(references=400))
        scalar = execute_request(request_of(references=400, engine="scalar"))
        assert batched["stats"] == scalar["stats"]


class TestNoInternalShimCallers:
    """Exercising the public surface emits no DeprecationWarning."""

    def test_matrix_runner_path_is_warning_free(self):
        from repro.experiments.common import ExperimentConfig, MatrixRunner

        runner = MatrixRunner(ExperimentConfig(references=400, seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner.prefetch(["gups"], ["medium"], ["base"])
            result = runner.run("gups", "medium", "base")
        assert result.stats.accesses == 400

    def test_system_path_is_warning_free(self):
        from repro.system import System

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            system = System(seed=2, pressure="pristine",
                            total_frames=1 << 18)
            a = system.launch("sphinx3")
            b = system.launch("omnetpp")
            system.run(a, scheme="base", references=1_000)
            system.run_together([a, b], scheme="base", references=1_000,
                                quantum=400)
