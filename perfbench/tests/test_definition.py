"""BENCHMARK.json against what the benchmark actually produces."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import child
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_every_name_is_well_formed_and_unique():
    names = ([w["name"] for w in BENCH["workloads"]]
             + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]])
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_workloads_match_the_implementations():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_per_layer_metrics_match_what_the_workload_process_reports():
    produced = set(child.layer_metrics(Tracer(), 1))
    produced |= set(child.service_metrics([]))
    produced |= set(workloads.modelled_totals([]))
    produced.add("tracing.overhead_ratio")
    assert produced == {m["name"] for m in BENCH["per_layer"]}


def test_end_to_end_bounds_and_setup_metric():
    metrics = {m["name"]: m for m in BENCH["end_to_end"]}
    assert metrics["setup_s"]["unit"] == "s"
    assert metrics["setup_s"]["better"] == "lower"
    bounds = [m["bound"] for m in BENCH["end_to_end"]]
    assert all(0 < b <= 0.25 for b in bounds)
    assert metrics["setup_s"]["bound"] == max(bounds)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = make(1, "tiny", tmp_path).inputs()
    again = make(1, "tiny", tmp_path).inputs()
    other = make(2, "tiny", tmp_path).inputs()
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert json.dumps(first, sort_keys=True) != json.dumps(other, sort_keys=True)
