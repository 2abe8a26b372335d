"""Tiny-size runs of every workload through the real command line."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_is_correct_and_reports_every_metric(workload):
    proc = run("--workload", workload, "--seed", "4", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, last_line = proc.stdout.strip().splitlines()
    last = json.loads(last_line)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    record = json.loads(record_line)["record"]
    assert record["fail_rate"] == 0
    assert record["provenance"]["seed"] == 4


def test_traced_run_reproduces_the_untraced_digests():
    # verify() checks traced outcomes against the untraced ones, so a
    # wrapper that changed any output would show up as a failure.
    proc = run("--workload", "fleet-q500", "--seed", "4", "--seconds", "2",
               "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert last["metrics"]["schedule.quanta"]["value"] > 0


def test_traced_service_runs_of_one_seed_report_equal_outputs():
    # Run lengths differ, so the runs reach different stream positions;
    # the fixed outputs and the sim.* metrics must not follow them.
    seen = []
    for seconds in ("1", "3"):
        proc = run("--workload", "service-mix", "--seed", "5",
                   "--seconds", seconds, "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        *_, record_line, last_line = proc.stdout.strip().splitlines()
        last = json.loads(last_line)
        assert last["correct"]
        sim = {k: v["value"] for k, v in last["metrics"].items()
               if k.startswith("sim.")}
        assert sim["sim.walks"] > 0
        seen.append((json.loads(record_line)["record"]["outputs_digest"],
                     sim))
    assert seen[0] == seen[1]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for file in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / file.name).write_text(file.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-demand",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
