"""Verdicts of the parent-versus-change report."""

from __future__ import annotations

import json
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_clear_gain_is_improved():
    cell = compare.verdict([100, 101, 99, 100, 102], [120, 121, 119, 122, 120],
                           "higher", 0.1)
    assert cell["verdict"] == "improved" and cell["won"] == 1.0


def test_loss_beyond_the_bound_is_worse():
    cell = compare.verdict([10, 10.2, 9.9, 10.1], [12, 12.1, 11.9, 12.2],
                           "lower", 0.1)
    assert cell["verdict"] == "worse"


def test_wide_parent_spread_is_unresolved():
    cell = compare.verdict([50, 100, 150, 80, 120], [95, 105, 100, 98, 102],
                           "higher", 0.1)
    assert cell["verdict"] == "unresolved"


def test_small_move_is_unchanged():
    cell = compare.verdict([100, 101, 99, 100], [101, 99, 100, 100],
                           "higher", 0.1)
    assert cell["verdict"] == "unchanged"


def record(seed, digest, value, failed=0):
    metrics = {m["name"]: {"value": value, "unit": m["unit"]}
               for m in BENCH["end_to_end"]}
    return {"workload": "fleet-q500", "seed": seed, "size": "full",
            "trace": 0, "failed": failed, "attempted": 1,
            "outputs_digest": digest, "metrics": metrics,
            "provenance": {"comparable": True}}


def test_digest_inequality_always_fails():
    parent = [record(1, "a", 10.0), record(2, "b", 10.0)]
    change = [record(1, "a", 10.0), record(2, "c", 10.0)]
    row = compare.compare(parent, change, BENCH)["workloads"]["fleet-q500"]
    assert row["failures"] == ["seed 2: outputs differ between runs"]
    assert "FAILED" in compare.render(
        {"workloads": {"fleet-q500": row}, "warnings": []})


def test_failed_run_fails_the_row():
    row = compare.compare([record(1, "a", 10.0)],
                          [record(1, "a", 10.0, failed=1)],
                          BENCH)["workloads"]["fleet-q500"]
    assert row["failures"]
