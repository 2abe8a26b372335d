#!/usr/bin/env python3
"""Compare two result sets of the benchmark: parent against change.

    python3 perfbench/compare.py PARENT CHANGE [--json OUT]

``PARENT`` and ``CHANGE`` are files or directories holding the
``{"record": ...}`` lines that ``perfbench/run.py`` prints (its saved
stdout logs).  Runs pair up
in the order they were recorded, so alternate parent and change runs
when collecting them.

For each workload and end-to-end metric the report gives both medians
and quartiles, the share of pairs the change won (ties count for
neither side), and a verdict under the bound ``BENCHMARK.json`` fixes:

* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: the parent's own spread (quartile distance over
  median) exceeds the bound and not every change run beat every parent
  run;
* ``improved``: the change won at least nine tenths of the pairs and
  the medians differ by more than the parent's quartile distance;
* ``unchanged``: otherwise.

A workload whose outputs differ between the sets for the same seed, or
that has a failed run on either side, is reported ``FAILED``: digest
inequality is never a performance question.  The exit status is 1 when
any row is ``worse`` or ``FAILED``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def read_records(path: Path) -> list[dict[str, Any]]:
    """Every ``{"record": ...}`` line under ``path``, in file order."""
    files = sorted(path.rglob("*")) if path.is_dir() else [path]
    records = []
    for file in files:
        if not file.is_file():
            continue
        for line in file.read_text(encoding="utf-8").splitlines():
            if line.startswith('{"record"'):
                records.append(json.loads(line)["record"])
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict[str, Any]:
    """Medians, quartiles, pairs won and the verdict for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) > 0 for p, c in pairs)
    share = won / len(pairs) if pairs else 0.0
    worse_by = -sign * (cmed - pmed) / pmed if pmed else 0.0
    spread = (p3 - p1) / pmed if pmed else 0.0
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if worse_by > bound:
        outcome = "worse"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif share >= 0.9 and sign * (cmed - pmed) > p3 - p1:
        outcome = "improved"
    else:
        outcome = "unchanged"
    return {"parent": [p1, pmed, p3], "change": [c1, cmed, c3],
            "pairs": len(pairs), "won": share, "worse_by": worse_by,
            "parent_spread": spread, "verdict": outcome}


def output_failures(parent: list[dict], change: list[dict]) -> list[str]:
    """Why a workload's outputs cannot be trusted, if they cannot."""
    problems = [f"{side} run seed {r['seed']} failed {r['failed']} of "
                f"{r['attempted']}"
                for side, runs in (("parent", parent), ("change", change))
                for r in runs if r["failed"]]
    outputs: dict[tuple, set[str]] = {}
    modelled: dict[tuple, set[str]] = {}
    for record in parent + change:
        key = (record["seed"], record["size"])
        outputs.setdefault(key, set()).add(record["outputs_digest"])
        if record["trace"]:
            sim = {k: v["value"] for k, v in record["metrics"].items()
                   if k.startswith("sim.")}
            modelled.setdefault(key, set()).add(json.dumps(sim, sort_keys=True))
    for key in sorted(outputs):
        if len(outputs[key]) > 1 or len(modelled.get(key, ())) > 1:
            problems.append(f"seed {key[0]}: outputs differ between runs")
    return problems


def compare(parent: list[dict], change: list[dict],
            bench: dict) -> dict[str, Any]:
    report: dict[str, Any] = {"workloads": {}, "warnings": []}
    for side, runs in (("parent", parent), ("change", change)):
        loose = sum(not r["provenance"]["comparable"] for r in runs)
        if loose:
            report["warnings"].append(
                f"{loose} {side} run(s) not from a clean committed tree")
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            continue
        row: dict[str, Any] = {
            "failures": output_failures(p_runs, c_runs), "metrics": {}}
        p_timed = [r for r in p_runs if not r["trace"]]
        c_timed = [r for r in c_runs if not r["trace"]]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if not p_timed or not c_timed:
                break
            row["metrics"][name] = verdict(
                [r["metrics"][name]["value"] for r in p_timed],
                [r["metrics"][name]["value"] for r in c_timed],
                metric["better"], metric["bound"])
        p_traced = [r for r in p_runs if r["trace"]]
        c_traced = [r for r in c_runs if r["trace"]]
        if p_traced and c_traced:
            row["layers"] = {
                m["name"]: [
                    statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in runs)
                    for runs in (p_traced, c_traced)]
                for m in bench["per_layer"]}
        report["workloads"][workload] = row
    return report


def render(report: dict[str, Any]) -> str:
    lines = [f"warning: {w}" for w in report["warnings"]]
    header = (f"{'workload':<12} {'metric':<15} {'parent median [q1, q3]':>34}"
              f" {'change median [q1, q3]':>34} {'won':>5}  verdict")
    lines.append(header)
    for workload, row in report["workloads"].items():
        for problem in row["failures"]:
            lines.append(f"{workload:<12} FAILED: {problem}")
        for name, cell in row["metrics"].items():
            p1, pm, p3 = cell["parent"]
            c1, cm, c3 = cell["change"]
            lines.append(
                f"{workload:<12} {name:<15} {pm:>12.5g} [{p1:.5g}, {p3:.5g}]"
                f" {cm:>12.5g} [{c1:.5g}, {c3:.5g}] {cell['won']:>5.0%}  "
                + ("FAILED" if row["failures"] else cell["verdict"]))
        for name, (before, after) in row.get("layers", {}).items():
            if before or after:
                lines.append(f"{workload:<12}   layer {name:<28} "
                             f"{before:>12.5g} -> {after:<12.5g}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the report as JSON here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = compare(read_records(args.parent), read_records(args.change),
                     bench)
    print(render(report))
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1, sort_keys=True))
    bad = any(row["failures"] or any(c["verdict"] == "worse"
                                     for c in row["metrics"].values())
              for row in report["workloads"].values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
