#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig7-demand --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in its own child
process (``PYTHONPATH`` pointing at the checkout's ``src``), so its
peak memory is its own.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` metrics from a
separate traced phase.  The line before it, ``{"record": ...}``, holds
everything else a comparison needs: seed, samples, output digests and
provenance (``perfbench/compare.py`` reads it from saved stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Working files (spans, the fleet's temporary trace store) live here.
OUT = ROOT / ".perfbench"
PINS = HERE / "pins.json"
#: Seed whose outputs ``pins.json`` pins; other seeds use the oracle.
DEFAULT_SEED = 1
#: The child must finish inside the contract's 180 s per run.
CHILD_TIMEOUT_S = 170.0
RESULT_MARK = "@perfbench-result "


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test inputs")
    parser.add_argument("--repin", action="store_true",
                        help="write this run's digests into pins.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser


# ----------------------------------------------------------------------
# Parent: spawn the workload, add memory and provenance, print.
# ----------------------------------------------------------------------


def _missing_sources() -> list[str]:
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "repro" / "__init__.py",
              ROOT / "benchmarks" / "hostmeta.py"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def provenance(seed: int) -> dict:
    """``hostmeta.host_metadata()`` plus seed and CPU count.

    A result counts for comparison only from a clean git tree: a dirty
    tree, or one whose state git cannot tell, is marked not comparable.
    """
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from hostmeta import host_metadata

    host = host_metadata()
    return {"host": host, "seed": seed, "nproc": os.cpu_count(),
            "comparable": host["dirty"] is False and host["commit"] is not None}


def parent(args: argparse.Namespace, argv: list[str]) -> int:
    missing = _missing_sources()
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(Path(__file__).resolve()), *argv, "--child"]
    # A process group of its own lets a timeout stop the workload together
    # with everything it started (the service and its pool).
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: workload timed out", file=sys.stderr)
        return 3
    results = [line[len(RESULT_MARK):] for line in stdout.splitlines()
               if line.startswith(RESULT_MARK)]
    if proc.returncode != 0 or not results:
        print(f"perfbench: workload exited with {proc.returncode}",
              file=sys.stderr)
        return 4
    child = json.loads(results[-1])
    group = "per_layer" if args.trace else "end_to_end"
    produced = child[group]
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
               for m in bench[group]}
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "metrics": metrics, **child["record"],
        "provenance": provenance(args.seed),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    failed = child["record"]["failed"]
    print(json.dumps({"correct": failed == 0,
                      "attempted": child["record"]["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    if args.child:
        from child import child_main

        result = child_main(args, OUT, PINS)
        print(RESULT_MARK + json.dumps(result, sort_keys=True), flush=True)
        return 0
    return parent(args, argv)


if __name__ == "__main__":
    sys.exit(main())
