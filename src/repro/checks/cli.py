"""``anchor-tlb check`` / ``python -m repro.checks`` front end."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.checks.baseline import (
    BaselineError,
    update_baseline,
    write_baseline,
)
from repro.checks.runner import run_checks
from repro.checks.rules import ALL_CHECKERS
from repro.checks.sarif import to_sarif_json

#: Default baseline location, relative to the working directory.  The
#: repo ships no baseline file at all — an absent file is an empty
#: baseline, which is the acceptance bar for new rules.
DEFAULT_BASELINE = "checks-baseline.json"


def _default_paths() -> list[Path]:
    src = Path("src/repro")
    if src.is_dir():
        return [src]
    import repro
    return [Path(repro.__file__).parent]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="anchor-tlb check",
        description="AST-based contract linter for the simulator "
                    "(determinism, frozen views, dtype hygiene)",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text; sarif emits a SARIF 2.1.0 "
             "log for GitHub code scanning)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=f"baseline file masking known findings "
             f"(default: {DEFAULT_BASELINE} if present)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record every current finding into the baseline file "
             "and exit 0",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="atomically rewrite the baseline keeping only entries "
             "that still fire (prunes stale fingerprints; does NOT "
             "adopt new findings — the exit code still reflects them)",
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="print per-phase wall-clock (parse once, then each rule) "
             "to stderr",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule ids and descriptions, then exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for checker in ALL_CHECKERS:
            print(f"{checker.rule:<18} {checker.description}")
        return 0

    baseline_path = args.baseline or Path(DEFAULT_BASELINE)
    rules = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules else None
    )
    try:
        result = run_checks(
            args.paths or _default_paths(),
            rules=rules,
            baseline_path=None if args.write_baseline else baseline_path,
        )
    except (BaselineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(baseline_path, result.findings)
        print(f"baseline with {len(result.findings)} finding(s) written "
              f"to {baseline_path}")
        return 0

    if args.update_baseline:
        kept, pruned = update_baseline(
            baseline_path, result.baselined, set(result.unused_baseline))
        print(f"baseline {baseline_path}: kept {kept} entrie(s), "
              f"pruned {pruned} stale")

    if args.format == "json":
        print(result.to_json())
    elif args.format == "sarif":
        print(to_sarif_json(result))
    else:
        print(result.render())
    if args.timings:
        print(result.render_timings(), file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
