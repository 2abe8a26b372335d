"""Drive the rule suite over a file tree and format the results."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.checks.base import FileContext, ProjectContext
from repro.checks.baseline import load_baseline, split_by_baseline
from repro.checks.findings import Finding
from repro.checks.rules import ALL_CHECKERS

#: JSON output format version (consumers: the CI artifact, tests).
OUTPUT_FORMAT = 1


@dataclass
class CheckResult:
    """Everything one run produced."""

    root: str
    files_scanned: int
    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    unused_baseline: list[str] = field(default_factory=list)
    #: Wall-clock seconds per phase: ``parse``, one entry per rule id,
    #: and ``total``.  Each file is parsed exactly once (the parse
    #: phase); every rule then runs over the shared trees.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "format": OUTPUT_FORMAT,
            "root": self.root,
            "files_scanned": self.files_scanned,
            "rules": {c.rule: c.description for c in ALL_CHECKERS},
            "findings": [f.to_dict() for f in self.findings],
            "baselined": [f.to_dict() for f in self.baselined],
            "unused_baseline": sorted(self.unused_baseline),
            "timings_s": {k: round(v, 4) for k, v in self.timings.items()},
            "exit_code": self.exit_code,
        }

    def render_timings(self) -> str:
        parts = [
            f"{name:<18} {seconds * 1000.0:8.1f} ms"
            for name, seconds in self.timings.items()
        ]
        return "\n".join(parts)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render(self) -> str:
        parts = [f.render() for f in self.findings]
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_scanned} "
            f"file(s)"
        )
        if self.baselined:
            summary += f", {len(self.baselined)} baselined"
        if self.unused_baseline:
            summary += (
                f"; {len(self.unused_baseline)} stale baseline entrie(s) — "
                "prune with --update-baseline"
            )
        parts.append(summary)
        return "\n".join(parts)


def discover_files(paths: list[Path]) -> list[Path]:
    """Python files under ``paths``, sorted for stable output."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def run_checks(
    paths: list[Path],
    *,
    root: Path | None = None,
    rules: list[str] | None = None,
    baseline_path: Path | None = None,
) -> CheckResult:
    """Run the suite over ``paths`` and return the structured result.

    ``rules`` limits the run to those rule ids (default: all).
    ``baseline_path`` masks known findings; missing file = empty
    baseline.
    """
    root = (root or Path.cwd()).resolve()
    checker_classes = [
        c for c in ALL_CHECKERS if rules is None or c.rule in rules
    ]
    if rules is not None:
        unknown = set(rules) - {c.rule for c in ALL_CHECKERS}
        if unknown:
            raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")

    project = ProjectContext(root)
    findings: list[Finding] = []
    timings: dict[str, float] = {}
    started = time.perf_counter()

    # Parse phase: each file is read and parsed exactly once; every
    # rule below shares the resulting FileContext trees.
    for path in discover_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
            ctx = FileContext(path.resolve(), root, source)
        except (OSError, SyntaxError, ValueError) as exc:
            lineno = getattr(exc, "lineno", None) or 1
            findings.append(Finding(
                path=path.as_posix(),
                line=int(lineno),
                col=0,
                rule="parse-error",
                message=f"cannot analyse file: {exc}",
                hint="the checkers need the file to parse",
            ))
            continue
        if ctx.skip:
            continue
        project.files.append(ctx)
    timings["parse"] = time.perf_counter() - started

    # Rule phases, one rule at a time over every file, so each rule
    # gets honest per-rule wall-clock.
    for cls in checker_classes:
        rule_started = time.perf_counter()
        for ctx in project.files:
            checker = cls(ctx, project)
            checker.check()
            findings.extend(checker.findings)
        timings[cls.rule] = time.perf_counter() - rule_started

    findings.sort()
    baseline = load_baseline(baseline_path) if baseline_path else set()
    new, baselined, unused = split_by_baseline(findings, baseline)
    timings["total"] = time.perf_counter() - started
    return CheckResult(
        root=str(root),
        files_scanned=len(project.files),
        findings=new,
        baselined=baselined,
        unused_baseline=sorted(unused),
        timings=timings,
    )
