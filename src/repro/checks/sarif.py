"""SARIF 2.1.0 output for GitHub code scanning.

``anchor-tlb check --format sarif`` emits one run with every *new*
(non-baselined) finding as an ``error`` result, so the static-analysis
CI job can upload the file and findings annotate PR diffs.  Paths are
repo-relative (``uriBaseId: %SRCROOT%``), and the line-independent
finding fingerprint rides along as a partial fingerprint so GitHub
tracks a finding across rebases the same way the baseline does.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.checks.rules import ALL_CHECKERS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checks.runner import CheckResult

SARIF_VERSION = "2.1.0"
_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: Key under ``partialFingerprints``; versioned with the fingerprint
#: recipe (see ``repro.checks.findings``).
_FINGERPRINT_KEY = "anchorTlbFingerprint/v1"


def to_sarif(result: "CheckResult") -> dict:
    """The run as a SARIF 2.1.0 log dictionary."""
    rules = [
        {
            "id": checker.rule,
            "shortDescription": {"text": checker.description},
            "defaultConfiguration": {"level": "error"},
        }
        for checker in ALL_CHECKERS
    ]
    rules.append({
        "id": "parse-error",
        "shortDescription": {
            "text": "file could not be parsed for analysis"
        },
        "defaultConfiguration": {"level": "error"},
    })
    known = {rule["id"] for rule in rules}
    results = []
    for finding in result.findings:
        entry = {
            "ruleId": (finding.rule if finding.rule in known
                       else "parse-error"),
            "level": "error",
            "message": {
                "text": (f"{finding.message}\nhint: {finding.hint}"
                         if finding.hint else finding.message),
            },
            "partialFingerprints": {
                _FINGERPRINT_KEY: finding.fingerprint(),
            },
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": finding.col + 1,
                    },
                },
            }],
        }
        results.append(entry)
    return {
        "$schema": _SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "anchor-tlb-check",
                    "rules": rules,
                },
            },
            "results": results,
            "columnKind": "utf16CodeUnits",
        }],
    }


def to_sarif_json(result: "CheckResult") -> str:
    return json.dumps(to_sarif(result), indent=2)
