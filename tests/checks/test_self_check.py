"""The repo gates on itself: the live ``src/`` tree stays lint-clean.

This is the in-tree twin of the CI ``static-analysis`` job — a
violation anywhere in ``src/repro`` fails tier-1 locally, with the
finding text in the assertion message, before CI ever sees it.
"""

import subprocess
from pathlib import Path

import pytest

from repro.checks.runner import run_checks

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_src_tree_is_clean_with_empty_baseline():
    result = run_checks([SRC], root=REPO_ROOT)
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"src/ has lint findings:\n{rendered}"
    assert result.exit_code == 0
    # The whole package was actually scanned, not an empty glob.
    assert result.files_scanned > 80


#: The CI "No tracked bytecode" step's query, verbatim.
BYTECODE_QUERY = ["ls-files", "--", "*.pyc", "*.pyo", "**/__pycache__/**"]


def _git(*args):
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args], capture_output=True,
            text=True, timeout=30, check=False)
    except OSError:
        return None


def test_no_tracked_bytecode():
    """Twin of the CI step: git tracks no compiled bytecode."""
    probe = _git("rev-parse", "--is-inside-work-tree")
    if probe is None or probe.stdout.strip() != "true":
        pytest.skip("not a git work tree")
    proc = _git(*BYTECODE_QUERY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "", f"tracked bytecode:\n{proc.stdout}"


def test_seeded_violation_is_caught():
    """The acceptance scenario: a bare default_rng in sim/ must fail."""
    scratch = SRC / "sim" / "_lint_canary.py"
    assert not scratch.exists()
    scratch.write_text(
        "import numpy as np\nRNG = np.random.default_rng(0)\n")
    try:
        result = run_checks([SRC], root=REPO_ROOT)
        assert result.exit_code == 1
        assert any(f.rule == "determinism"
                   and f.path.endswith("sim/_lint_canary.py")
                   for f in result.findings)
    finally:
        scratch.unlink()
