"""Per-rule positive and negative cases over the fixture trees.

Each fixture root mimics the package layout the rule scopes to
(``util/rng.py``, ``hw/``, ``sim/``...), is parsed but never
imported, and contains both violations and clean counterparts.
"""

from pathlib import Path

import pytest

from repro.checks.runner import run_checks

FIXTURES = Path(__file__).parent / "fixtures"


def findings_in(root_name, rules=None):
    root = FIXTURES / root_name
    result = run_checks([root], root=root, rules=rules)
    return result.findings


def by_file(findings):
    grouped = {}
    for f in findings:
        grouped.setdefault(f.path, []).append(f)
    return grouped


class TestDeterminism:
    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("detroot", rules=["determinism"])

    def test_flags_each_violation_kind(self, findings):
        messages = "\n".join(
            f.message for f in findings if f.path == "bad_det.py")
        assert "'random' module" in messages
        assert "np.random.default_rng" in messages
        assert "np.random.seed" in messages
        assert "time.time" in messages
        assert "datetime.now" in messages
        assert "hash()" in messages
        assert "os.listdir" in messages

    def test_clean_file_and_rng_exemption(self, findings):
        files = by_file(findings)
        assert "good_det.py" not in files  # monotonic clocks, sorted()
        assert "util/rng.py" not in files  # the sanctioned entropy source

    def test_findings_carry_hints(self, findings):
        assert all(f.hint for f in findings)


class TestDtypeHygiene:
    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("dtyperoot", rules=["dtype-hygiene"])

    def test_flags_bare_constructors_in_hot_paths(self, findings):
        files = by_file(findings)
        assert len(files["hw/bad.py"]) == 4  # zeros/array/full/arange
        assert len(files["sim/lru.py"]) == 1

    def test_explicit_dtype_passes(self, findings):
        assert "hw/good.py" not in by_file(findings)

    def test_out_of_scope_module_not_flagged(self, findings):
        assert "experiments/free.py" not in by_file(findings)


class TestFrozenMutation:
    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("frozenroot", rules=["frozen-mutation"])

    def test_every_mutation_kind_flagged(self, findings):
        bad = by_file(findings)["bad_frozen.py"]
        assert len(bad) == 6  # 2 subscript, 1 rebind, 1 augassign, 2 setflags

    def test_builder_and_readers_pass(self, findings):
        assert "good_frozen.py" not in by_file(findings)


class TestSuppression:
    @pytest.fixture(scope="class")
    def findings(self):
        return findings_in("supproot")

    def test_inline_and_file_pragmas(self, findings):
        # Three violations in suppressed.py: one silenced by a rule-
        # scoped pragma, one by a blanket pragma; the third pragma names
        # the wrong rule and must NOT silence anything.  skipped.py is
        # opted out entirely.
        here = [f for f in findings if f.path == "suppressed.py"]
        assert [(f.path, f.line) for f in here] == [("suppressed.py", 5)]

    def test_multiline_statement_anchoring(self, findings):
        # A pragma on the first line of a multi-line statement covers
        # the continuation lines too (the dict literal), but a pragma
        # on a def line covers the header only, never the body; and a
        # wrong-rule pragma on a spanned statement silences nothing.
        here = sorted(
            (f.line for f in findings if f.path == "multiline.py"))
        assert here == [19, 26]


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        findings_in("detroot", rules=["no-such-rule"])
