"""Rule ``tag-safety``: tagged schemes must tag every key they build.

Multi-tenant sharing packs an address-space tag into the high bits of
every TLB key (``repro.hw.tlb.TAG_SHIFT``).  A scheme that declares
``tag_safe_block = True`` promises its vectorised ``access_block``
stays correct when those tags are nonzero — which holds only if every
key-constructing path either goes through
:func:`repro.sim.lru.simulate_block` (which packs the tag itself) or
ORs a tag base in explicitly (``tag_base = arr.tag << TAG_SHIFT``,
``key | self.l2._tag_base``).  The ``scheme-contract`` rule checks the
*declaration*; this rule checks the *implementation*, using the
dataflow call graph to walk every helper reachable from
``access_block`` across files: the call tree must show tag evidence
somewhere — a ``simulate_block`` call, or a mention of ``TAG_SHIFT`` /
``tag_base`` / ``_tag_base``.

Which structures get retagged on a switch, flushed, or shared by a
tagged fleet is not checked here: all of that derives from each
scheme's ``hardware`` declaration, and
``tests/schemes/test_hardware_ownership.py`` walks every registered
scheme's instances to prove nothing escapes it.

Classes with ``tag_safe_block = False`` (e.g. the region-anchor
scheme) opt out of tagging wholesale — ``set_asid`` raises — and are
skipped.
"""

from __future__ import annotations

import ast

from repro.checks.base import Checker
from repro.checks.dataflow import ProjectDataflow, get_dataflow

_ROOT_CLASS = "TranslationScheme"

#: Any one of these in the ``access_block`` call tree counts as tag
#: evidence: the OR-idiom names, or the batched resolver that packs
#: tags itself.
_TAG_EVIDENCE = {"TAG_SHIFT", "tag_base", "_tag_base", "simulate_block"}


def _in_schemes(scoped_path: str) -> bool:
    return scoped_path.startswith("schemes/")


class TagSafetyChecker(Checker):
    rule = "tag-safety"
    description = (
        "tag_safe_block scheme whose block path never packs an "
        "address-space tag"
    )

    # -- check -----------------------------------------------------------

    def check(self) -> None:
        if not _in_schemes(self.ctx.scoped_path):
            return
        flow = get_dataflow(self.project)
        module = flow.modules.get(self.ctx.scoped_path)
        if module is None:
            return
        for cls in module.classes.values():
            if cls.name == _ROOT_CLASS:
                continue
            if not flow.chain_reaches(cls.name, _ROOT_CLASS):
                continue
            if not self._tag_safe(flow, cls.name):
                continue
            self._check_key_idiom(flow, cls)

    def _tag_safe(self, flow: ProjectDataflow, class_name: str) -> bool:
        value = flow.resolve_class_attr(class_name, "tag_safe_block")
        return isinstance(value, ast.Constant) and value.value is True

    def _node(self, lineno: int) -> ast.AST:
        marker = ast.Pass()
        marker.lineno = lineno
        marker.col_offset = 0
        return marker

    def _check_key_idiom(self, flow: ProjectDataflow, cls) -> None:
        own = cls.methods.get("access_block")
        if own is None:  # inherits the scalar loop: safe by construction
            return
        tree = flow.method_tree(cls.name, "access_block")
        mentions: set[str] = set()
        for fn in tree:
            mentions |= fn.mentions
            mentions.update(c.split(".")[-1] for c in fn.calls)
        if mentions & _TAG_EVIDENCE:
            return
        self.report(
            self._node(own.lineno),
            f"'{cls.name}.access_block' is declared tag-safe but its "
            "call tree never packs an address-space tag: no "
            "simulate_block call and no TAG_SHIFT/tag-base OR idiom",
            hint="route key construction through simulate_block, or OR "
                 "in `arr.tag << TAG_SHIFT` (see repro.hw.tlb) before "
                 "touching raw buckets; otherwise set tag_safe_block = "
                 "False",
        )
