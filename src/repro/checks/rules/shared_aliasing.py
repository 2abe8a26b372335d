"""Rule ``shared-aliasing``: prototype-shared state mutates only behind
privatisation choke points.

``clone_fresh`` copies the prototype's ``__dict__`` wholesale, so every
attribute *not* rebound by ``_reset_clone`` (or replaced outright by
``clone_fresh`` itself — the stats and every structure named in the
class's ``hardware`` declaration) is shared by reference between the
prototype and every clone.  PR 9's ``clone-contract`` rule polices
what ``_reset_clone`` may do; this rule is its cross-file
generalisation: it computes, per scheme, the set of shared attributes
and then checks that no method anywhere in the class hierarchy
*mutates* one in place outside the privatisation choke points.

The distinction that makes this checkable is **bind vs mutate**:

* a bind (``self.directory = AnchorDirectory.build(...)``) severs the
  alias — the prototype and the other clones keep the old object — and
  is therefore always allowed;
* an in-place mutation (``self.directory.note_map(...)``,
  ``self._arrays[0][i] = ...``, ``self.shootdowns += ...``) writes
  through the alias into every sibling tenant, and is allowed only in:

  - construction and rebuild paths (``__init__``, ``rebuild*``,
    ``_build*``, ``sync_mapping``, ``_on_mapping_update``),
  - the share protocol itself (``_prepare_share``, ``_reset_clone``)
    and everything those call,
  - copy-on-write methods: anything that first privatises via a
    ``self._own_*()`` call (the anchor directory's
    ``_own_directory()`` idiom) owns its copy and may mutate freely.

Attribute write-sets (including ``+=``, slice stores and in-place
numpy calls) come from the dataflow layer, so a mutation buried three
helpers deep in a base class two files away is still attributed to
every registered scheme that inherits it.
"""

from __future__ import annotations

import ast

from repro.checks.base import Checker
from repro.checks.findings import Finding
from repro.checks.dataflow import (
    FunctionModel,
    ProjectDataflow,
    get_dataflow,
)

_ROOT_CLASS = "TranslationScheme"

#: Attributes ``clone_fresh`` itself replaces on every clone besides
#: the declared hardware, plus the identity fields a clone legitimately
#: keeps writing through.
_PER_CLONE_ATTRS = {
    "mapping", "config", "stats", "name", "distance", "_synced_version",
}

#: Methods that may mutate shared state by name.
_CHOKE_POINTS = {
    "__init__", "_prepare_share", "_reset_clone",
    "sync_mapping", "_on_mapping_update",
}

_CHOKE_PREFIXES = ("rebuild", "_build", "_own")


class SharedAliasingChecker(Checker):
    rule = "shared-aliasing"
    description = (
        "in-place mutation of prototype-shared scheme state outside a "
        "privatisation choke point"
    )

    def _reported(self) -> set:
        return self.project.shared.setdefault(self.rule, set())

    def check(self) -> None:
        if not self.ctx.scoped_path.startswith("schemes/"):
            return
        flow = get_dataflow(self.project)
        registered = self._registered(flow)
        module = flow.modules.get(self.ctx.scoped_path)
        if module is None:
            return
        for cls in module.classes.values():
            if (cls.name not in registered
                    or not flow.chain_reaches(cls.name, _ROOT_CLASS)):
                continue
            self._check_class(flow, cls.name)

    def _registered(self, flow: ProjectDataflow) -> set[str]:
        names: set[str] = set()
        for ctx in self.project.files:
            if ctx.scoped_path != "schemes/registry.py":
                continue
            for node in ast.walk(ctx.tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)):
                    names.add(node.func.id)
        return names

    # -- shared-set computation -----------------------------------------

    def _shared_attrs(
        self, flow: ProjectDataflow, class_name: str
    ) -> set[str]:
        bound = flow.writes_in(
            list(flow.chain_methods(class_name).values()), kind="bind")
        # chain_methods is nearest-definition-wins, so a subclass
        # __init__ shadows the base one; follow the super().__init__
        # chain explicitly to pick up base-class binds too.
        bound |= flow.writes_in(
            flow.method_tree(class_name, "__init__"), kind="bind")
        reset = flow.writes_in(
            flow.method_tree(class_name, "_reset_clone"), kind="bind")
        return bound - reset - _PER_CLONE_ATTRS - self._hardware(
            flow, class_name)

    def _hardware(self, flow: ProjectDataflow, class_name: str) -> set[str]:
        """The string keys of every ``hardware`` table along the chain."""
        names: set[str] = set()
        for model in flow.chain(class_name):
            table = model.class_attrs.get("hardware")
            if isinstance(table, ast.Dict):
                names.update(
                    key.value for key in table.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str))
        return names

    def _exempt(
        self, flow: ProjectDataflow, class_name: str, fn: FunctionModel
    ) -> bool:
        if fn.name in _CHOKE_POINTS:
            return True
        if fn.name.startswith(_CHOKE_PREFIXES):
            return True
        # Copy-on-write: a method that privatises via self._own_*()
        # before writing owns its copy.
        if any(call.startswith("self._own") for call in fn.calls):
            return True
        return False

    def _check_class(
        self, flow: ProjectDataflow, class_name: str
    ) -> None:
        shared = self._shared_attrs(flow, class_name)
        if not shared:
            return
        # Everything reachable from the share protocol is part of it.
        protocol: set[tuple[str, str]] = set()
        for entry in ("_prepare_share", "_reset_clone", "__init__",
                      "_on_mapping_update", "sync_mapping"):
            protocol.update(
                fn.key() for fn in flow.method_tree(class_name, entry))
        reported = self._reported()
        for fn in flow.chain_methods(class_name).values():
            if self._exempt(flow, class_name, fn):
                continue
            if fn.key() in protocol:
                continue
            for write in fn.attr_writes:
                if write.kind != "mutate" or write.attr not in shared:
                    continue
                site = (fn.relpath, write.lineno, write.attr)
                if site in reported:
                    continue
                reported.add(site)
                self._report_site(fn, write, class_name)

    def _report_site(self, fn, write, class_name: str) -> None:
        # Report in the file that owns the write, under whatever
        # checker instance is bound to it — base-class mutations are
        # discovered while checking a subclass defined elsewhere.
        marker = ast.Pass()
        marker.lineno = write.lineno
        marker.col_offset = 0
        if fn.relpath != self.ctx.relpath:
            for ctx in self.project.files:
                if ctx.relpath == fn.relpath:
                    if ctx.is_suppressed(write.lineno, self.rule):
                        return
                    break
            self.findings.append(Finding(
                path=fn.relpath, line=write.lineno, col=0,
                rule=self.rule,
                message=self._message(fn, write, class_name),
                hint=self._hint(),
            ))
            return
        self.report(
            marker, self._message(fn, write, class_name),
            hint=self._hint(),
        )

    def _message(self, fn, write, class_name: str) -> str:
        detail = write.detail or "in-place write"
        return (
            f"'{fn.qualname}' mutates prototype-shared attribute "
            f"'{write.attr}' in place ({detail}): through clone_fresh "
            f"sharing this writes into every tenant cloned from the "
            f"same prototype (seen via '{class_name}')"
        )

    def _hint(self) -> str:
        return (
            "rebind a private copy first (self.attr = ..., or an "
            "_own_*() copy-on-write helper), reset it per-clone in "
            "_reset_clone, or do the mutation inside "
            "__init__/rebuild*/_build*"
        )

