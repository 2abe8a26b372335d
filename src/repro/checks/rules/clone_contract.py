"""Rule ``clone-contract``: clones share views, they never rebuild them.

The fleet constructs one *prototype* scheme per mapping key and hands
every tenant a :meth:`~repro.schemes.base.TranslationScheme.clone_fresh`
copy: mapping-derived state (promotion maps, anchor directories,
sorted-array caches, range tables) is shared by reference, and only the
per-tenant state — the hardware a scheme declares in its ``hardware``
table, plus counters and resident-state caches reset by
``_reset_clone`` — is recreated.  That split is the whole point of the
optimisation — a clone that quietly rebuilds mapping-derived state pays
the O(mapping) cost the prototype exists to amortise, and a scheme that
forgets to reset its mutable hardware silently aliases one tenant's TLB
into another's.

Two ways the discipline erodes:

1. a registered scheme (or its base chain) neither declares its
   ``hardware`` nor defines ``_reset_clone`` — its access paths then
   mutate structures shared with the prototype and every sibling
   clone;
2. a ``_reset_clone`` override rebuilds mapping-derived state: it
   touches ``self.mapping``/``frozen``, calls a ``_build_*`` helper, or
   invokes one of the known expensive constructors (promotion passes,
   ``AnchorDirectory.build``, ``RangeTable``, sorted-array factories).
   The prototype-side hook ``_prepare_share`` is exempt — its job *is*
   forcing those lazy builds, once, before the first clone.
"""

from __future__ import annotations

import ast

from repro.checks.base import Checker, FileContext, dotted_name
from repro.checks.rules.scheme_contract import ClassInfo

_ROOT_CLASS = "TranslationScheme"

#: Mapping-derived builders a clone must inherit, never re-run.  Matched
#: against the head and tail of the dotted call name, so both
#: ``AnchorDirectory.build(...)`` and ``self.promote_huge_pages(...)``
#: are caught.
_EXPENSIVE_BUILDERS = {
    "promote_huge_pages",
    "promote_giga_pages",
    "RangeTable",
    "AnchorDirectory",
    "SortedMembership",
    "sorted_arrays",
    "partition_regions",
}


def _in_schemes(ctx: FileContext) -> bool:
    return ctx.scoped_path.startswith("schemes/")


class CloneContractChecker(Checker):
    rule = "clone-contract"
    description = (
        "TranslationScheme subclass violating the prototype-clone "
        "share-don't-rebuild discipline"
    )

    # -- collect: class map + registry-constructed names ----------------
    # (Same facts as scheme-contract, under this rule's own shared key:
    # rules run independently and in any subset.)

    def _shared(self) -> dict:
        return self.project.shared.setdefault(
            self.rule, {"classes": {}, "registered": set()})

    def collect(self) -> None:
        if not _in_schemes(self.ctx):
            return
        shared = self._shared()
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    name=node.name,
                    bases=[b for b in map(dotted_name, node.bases) if b],
                    relpath=self.ctx.relpath,
                    lineno=node.lineno,
                )
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info.methods.add(stmt.name)
                    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                                   else [stmt.target])
                        info.class_attrs.update(
                            t.id for t in targets if isinstance(t, ast.Name))
                shared["classes"][node.name] = info
        if self.ctx.scoped_path == "schemes/registry.py":
            for node in ast.walk(self.ctx.tree):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    shared["registered"].add(node.func.id)

    def _chain(self, name: str) -> list[ClassInfo]:
        classes = self._shared()["classes"]
        chain: list[ClassInfo] = []
        seen: set[str] = set()
        while name in classes and name not in seen and name != _ROOT_CLASS:
            seen.add(name)
            info = classes[name]
            chain.append(info)
            name = info.bases[0].split(".")[-1] if info.bases else ""
        return chain

    def _is_scheme(self, name: str) -> bool:
        chain = self._chain(name)
        return bool(chain) and any(
            b.split(".")[-1] == _ROOT_CLASS
            for info in chain for b in info.bases
        )

    # -- check ----------------------------------------------------------

    def check(self) -> None:
        if not _in_schemes(self.ctx):
            return
        super().check()

    def handle_class(self, node: ast.ClassDef) -> None:
        shared = self._shared()
        if node.name not in shared["registered"] or not self._is_scheme(node.name):
            return
        chain = self._chain(node.name)
        defined = {m for info in chain for m in info.methods}
        declared = {a for info in chain for a in info.class_attrs}
        if "_reset_clone" not in defined and "hardware" not in declared:
            self.report(
                node,
                f"registered scheme '{node.name}' neither declares its "
                "'hardware' nor defines '_reset_clone': clones alias the "
                "prototype's mutable hardware (L2 arrays, predictors, "
                "resident caches) and tenants bleed state into each other",
                hint="declare every TLB structure in the class's hardware "
                     "table and reset other per-tenant state in "
                     "_reset_clone(); mapping-derived views stay shared",
            )

    def handle_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        cls = self.current_class
        if (cls is None or len(self.func_stack) > 1
                or not any(stmt is node for stmt in cls.body)
                or cls.name == _ROOT_CLASS
                or not self._is_scheme(cls.name)
                or node.name != "_reset_clone"):
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr in ("mapping", "frozen"):
                self.report(
                    sub,
                    f"'{cls.name}._reset_clone' touches the mapping: "
                    "clones must inherit mapping-derived state from the "
                    "prototype, not re-derive it per tenant",
                    hint="build it once in __init__/_prepare_share and "
                         "share it by reference",
                )
            elif isinstance(sub, ast.Call):
                name = dotted_name(sub.func) or ""
                parts = name.split(".")
                builder = next(
                    (p for p in (parts[0], parts[-1])
                     if p in _EXPENSIVE_BUILDERS), None)
                if builder is not None or parts[-1].startswith("_build"):
                    what = builder or parts[-1]
                    self.report(
                        sub,
                        f"'{cls.name}._reset_clone' calls '{what}': "
                        "rebuilding mapping-derived state per clone "
                        "defeats the prototype amortisation",
                        hint="force the build on the prototype in "
                             "_prepare_share; _reset_clone only recreates "
                             "per-tenant hardware",
                    )
