"""Runtime ownership check for the ``hardware`` declarations.

Each scheme declares the TLB structures it owns once, in its class's
``hardware`` table; ``flush``, ``set_asid``, ``clone_fresh`` and the
tagged fleet's sharing all derive from it.  These tests do not trust
the table: they walk every object reachable from a live scheme
*instance* and, for each one that defines ``set_tag`` (a structure
that can hold tagged translations), demand that

* it hangs off a declared entry;
* it carries tag ``n`` after ``set_asid(n)``;
* it is empty after ``flush()``;
* it is a fresh object in a ``clone_fresh()`` clone;
* in a 2-tenant tagged fleet it is the same object in both tenants
  exactly when its entry is shareable.

A scheme that builds a structure it does not declare fails all of the
instance checks (see the fixture at the bottom).
"""

from __future__ import annotations

import dataclasses
import types
from collections import deque

import numpy as np
import pytest

from repro.hw.tlb import SetAssociativeTLB
from repro.params import DEFAULT_MACHINE
from repro.schemes.baseline import BaselineScheme
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim import tenants
from repro.sim.tenants import TenantFleet, simulate_fleet
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import AllocationSite, layout_vmas

ALL_SCHEMES = scheme_names(include_extras=True)
PWC_MACHINE = dataclasses.replace(DEFAULT_MACHINE, pwc=True)

#: Values the walk never descends into.
_OPAQUE = (int, float, complex, str, bytes, bool, type(None), np.ndarray,
           np.generic, type, types.FunctionType, types.MethodType,
           types.BuiltinFunctionType, types.ModuleType)


def _children(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield repr(key), value
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for index, value in enumerate(obj):
            yield str(index), value
    else:
        if hasattr(obj, "__dict__"):
            yield from vars(obj).items()
        for cls in type(obj).__mro__:
            for slot in cls.__dict__.get("__slots__", ()):
                if hasattr(obj, slot):
                    yield slot, getattr(obj, slot)


def tag_structures(scheme) -> dict[tuple[str, ...], object]:
    """Every reachable object defining ``set_tag``, by attribute path
    (breadth first, so each gets its shortest path)."""
    found: dict[tuple[str, ...], object] = {}
    seen: set[int] = set()
    queue = deque(((name,), value) for name, value in vars(scheme).items())
    while queue:
        path, obj = queue.popleft()
        if isinstance(obj, _OPAQUE) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if callable(getattr(type(obj), "set_tag", None)):
            found[path] = obj
        queue.extend((path + (name,), child) for name, child in _children(obj))
    return found


def _occupancy(structure) -> int | None:
    return getattr(structure, "occupancy", None)


def _warm(scheme, mapping) -> None:
    vpns = np.asarray(sorted(vpn for vpn, _ in mapping.items()), dtype=np.int64)
    scheme.sync_mapping()
    scheme.access_block(vpns[:: max(1, vpns.shape[0] // 400)])
    for vpn in vpns[:16].tolist():
        scheme.access(vpn)


def check_declared(scheme) -> None:
    declared = type(scheme).hardware
    stray = [path for path in tag_structures(scheme) if path[0] not in declared]
    assert not stray, f"{scheme.name}: undeclared TLB structures {stray}"


def check_set_asid(scheme, asid: int) -> None:
    scheme.set_asid(asid)
    found = tag_structures(scheme)
    for path, structure in found.items():
        if hasattr(structure, "tag"):
            assert structure.tag == asid, (scheme.name, path)
        else:
            # A wrapper: the tag lives in the arrays it holds.
            assert any(len(p) > len(path) and p[:len(path)] == path
                       for p in found), (scheme.name, path)


def check_flush(scheme, mapping) -> None:
    _warm(scheme, mapping)
    found = tag_structures(scheme)
    assert any(_occupancy(s) for s in found.values()), scheme.name
    scheme.flush()
    for path, structure in found.items():
        assert _occupancy(structure) in (None, 0), (scheme.name, path)


def check_clone_fresh(scheme) -> None:
    prototype = {id(s) for s in tag_structures(scheme).values()}
    clone = scheme.clone_fresh()
    aliased = [path for path, s in tag_structures(clone).items()
               if id(s) in prototype]
    assert not aliased, f"{scheme.name}: clone shares {aliased}"


def shareable(scheme, path: tuple[str, ...]) -> bool:
    shared = type(scheme).hardware[path[0]].shared
    if isinstance(shared, str):
        return path[1:2] == (shared,)
    return shared


@pytest.fixture(scope="module")
def mapping():
    vmas = layout_vmas([AllocationSite(1024, 1), AllocationSite(48, 3)])
    return build_mapping(vmas, "medium", seed=23)


@pytest.mark.parametrize("pwc", [False, True], ids=["pwc-off", "pwc-on"])
@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_instance_matches_declaration(mapping, scheme_name, pwc):
    machine = PWC_MACHINE if pwc else DEFAULT_MACHINE
    scheme = make_scheme(scheme_name, mapping, machine)
    assert tag_structures(scheme)
    check_declared(scheme)
    check_set_asid(scheme, 5)
    check_flush(scheme, mapping)
    check_clone_fresh(scheme)


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_tagged_fleet_shares_exactly_the_shareable(monkeypatch, scheme_name):
    admitted = []
    original = tenants.run_schedule

    def capture(members, **kwargs):
        members = list(members)
        admitted.extend(member.scheme for member in members)
        return original(members, **kwargs)

    monkeypatch.setattr(tenants, "run_schedule", capture)
    fleet = TenantFleet(size=2, workloads=("gups",), scenarios=("medium",),
                        references=400, seed=1)
    simulate_fleet(fleet, scheme=scheme_name, machine=PWC_MACHINE,
                   policy="tagged", quantum=200, active_pool=2)
    first, second = admitted
    check_declared(first)
    mine, theirs = tag_structures(first), tag_structures(second)
    assert set(mine) == set(theirs)
    for path, structure in mine.items():
        same = theirs[path] is structure
        assert same == shareable(first, path), (scheme_name, path, same)


class UndeclaredVictimScheme(BaselineScheme):
    """Builds (and fills) a victim TLB its ``hardware`` never names."""

    def __init__(self, mapping, config=DEFAULT_MACHINE):
        super().__init__(mapping, config)
        self.victim = SetAssociativeTLB(32, 4)
        self.victim.insert(0, 0, 1)


@pytest.mark.parametrize("check", [
    lambda scheme, mapping: check_declared(scheme),
    lambda scheme, mapping: check_set_asid(scheme, 5),
    check_flush,
    lambda scheme, mapping: check_clone_fresh(scheme),
], ids=["declared", "set_asid", "flush", "clone_fresh"])
def test_undeclared_structure_fails_every_check(mapping, check):
    with pytest.raises(AssertionError):
        check(UndeclaredVictimScheme(mapping), mapping)
