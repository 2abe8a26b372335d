"""Clone isolation: driving one clone never changes its siblings.

A prototype scheme shares its mapping-derived state with every
``clone_fresh`` clone by reference, so a clone that writes into that
state in place corrupts the prototype and every other tenant built
from it.  Shared arrays are read-only (``repro.sanitize``), which traps
array stores at the faulting line; this suite covers everything else.
For every registered scheme, with the page-walk caches off and on, it
takes a prototype and two clones, drives clone A, and asserts that a
deep digest of the prototype's and clone B's state is unchanged.  The
digest skips what ``clone_fresh`` gives each clone privately — the
declared hardware and the stats — and the live mapping, which the OS
layer owns and mutates on purpose.

The in-test schemes at the bottom seed the mutation shapes this suite
and the guards must catch: a store into a shared dict and a base-class
append onto a shared list fail isolation, and a slice store or
``np.copyto`` into a shared array trips the guard.  ``self.hits += 1``
is not a sibling write: it rebinds a new int on the clone alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import types
from collections import deque

import numpy as np
import pytest

from repro.params import DEFAULT_MACHINE
from repro.sanitize import _PER_CLONE_ATTRS
from repro.schemes.baseline import BaselineScheme
from repro.schemes.registry import make_scheme, scheme_names
from repro.sim.engine import run_trace
from repro.sim.trace import Trace
from repro.vmos.mapping import DEFAULT_PROT
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import AllocationSite, layout_vmas

ALL_SCHEMES = scheme_names(include_extras=True)
MACHINES = {
    "pwc-off": DEFAULT_MACHINE,
    "pwc-on": dataclasses.replace(DEFAULT_MACHINE, pwc=True),
}
QUANTUM = 500

_SCALARS = (type(None), bool, int, float, complex, str, bytes, np.generic)
_CODE = (type, types.FunctionType, types.BuiltinFunctionType,
         types.ModuleType)


def _feed(h, value, opaque: set[int], seen: dict[int, int]) -> None:
    """Hash ``value`` and everything reachable from it into ``h``."""
    if isinstance(value, _SCALARS):
        h.update(repr((type(value).__name__, value)).encode())
        return
    if id(value) in opaque:
        h.update(b"<opaque>")
        return
    if id(value) in seen:
        h.update(f"<ref {seen[id(value)]}>".encode())
        return
    seen[id(value)] = len(seen)
    h.update(type(value).__qualname__.encode())
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key, item in value.items():
            _feed(h, key, opaque, seen)
            _feed(h, item, opaque, seen)
    elif isinstance(value, (set, frozenset)):
        for item in sorted(value, key=repr):
            _feed(h, item, opaque, seen)
    elif isinstance(value, (list, tuple, deque)):
        for item in value:
            _feed(h, item, opaque, seen)
    elif isinstance(value, _CODE):
        h.update(getattr(value, "__qualname__", "").encode())
    elif isinstance(value, types.MethodType):
        h.update(value.__func__.__qualname__.encode())
        _feed(h, value.__self__, opaque, seen)
    else:
        for name, item in _attributes(value):
            h.update(name.encode())
            _feed(h, item, opaque, seen)


def _attributes(obj):
    if hasattr(obj, "__dict__"):
        yield from vars(obj).items()
    for cls in type(obj).__mro__:
        for slot in cls.__dict__.get("__slots__", ()):
            if hasattr(obj, slot):
                yield slot, getattr(obj, slot)


def shared_digest(scheme, opaque: set[int]) -> str:
    """Digest of everything a scheme shares with its siblings."""
    private = _PER_CLONE_ATTRS | type(scheme).hardware.keys()
    h = hashlib.sha256()
    seen: dict[int, int] = {}
    for name, value in sorted(vars(scheme).items()):
        if name not in private:
            h.update(name.encode())
            _feed(h, value, opaque, seen)
    return h.hexdigest()


def check_isolation(proto, drive) -> None:
    """Drive one clone of ``proto``; the prototype and a second clone
    must come out bit-identical."""
    clone_a, clone_b = proto.clone_fresh(), proto.clone_fresh()
    mapping = proto.mapping
    # The live mapping and everything it holds belong to the OS layer.
    opaque = {id(mapping), *(id(v) for v in vars(mapping).values())}
    before = [shared_digest(s, opaque) for s in (proto, clone_b)]
    drive(clone_a)
    after = [shared_digest(s, opaque) for s in (proto, clone_b)]
    assert after == before, "driving a clone changed its siblings"


def sample_vpns(mapping, count=3000, seed=7):
    rng = np.random.default_rng(seed)
    mapped = np.asarray(sorted(vpn for vpn, _ in mapping.items()),
                        dtype=np.int64)
    return mapped[rng.integers(0, mapped.shape[0], size=count)]


def traffic(clone) -> None:
    """Quantum-500 blocks, scalar accesses and a flush, under a
    nonzero ASID."""
    vpns = sample_vpns(clone.mapping)
    clone.set_asid(3)
    clone.sync_mapping()
    for start in range(0, vpns.shape[0], QUANTUM):
        clone.access_block(vpns[start:start + QUANTUM])
    for vpn in vpns[:300].tolist():
        clone.access(vpn)
    clone.flush()
    clone.set_asid(4)
    clone.access_block(vpns[:QUANTUM])


class Churn:
    """``on_epoch`` hook: remap pages to fresh frames and toggle the
    protection of a few more, every epoch.  Schemes with incremental
    OS upkeep go through their own ``unmap_page``/``map_page``/
    ``protect_page``; the rest see the mapping mutate directly and
    adopt it through ``sync_mapping``."""

    def __init__(self, mapping, remaps=12, protects=4, seed=5):
        self.rng = np.random.default_rng(seed)
        self.next_pfn = max(pfn for _, pfn in mapping.items()) + 1
        self.remaps, self.protects = remaps, protects

    def __call__(self, epoch, scheme) -> None:
        mapping = scheme.mapping
        incremental = hasattr(scheme, "unmap_page")
        pool = (scheme.directory.small if incremental
                else dict(mapping.items()))
        pages = sorted(pool)
        picks = self.rng.choice(len(pages), self.remaps + self.protects,
                                replace=False)
        chosen = [pages[i] for i in picks.tolist()]
        for vpn in chosen[:self.remaps]:
            pfn, self.next_pfn = self.next_pfn, self.next_pfn + 1
            if incremental:
                scheme.unmap_page(vpn)
                scheme.map_page(vpn, pfn)
            else:
                mapping.unmap_page(vpn)
                mapping.map_page(vpn, pfn)
        for vpn in chosen[self.remaps:]:
            prot = (DEFAULT_PROT & ~0b10
                    if mapping.protection_of(vpn) == DEFAULT_PROT
                    else DEFAULT_PROT)
            if incremental:
                scheme.protect_page(vpn, prot)
            else:
                mapping.set_protection(vpn, 1, prot)


def churn(clone) -> None:
    vpns = sample_vpns(clone.mapping, count=2500, seed=11)
    run_trace(clone, Trace(vpns, vpns.shape[0] * 3, "churn"),
              epoch_references=QUANTUM, on_epoch=Churn(clone.mapping))


@pytest.fixture(scope="module")
def vmas():
    return layout_vmas([AllocationSite(1024, 1), AllocationSite(48, 3)])


@pytest.mark.parametrize("drive", [traffic, churn],
                         ids=["traffic", "churn"])
@pytest.mark.parametrize("machine", MACHINES.values(), ids=MACHINES.keys())
@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_clone_traffic_leaves_siblings_untouched(vmas, scheme_name,
                                                 machine, drive):
    mapping = build_mapping(vmas, "medium", seed=23)
    check_isolation(make_scheme(scheme_name, mapping, machine), drive)


# ----------------------------------------------------------------------
# Seeded violations: each mutation shape must be caught.
# ----------------------------------------------------------------------


class DictStoreScheme(BaselineScheme):
    def __init__(self, mapping, config=DEFAULT_MACHINE):
        super().__init__(mapping, config)
        self._runs = {}

    def access(self, vpn):
        self._runs[vpn] = self._runs.get(vpn, 0) + 1
        return super().access(vpn)


class LoggingBase(BaselineScheme):
    def __init__(self, mapping, config=DEFAULT_MACHINE):
        super().__init__(mapping, config)
        self.log_buf = []

    def note(self, event):
        self.log_buf.append(event)

    def flush(self):
        self.note("flush")
        super().flush()


class LoggedScheme(LoggingBase):
    """Registered only through the subclass; the write lives in the
    base class."""


class SliceStoreScheme(BaselineScheme):
    def __init__(self, mapping, config=DEFAULT_MACHINE):
        super().__init__(mapping, config)
        self.table = np.zeros(64, dtype=np.int64)

    def access(self, vpn):
        self.table[:1] = vpn
        return super().access(vpn)


class CopytoScheme(BaselineScheme):
    def __init__(self, mapping, config=DEFAULT_MACHINE):
        super().__init__(mapping, config)
        self.freq = np.zeros(64, dtype=np.int64)

    def flush(self):
        np.copyto(self.freq, 0)
        super().flush()


class CounterScheme(BaselineScheme):
    def __init__(self, mapping, config=DEFAULT_MACHINE):
        super().__init__(mapping, config)
        self.hits = 0

    def access(self, vpn):
        self.hits += 1
        return super().access(vpn)


@pytest.mark.parametrize("cls", [DictStoreScheme, LoggedScheme],
                         ids=["dict-store", "base-class-list"])
def test_shared_container_mutation_fails_isolation(vmas, cls):
    mapping = build_mapping(vmas, "medium", seed=23)
    with pytest.raises(AssertionError, match="changed its siblings"):
        check_isolation(cls(mapping), traffic)


@pytest.mark.parametrize("cls", [SliceStoreScheme, CopytoScheme],
                         ids=["slice-store", "copyto"])
def test_shared_array_store_hits_the_guard(vmas, cls):
    mapping = build_mapping(vmas, "medium", seed=23)
    with pytest.raises(ValueError, match="read-only"):
        check_isolation(cls(mapping), traffic)


def test_counter_rebind_is_not_a_sibling_write(vmas):
    mapping = build_mapping(vmas, "medium", seed=23)
    proto = CounterScheme(mapping)
    check_isolation(proto, traffic)
    assert proto.hits == 0
