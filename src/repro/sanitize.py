"""Write guards for numpy state that is shared by contract.

Two kinds of array are shared read-only by construction: the columns
of a :class:`~repro.vmos.mapping.FrozenMapping` (every scheme and
every tenant built from one mapping reads the same snapshot), and
everything a prototype scheme shares with its ``clone_fresh``
tenants.  The guards flip ``writeable=False`` on those arrays at share
time, on every run, so an in-place write through them raises
``ValueError: assignment destination is read-only`` at the exact
faulting store instead of silently corrupting a sibling tenant.

Guard points:

* ``FrozenMapping.__init__`` seals its ndarray columns once the
  snapshot is fully built (the builder's own ``|=`` boundary pass runs
  before the seal);
* ``TranslationScheme.clone_fresh`` guards the prototype's shared
  ``__dict__`` right after ``_prepare_share`` forces the lazy views —
  the declared hardware and the stats are recreated per clone and stay
  writable.

Privatisation paths rebind fresh arrays, which are born writable, so
copy-on-write needs no unguarding.  The guards only trap array
stores; mutation of shared dicts, lists and other objects is caught
by the clone-isolation suite (``tests/schemes/test_clone_isolation.py``),
which digests a prototype and a sibling clone around a driven clone.
The walk never enters a dict: the live page table and the schemes'
translation dicts are large, and none of them holds an array.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

#: Attributes never shared besides the scheme's declared hardware:
#: the stats ``clone_fresh`` replaces, plus the live mapping whose
#: arrays the OS layer legitimately mutates.
_PER_CLONE_ATTRS = frozenset({"stats", "mapping", "config"})

#: How deep to chase arrays through tuples/lists.  The share protocol
#: nests at most one container level (e.g. the sorted-view tuples of
#: array pairs).
_MAX_DEPTH = 3


def _arrays_in(value: Any, depth: int = _MAX_DEPTH) -> Iterator[np.ndarray]:
    if isinstance(value, np.ndarray):
        yield value
    elif depth > 0 and isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays_in(item, depth - 1)


def freeze_arrays(value: Any) -> int:
    """Flip ``writeable=False`` on every array reachable in ``value``.

    Arrays that are views of another base stay untouched — numpy
    forbids making a view writeable again while its base is read-only,
    and views taken after the seal inherit the read-only flag (the
    guard points run at share time, before clones materialise views).
    Returns the number of arrays frozen.
    """
    frozen = 0
    for arr in _arrays_in(value):
        if arr.base is None and arr.flags.writeable:
            arr.setflags(write=False)
            frozen += 1
    return frozen


def seal_mapping_columns(frozen_mapping: Any) -> int:
    """Seal the ndarray columns of a fully built ``FrozenMapping``.

    Only array slots are touched: the snapshot also keeps a reference
    to the live page-table dict, which is never walked.
    """
    sealed = 0
    for cls in type(frozen_mapping).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            value = getattr(frozen_mapping, slot, None)
            if isinstance(value, np.ndarray):
                sealed += freeze_arrays(value)
    return sealed


def guard_shared(scheme: Any) -> int:
    """Guard a prototype's shared state at ``clone_fresh`` time.

    Freezes every array reachable from the prototype's ``__dict__``
    except the per-clone attributes ``clone_fresh`` replaces outright
    (its declared ``hardware`` and the stats).  Idempotent — the
    prototype is guarded again on every clone, which also catches views
    materialised lazily between clones.
    """
    per_clone = _PER_CLONE_ATTRS | type(scheme).hardware.keys()
    guarded = 0
    for attr, value in vars(scheme).items():
        if attr not in per_clone:
            guarded += freeze_arrays(value)
    return guarded
