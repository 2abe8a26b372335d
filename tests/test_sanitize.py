"""The always-on write guards (``repro.sanitize``).

``FrozenMapping`` columns and every array a prototype scheme shares
with its clones are read-only on every run; this suite proves the
guards trap in-place writes, never walk dicts, and that every
registered scheme still clones and runs cleanly with them armed.
"""

import numpy as np
import pytest

from repro import sanitize
from repro.params import DEFAULT_MACHINE
from repro.schemes.registry import make_scheme, scheme_names
from repro.vmos.scenarios import build_mapping
from repro.vmos.vma import AllocationSite, layout_vmas


@pytest.fixture(scope="module")
def mapping_args():
    vmas = layout_vmas([AllocationSite(256, 1), AllocationSite(32, 2)])
    return vmas


class Untouchable(dict):
    """A dict attribute whose iteration raises: the guards must never
    walk into it."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the write guard iterated a dict")

    __iter__ = items = values = keys = _refuse


class TestFreezeRelease:
    def test_chases_arrays_through_containers(self):
        a, b, c, d = (np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4))
        nest = [(a, [b]), c, "not-an-array", {"skipped": d}]
        assert sanitize.freeze_arrays(nest) == 3
        for arr in (a, b, c):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        d[0] = 1  # arrays under a dict are never reached

    def test_views_are_skipped(self):
        base = np.zeros(8)
        view = base[2:6]
        assert sanitize.freeze_arrays(view) == 0
        assert sanitize.freeze_arrays(base) == 1
        # Views taken after the seal inherit read-only (the share
        # protocol freezes before clones materialise their views).
        with pytest.raises(ValueError, match="read-only"):
            base[4:8][0] = 1

    def test_freeze_is_idempotent(self):
        arr = np.zeros(4)
        assert sanitize.freeze_arrays(arr) == 1
        assert sanitize.freeze_arrays(arr) == 0


class TestFrozenMappingSeal:
    def test_columns_trap_writes_under_guard(self, mapping_args):
        mapping = build_mapping(mapping_args, "medium", seed=11)
        frozen = mapping.frozen()
        with pytest.raises(ValueError, match="read-only"):
            frozen.vpns[0] = 99
        with pytest.raises(ValueError, match="read-only"):
            frozen.pfns[-1] = 99

    def test_seal_skips_the_live_page_table(self, mapping_args):
        mapping = build_mapping(mapping_args, "medium", seed=11)
        frozen = mapping.frozen()
        frozen.page_table = Untouchable(frozen.page_table)
        assert sanitize.seal_mapping_columns(frozen) == 0  # already sealed


class TestCloneGuard:
    @pytest.mark.parametrize(
        "scheme_name", scheme_names(include_extras=True))
    def test_all_schemes_clone_and_run_guarded(self, mapping_args,
                                               scheme_name):
        mapping = build_mapping(mapping_args, "medium", seed=5)
        proto = make_scheme(scheme_name, mapping, DEFAULT_MACHINE)
        clone = proto.clone_fresh()
        clone.sync_mapping()
        vpns = np.asarray(
            sorted(vpn for vpn, _ in mapping.items())[:64], dtype=np.int64)
        clone.access_block(vpns)
        for vpn in vpns[:8]:
            clone.access(int(vpn))
        clone.stats.check_conservation()

    def test_guard_freezes_shared_not_per_clone(self, mapping_args):
        mapping = build_mapping(mapping_args, "medium", seed=5)
        proto = make_scheme("anchor-dyn", mapping, DEFAULT_MACHINE)
        proto.clone_fresh()
        shared_arrays = [
            arr
            for attr, value in vars(proto).items()
            if attr not in sanitize._PER_CLONE_ATTRS
            for arr in sanitize._arrays_in(value)
            if arr.base is None
        ]
        assert shared_arrays
        assert all(not arr.flags.writeable for arr in shared_arrays)

    @pytest.mark.parametrize(
        "scheme_name", scheme_names(include_extras=True))
    def test_guard_never_iterates_a_dict_attribute(self, mapping_args,
                                                   scheme_name):
        mapping = build_mapping(mapping_args, "medium", seed=5)
        proto = make_scheme(scheme_name, mapping, DEFAULT_MACHINE)
        column = np.zeros(4)
        proto.untouchable = Untouchable(column=column)
        proto.clone_fresh().access_block(
            np.asarray(sorted(vpn for vpn, _ in mapping.items())[:32],
                       dtype=np.int64))
        column[0] = 1  # under a dict, so never sealed
