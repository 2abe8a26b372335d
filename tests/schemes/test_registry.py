"""Tests for the scheme registry."""

import inspect

import pytest

from repro.schemes.base import TranslationScheme
from repro.schemes.registry import SCHEME_ORDER, make_scheme, scheme_names


class TestRegistry:
    def test_order_matches_figures(self):
        assert SCHEME_ORDER == (
            "base", "thp", "cluster", "cluster2mb", "rmm", "anchor-dyn"
        )

    def test_every_name_constructs(self, medium_mapping):
        for name in scheme_names(include_extras=True):
            scheme = make_scheme(name, medium_mapping)
            assert scheme.name.startswith(name.split("-")[0])

    def test_hollow_scheme_cannot_be_built(self, medium_mapping):
        """A scheme must implement ``access`` and ``_translate`` (the base
        class leaves both abstract) and report a name of its own."""

        class HollowScheme(TranslationScheme):
            pass

        assert HollowScheme.__abstractmethods__ == {"access", "_translate"}
        with pytest.raises(TypeError):
            HollowScheme(medium_mapping)
        names = [make_scheme(name, medium_mapping).name
                 for name in scheme_names(include_extras=True)]
        assert TranslationScheme.name not in names
        assert len(set(names)) == len(names), names

    def test_access_block_takes_only_vpns(self, medium_mapping):
        """The engine, the tenant scheduler and the fleet all call
        ``access_block(vpns)``; no scheme may widen that signature."""
        only_vpns = [("vpns", inspect.Parameter.POSITIONAL_OR_KEYWORD)]
        for name in scheme_names(include_extras=True):
            scheme = make_scheme(name, medium_mapping)
            params = inspect.signature(scheme.access_block).parameters
            assert [(p.name, p.kind) for p in params.values()] == only_vpns, (
                name, str(inspect.signature(scheme.access_block)))

    def test_anchor_static_requires_distance(self, medium_mapping):
        with pytest.raises(ValueError):
            make_scheme("anchor-static", medium_mapping)
        scheme = make_scheme("anchor-static", medium_mapping, distance=32)
        assert scheme.distance == 32

    def test_unknown_name(self, medium_mapping):
        with pytest.raises(ValueError):
            make_scheme("nope", medium_mapping)

    def test_extras_include_colt(self):
        assert "colt" in scheme_names(include_extras=True)
        assert "colt" not in scheme_names()
