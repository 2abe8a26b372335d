"""Byte-identity pins and a scalar oracle for tagged fleets.

Each recipe time-shares ten tenants in waves of four at quantum 500
through one shared tagged hierarchy, with a 3-bit ASID namespace (seven
usable tags: enough for one wave, too few for the fleet) so the
allocator wraps and shoots recycled tags down between waves.  A
structure left private, retagged late, or missed by a shootdown changes
some tenant's counters and flips the digest.  The pins cover every
registered scheme with the page-walk caches off, plus one ``pwc=True``
machine per scheme family.

The differential runs the same recipe for every scheme, PWC off and
on, against the per-reference oracle: the base class's scalar loop,
whose every state touch goes through the structures' own
``lookup``/``insert``.  A block path that writes a key without the
running tenant's tag aliases another tenant's entry and diverges.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
from collections.abc import Iterator

import pytest

from repro.params import DEFAULT_MACHINE
from repro.schemes.base import TranslationScheme
from repro.schemes.registry import scheme_names
from repro.sim.tenants import TenantFleet, simulate_fleet

FLEET = TenantFleet(
    size=10,
    workloads=("gups", "omnetpp"),
    scenarios=("medium", "high"),
    references=2000,
    seed=4242,
    mapping_variants=2,
)

PWC_MACHINE = dataclasses.replace(DEFAULT_MACHINE, pwc=True)

#: sha256 of ``json.dumps(FleetResult.to_dict(), sort_keys=True)`` per
#: (scheme, pwc), taken before the hardware declarations replaced the
#: per-scheme flush/set_asid/clone code.
PINS = {
    ("anchor-dyn", False): (
        "7c2a2356eb0e60532c3d951d948181398508d667f9f12934ca6917745936a3ed"),
    ("base", False): (
        "55cc77448ce762612baba47f549e6aa62897a6713404903c3fd746cd63677a93"),
    ("cluster", False): (
        "79f36975e53cac8578e53ce8ed5fbc2066d9f3e578be872915fe9653c1ad7ecd"),
    ("cluster2mb", False): (
        "d7aa14029bb4bc0356c4511d308d545aef9ce831b0fb9e8cb95588d4f83c8a1e"),
    ("colt", False): (
        "1ec37106acc9dd870cc844c6c4ae87c00e89361800832ebbe67a8a3affb4d2d8"),
    ("prefetch", False): (
        "2d0342977302e5108ee18ae115e8f1b305dd28f80f75cb02a2ab2bfa51c5e570"),
    ("rmm", False): (
        "5d30163623962f6f33a9e278507780d832c74ab48083c1c9921ab116dbd655a0"),
    ("thp", False): (
        "4f331c20b13ccd047fcf241b7e55807ff7fbd61f92355d7d91aab10c981c5a14"),
    ("thp1g", False): (
        "ce0642a34e716e0ad6bb6b03e42ecb00dbdf9a51a6052aa1edf9ca48d4f77264"),
    ("anchor-dyn", True): (
        "80c49ecc236ed733c7ebd5fc7a44349ed68b47fae09b1f1ed5846a5ed0d0547a"),
    ("base", True): (
        "d8e3073b980c76b03f41ca18263e2862ce9746523babec887c013848181336f0"),
    ("cluster", True): (
        "2334050338bce6f08ada4d49d13f1348a7cfa5c3ecafe87e8150c162dcc2bcc8"),
    ("colt", True): (
        "ce270684f8368febe8c44ae62b9792427a26c6eead09cdde532651a2525cc72e"),
    ("prefetch", True): (
        "da5e4a7b3f0fdb7cba1c46d097014e9e6f3047b6e920ccd0e25e2020da09a602"),
    ("rmm", True): (
        "3661d7e01d86b29a25d3081d3668912b016e076206cc499a8ad90511626a5a68"),
    ("thp", True): (
        "18624f9c54d3b1a6f01d01b661b6e0fe9793ff0900dfdde4d5b7bfe38aa8dd4d"),
    # Pinned once the tag-packing structures made it tag-safe, after
    # its tagged fleet matched the scalar oracle below.
    ("anchor-region", False): (
        "9f830d8b77b7659ffceccbfd58b8b0652ed75e15ab2da73911e7a3dbed796957"),
    ("anchor-region", True): (
        "a2b691f33b14eb3490b4dadd9f5fd6647322524581291eb76fc2ade28fce1576"),
}


def run_pinned(scheme: str, pwc: bool):
    return simulate_fleet(
        FLEET, scheme=scheme,
        machine=PWC_MACHINE if pwc else DEFAULT_MACHINE,
        policy="tagged", quantum=500, active_pool=4, asid_bits=3,
    )


def digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "scheme,pwc", sorted(PINS),
    ids=[f"{s}-pwc{int(p)}" for s, p in sorted(PINS)])
def test_tagged_fleet_digest_pinned(scheme, pwc):
    result = run_pinned(scheme, pwc)
    # The recipe must exercise what it claims to pin: interleaved
    # switches inside a wave and a wrapped ASID namespace.
    assert result.waves == 3
    assert result.switches > FLEET.size
    assert result.asid_recycles == FLEET.size - 7
    assert digest(result) == PINS[(scheme, pwc)]


@contextlib.contextmanager
def scalar_access_blocks() -> Iterator[None]:
    """Point every scheme's ``access_block`` at the base class's
    per-reference loop (the scalar oracle) for the ``with`` body."""
    undo = []
    todo = list(TranslationScheme.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "access_block" in cls.__dict__:
            undo.append((cls, cls.__dict__["access_block"]))
            cls.access_block = TranslationScheme.access_block
    try:
        yield
    finally:
        for cls, method in undo:
            cls.access_block = method


@pytest.mark.parametrize("pwc", [False, True], ids=["pwc0", "pwc1"])
@pytest.mark.parametrize("scheme", scheme_names(include_extras=True))
def test_tagged_fleet_matches_scalar_oracle(scheme, pwc):
    batched = run_pinned(scheme, pwc).to_dict()
    with scalar_access_blocks():
        scalar = run_pinned(scheme, pwc).to_dict()
    assert batched == scalar
