from repro.checks_fixture.schemes.impl import (
    CleanCloneScheme,
    DeclaredScheme,
    ForgetfulScheme,
    RebuildingScheme,
)


def make_scheme(name, mapping):
    if name == "forgetful":
        return ForgetfulScheme(mapping)
    if name == "rebuilding":
        return RebuildingScheme(mapping)
    if name == "declared":
        return DeclaredScheme(mapping)
    return CleanCloneScheme(mapping)
