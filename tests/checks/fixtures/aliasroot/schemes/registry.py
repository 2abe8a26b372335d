from schemes.bad import MutatingScheme
from schemes.good import (
    BuilderScheme,
    CowScheme,
    HardwareScheme,
    PrepScheme,
    RebindScheme,
    ResetScheme,
)


def make_scheme(name, mapping, config):
    if name == "mut":
        return MutatingScheme(mapping, config)
    if name == "cow":
        return CowScheme(mapping, config)
    if name == "rebind":
        return RebindScheme(mapping, config)
    if name == "builder":
        return BuilderScheme(mapping, config)
    if name == "reset":
        return ResetScheme(mapping, config)
    if name == "hardware":
        return HardwareScheme(mapping, config)
    if name == "prep":
        return PrepScheme(mapping, config)
    raise KeyError(name)
