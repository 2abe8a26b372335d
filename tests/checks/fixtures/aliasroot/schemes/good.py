"""Clean aliasing patterns: nothing here may be flagged."""

import numpy as np

from schemes.base import TranslationScheme


class CowScheme(TranslationScheme):
    """Copy-on-write: privatises via _own_*() before mutating."""

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.directory = {}

    def note_map(self, vpn):
        self._own_directory()
        self.directory[vpn] = True

    def _own_directory(self):
        self.directory = dict(self.directory)


class RebindScheme(TranslationScheme):
    """Binds sever the alias, so plain rebinds are always allowed."""

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.extents = ()

    def merge(self, more):
        self.extents = self.extents + tuple(more)


class BuilderScheme(TranslationScheme):
    """Mutations inside rebuild*/_build* choke points are allowed."""

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.index = np.zeros(16, dtype=np.int64)

    def rebuild(self):
        self.index[:] = 0
        self._build_index()

    def _build_index(self):
        self.index[0] = 1


class ResetScheme(TranslationScheme):
    """Attributes rebound by _reset_clone are per-clone, not shared."""

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.scratch = np.zeros(16, dtype=np.int64)

    def poke(self):
        self.scratch[0] = 1

    def _reset_clone(self):
        self.scratch = np.zeros(16, dtype=np.int64)


class HardwareScheme(TranslationScheme):
    """Declared hardware is rebuilt per clone, so it is not shared."""

    hardware = {"victim": None}

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.victim = np.zeros(16, dtype=np.int64)

    def fill(self):
        self.victim[0] = 1


class PrepScheme(TranslationScheme):
    """Helpers reachable from the share protocol are part of it."""

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.columns = np.zeros(16, dtype=np.int64)

    def _prepare_share(self):
        self._seal()

    def _seal(self):
        self.columns.setflags(write=False)
