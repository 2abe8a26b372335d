"""Multi-programmed simulation: context switches over shared TLBs.

The paper's OS integration notes (§3.1, §3.3) have two context-switch
consequences: the anchor distance register is restored per process
alongside CR3, and the native x86 kernel flushes the TLB on the switch
(which is why the paper considers the distance-change flush minor).

This module time-slices several (scheme, trace) pairs on one core.  Two
hardware models are supported:

* ``flush_on_switch=True`` — classic x86 without PCID: the incoming
  process starts with cold TLBs every quantum;
* ``flush_on_switch=False`` — tagged TLBs (ASID/PCID): each process's
  entries survive across switches (modelled by per-process state, i.e.
  an ideally partitioned tagged TLB).

Comparing the two quantifies how much of each scheme's benefit survives
realistic time slicing: coverage schemes (anchor, THP) refill much
faster after a flush, because one entry re-covers a whole window.

The scheduler itself has moved to :mod:`repro.sim.tenants`, which adds
the third model — a genuinely *shared* tagged hierarchy with ASID
recycling and per-tenant distance registers — and scales to fleets of
thousands of tenants (:func:`repro.sim.tenants.run_timeshared` runs
these processes).  This module keeps the :class:`ProcessRun` /
:class:`MultiProgramResult` data types.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.stats import TranslationStats
from repro.sim.trace import Trace


@dataclass
class ProcessRun:
    """One scheduled process: a scheme bound to its trace."""

    name: str
    scheme: object                #: a TranslationScheme
    trace: Trace
    position: int = 0

    @property
    def finished(self) -> bool:
        return self.position >= len(self.trace)


@dataclass
class MultiProgramResult:
    """Outcome of a multi-programmed run."""

    stats: dict[str, TranslationStats] = field(default_factory=dict)
    switches: int = 0
    flushes: int = 0
    #: Per-process scheduling slices actually executed (non-empty only).
    slices: dict[str, int] = field(default_factory=dict)
    #: Per-process references actually executed.
    executed: dict[str, int] = field(default_factory=dict)

    def total_walks(self) -> int:
        return sum(s.walks for s in self.stats.values())
