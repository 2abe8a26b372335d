"""Repo-specific static analysis for the simulator.

The simulator's correctness rests on conventions that no runtime test
can see: all randomness flows through :mod:`repro.util.rng` so replays
are bit-identical, compiled
:class:`~repro.vmos.mapping.FrozenMapping` columns are never rebound
or made writable, and hot paths keep explicit numpy dtypes.  This
package checks those conventions statically, on the AST, so a
violation fails CI instead of surfacing as a subtly wrong experiment
later.  (The scheme, clone and tag contracts are enforced by runtime
suites under ``tests/schemes`` and ``tests/sim`` instead.)

Entry points:

* ``python -m repro.checks [paths...]`` (or ``anchor-tlb check``) —
  run every rule, print findings, exit non-zero if any remain;
* :func:`repro.checks.runner.run_checks` — the same, as a library call
  (used by the self-check test that keeps ``src/`` clean).

See ``docs/api_tour.md`` §13 for how to add a rule and how the
baseline/suppression mechanism works.
"""

from repro.checks.base import Checker, FileContext, ProjectContext
from repro.checks.findings import Finding
from repro.checks.runner import run_checks

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "ProjectContext",
    "run_checks",
]
