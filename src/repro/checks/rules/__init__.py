"""The rule suite.  Each module is one :class:`~repro.checks.base.Checker`.

To add a rule: subclass ``Checker`` in a new module here, set ``rule``
and ``description``, implement ``visit_*`` methods, then append the
class to ``ALL_CHECKERS``.  ``docs/api_tour.md`` §13 walks through an
example.
"""

from repro.checks.rules.determinism import DeterminismChecker
from repro.checks.rules.dtype_hygiene import DtypeHygieneChecker
from repro.checks.rules.frozen_mutation import FrozenMutationChecker

#: AST rules, in reporting order.
ALL_CHECKERS = [
    DeterminismChecker,
    FrozenMutationChecker,
    DtypeHygieneChecker,
]

__all__ = ["ALL_CHECKERS"]
