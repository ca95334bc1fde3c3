"""repro.checks — repo-aware static analysis for the reproduction.

The test suite can only *sample* the invariants this codebase rests on;
this package machine-checks them on every commit instead:

* **determinism** — simulations replay exactly from explicit seeds
  (RB101);
* **kernel⇄oracle parity** — every batched kernel keeps its one scalar
  oracle, a randomized exact-equivalence test and a bench case and
  lane (RB201);
* **numeric & lifecycle hygiene** — no ``REPRO_*`` environment reads
  (RB301), the float-equality policy (RB401), shared-memory lifetimes
  (RB501) and the public API surface (RB601).

Run it as ``repro-bid check`` or ``python -m repro.checks``; see
``docs/development.md`` for the rule catalog and suppression syntax.
"""

from .engine import (
    SCHEMA,
    CheckResult,
    FileContext,
    Finding,
    Project,
    Reporter,
    Rule,
    run_checks,
)
from .rules import RULES, default_rules

__all__ = [
    "SCHEMA",
    "CheckResult",
    "FileContext",
    "Finding",
    "Project",
    "Reporter",
    "Rule",
    "RULES",
    "default_rules",
    "run_checks",
]
