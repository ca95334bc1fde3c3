"""The shipped rule catalog.

Rules are visitor plugins over the single AST walk done by
:mod:`repro.checks.engine`; each has a stable ``RBxxx`` id (never
reused, so suppression comments stay meaningful across versions):

========  ====================  ==========================================
id        name                  guards
========  ====================  ==========================================
RB101     determinism           no global RNG state / wall-clock reads
RB201     kernel-parity         every kernel keeps its oracle+test+bench
RB301     no-repro-env-reads    no REPRO_* environment variable is read
RB401     float-equality        exact parity tests; no nonzero float ==
RB501     shm-lifecycle         shared memory scoped by with / try-finally
RB601     api-surface           every __all__ entry is bound
RB701     fork-safety           no threads/locks/loops in forking modules
RB702     async-blocking        no blocking calls in async def bodies
RB703     journal-durability    explicit fsync choice; write paths fsync
RB704     resource-lifecycle    pipes/sockets/handles closed on all paths
RB705     monotonic-clock       deadlines use time.monotonic, not time.time
========  ====================  ==========================================

(``RB000`` is reserved for files that fail to parse.)
"""

from __future__ import annotations

from typing import List, Type

from ..engine import Rule
from .api_surface import ApiSurfaceRule
from .concurrency import AsyncBlockingRule, ForkSafetyRule, MonotonicClockRule
from .determinism import DeterminismRule
from .env_reads import ReproEnvReadRule
from .float_equality import FloatEqualityRule
from .kernel_parity import KernelParityRule
from .lifecycle import JournalDurabilityRule, ResourceLifecycleRule
from .shm_lifecycle import ShmLifecycleRule

__all__ = ["RULES", "RULE_PACK_VERSION", "default_rules"]

#: Version tag of the rule pack, mixed into the incremental cache key —
#: bump whenever any rule's semantics change, so stale cached findings
#: cannot survive a rule upgrade.
RULE_PACK_VERSION = "2026.10.1"

#: Shipped rule classes, in id order.
RULES: List[Type[Rule]] = [
    DeterminismRule,
    KernelParityRule,
    ReproEnvReadRule,
    FloatEqualityRule,
    ShmLifecycleRule,
    ApiSurfaceRule,
    ForkSafetyRule,
    AsyncBlockingRule,
    JournalDurabilityRule,
    ResourceLifecycleRule,
    MonotonicClockRule,
]


def default_rules() -> List[Rule]:
    """Fresh instances of every shipped rule."""
    return [rule_class() for rule_class in RULES]
