"""RB501 — shared-memory segments are closed on every path.

A :class:`~repro.sweep.shm.SharedPriceStack` owns a
``multiprocessing.shared_memory`` segment: if an exception escapes
between creation and ``close()``, the segment leaks until the resource
tracker (or a reboot) reaps it, and on failure paths the leak recurs on
every retry round.  Creation sites must therefore be lifetime-scoped:

* ``with SharedPriceStack(...) as stack: ...`` (the context manager
  closes *and unlinks*), or
* created inside a ``try:`` whose ``finally:`` closes it.

The same applies to raw ``shared_memory.SharedMemory(...)`` handles.
:mod:`repro.sweep.shm` itself is exempt — it implements the lifecycle
(including the deliberately cached worker-side attach,
:func:`~repro.sweep.shm.open_stack`, whose cache is torn down by
:func:`~repro.sweep.shm.close_stacks` when the worker exits).
"""

from __future__ import annotations

import ast
from typing import Sequence

from ..engine import FileContext, Reporter, Rule
from ._common import dotted_name, is_test_path, walk_contains

#: Constructor names owning a shared-memory segment.
_OWNING_CALLS = {"SharedPriceStack", "SharedMemory"}

OWNER_MODULE = "repro/sweep/shm.py"


def _called_name(node: ast.Call) -> str:
    name = dotted_name(node.func)
    if name is None:
        return ""
    return name.split(".")[-1]


def _is_guarded(node: ast.Call, ancestors: Sequence[ast.AST]) -> bool:
    for ancestor in reversed(ancestors):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if walk_contains(item.context_expr, node):
                    return True
        elif isinstance(ancestor, ast.Try) and ancestor.finalbody:
            if any(walk_contains(stmt, node) for stmt in ancestor.body):
                return True
    return False


class ShmLifecycleRule(Rule):
    rule_id = "RB501"
    name = "shm-lifecycle"
    description = (
        "SharedPriceStack / shared_memory.SharedMemory creation must be "
        "scoped by a with-block or a try/finally that closes it."
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return not is_test_path(ctx.rel) and not ctx.rel.endswith(OWNER_MODULE)

    def visit(
        self,
        node: ast.AST,
        ancestors: Sequence[ast.AST],
        ctx: FileContext,
        report: Reporter,
    ) -> None:
        assert isinstance(node, ast.Call)
        name = _called_name(node)
        if name not in _OWNING_CALLS:
            return
        if not _is_guarded(node, ancestors):
            report.at_node(
                ctx,
                node,
                f"{name}(...) creates a shared-memory segment outside a "
                f"with-block or try/finally; an exception here leaks the "
                f"segment",
            )
