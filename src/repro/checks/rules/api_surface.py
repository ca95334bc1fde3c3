"""RB601 — the public surface is real.

Every name a module exports in ``__all__`` must actually be bound at
module level (defined, assigned or imported) — a stale ``__all__``
entry turns ``from repro.x import *`` and the API-surface tests into
liars.
"""

from __future__ import annotations

import ast
from typing import Set

from ..engine import FileContext, Reporter, Rule
from ._common import module_bindings


class ApiSurfaceRule(Rule):
    rule_id = "RB601"
    name = "api-surface"
    description = "__all__ entries must be bound at module level."

    def finish_file(self, ctx: FileContext, report: Reporter) -> None:
        exported = None
        anchor = None
        for stmt in ctx.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in stmt.targets
                )
                and isinstance(stmt.value, (ast.List, ast.Tuple))
            ):
                exported = [
                    element.value
                    for element in stmt.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
                anchor = stmt
        if exported is None or anchor is None:
            return
        bound: Set[str] = module_bindings(ctx.tree)
        if "*" in bound:  # star-import module: bindings are not static
            return
        for name in exported:
            if name not in bound:
                report.at_node(
                    ctx,
                    anchor,
                    f"__all__ exports {name!r} but the module never binds "
                    f"it",
                )
