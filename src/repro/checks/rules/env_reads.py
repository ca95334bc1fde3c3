"""RB301 — no ``REPRO_*`` environment variable is read anywhere.

The package reads no environment variables: each setting is a function
parameter or a CLI flag, with its default written once in code.  A
``REPRO_*`` variable would be a second way to set a value, one that no
test, CI job or benchmark run exercises.

This rule flags any direct ``os.environ[...]`` / ``os.environ.get`` /
``os.getenv`` access to a ``REPRO_*`` name in the scanned tree, so such
a switch cannot come back unnoticed.
"""

from __future__ import annotations

import ast
from typing import Optional, Sequence

from ..engine import FileContext, Reporter, Rule
from ._common import dotted_name

#: Dotted call targets that read the environment.
_ENV_CALLS = {
    "os.environ.get",
    "os.environ.pop",
    "os.environ.setdefault",
    "environ.get",
    "os.getenv",
    "getenv",
}

_ENV_SUBSCRIPTS = {"os.environ", "environ"}


def _repro_key(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.startswith("REPRO_"):
            return node.value
    return None


class ReproEnvReadRule(Rule):
    rule_id = "RB301"
    name = "no-repro-env-reads"
    description = (
        "No REPRO_* environment variable is read: every setting is a "
        "function parameter or a CLI flag."
    )
    node_types = (ast.Call, ast.Subscript)

    def visit(
        self,
        node: ast.AST,
        ancestors: Sequence[ast.AST],
        ctx: FileContext,
        report: Reporter,
    ) -> None:
        key: Optional[str] = None
        if isinstance(node, ast.Subscript):
            if dotted_name(node.value) in _ENV_SUBSCRIPTS:
                key = _repro_key(node.slice)
        elif isinstance(node, ast.Call):
            if dotted_name(node.func) in _ENV_CALLS and node.args:
                key = _repro_key(node.args[0])
        if key is not None:
            report.at_node(
                ctx,
                node,
                f"environment read of {key}; the package reads no REPRO_* "
                f"variables — make the setting a parameter or CLI flag",
            )
