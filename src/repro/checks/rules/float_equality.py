"""RB401 — the float-equality policy, both directions.

The repo's parity story is *exact*: batched kernels are verified
bitwise-identical to their oracles, never "close".  Two symmetric
hazards erode that:

* a kernel-equivalence test that quietly switches to ``np.isclose`` /
  ``assert_allclose`` / ``pytest.approx`` stops proving bitwise parity
  while still passing — so approximate comparators are forbidden in
  kernel-equivalence test modules (``tests/test_*kernel*`` and
  ``tests/test_*equivalence*``), which must assert with ``==`` /
  ``np.array_equal``;
* library code comparing computed floats with ``==`` against a nonzero
  float literal is almost always a latent bug (representation drift,
  accumulated rounding).  Comparison against the literal ``0.0`` is
  allowed — zero is exact in IEEE 754 and the codebase uses it only to
  test never-assigned parameter sentinels.  Designated oracle modules
  (the kernels and the scalar fast paths, whose exact comparisons *are*
  the spec) are exempt.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Sequence

from ..engine import FileContext, Reporter, Rule
from ._common import dotted_name, is_test_path

#: Modules whose exact float comparisons define the reference semantics.
ORACLE_MODULES = (
    "repro/sweep/kernels.py",
    "repro/mapreduce/kernels.py",
    "repro/mapreduce/runner.py",
    "repro/market/fastpath.py",
)

#: Approximate comparators banned from kernel-equivalence tests.
_APPROX_TAILS = {
    "isclose",
    "allclose",
    "assert_allclose",
    "assert_almost_equal",
    "assert_array_almost_equal",
    "approx",
}


def _is_equivalence_test(rel: str) -> bool:
    stem = PurePosixPath(rel).stem
    return is_test_path(rel) and ("kernel" in stem or "equivalence" in stem)


class FloatEqualityRule(Rule):
    rule_id = "RB401"
    name = "float-equality-policy"
    description = (
        "Kernel-equivalence tests must assert exact equality (no "
        "isclose/allclose/approx); library code must not compare floats "
        "== against nonzero float literals outside oracle modules."
    )
    node_types = (ast.Call, ast.Compare)

    def applies_to(self, ctx: FileContext) -> bool:
        if is_test_path(ctx.rel):
            return _is_equivalence_test(ctx.rel)
        return not ctx.rel.endswith(ORACLE_MODULES)

    def visit(
        self,
        node: ast.AST,
        ancestors: Sequence[ast.AST],
        ctx: FileContext,
        report: Reporter,
    ) -> None:
        if _is_equivalence_test(ctx.rel):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.split(".")[-1] in _APPROX_TAILS:
                    report.at_node(
                        ctx,
                        node,
                        f"approximate comparator {name}() in a "
                        f"kernel-equivalence test; parity claims are "
                        f"bitwise — use == / np.array_equal",
                    )
            return
        if not isinstance(node, ast.Compare):
            return
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for operand in (node.left, *node.comparators):
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, float)
                and operand.value != 0.0
            ):
                report.at_node(
                    ctx,
                    node,
                    f"float == against the literal {operand.value!r}; "
                    f"exact nonzero float comparison is a latent bug "
                    f"outside oracle modules — compare with a tolerance "
                    f"from repro.constants, or restructure",
                )
                return
