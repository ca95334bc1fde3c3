"""RB703/RB704 — durability and resource-lifecycle rules.

* **RB703 journal-durability** — the crash-consistency story of the
  sweep/shard journals (:class:`repro.resilience.execution.SweepJournal`
  and subclasses) holds only while (a) every construction site makes an
  *explicit* durability choice — ``fsync=True`` or a justified
  ``fsync=False`` — instead of silently inheriting the non-durable
  default, and (b) every method of a ``*Journal`` class that opens a
  file for writing and writes records through the handle also reaches
  an ``os.fsync`` call (dataflow from ``open`` to the write).
* **RB704 resource-lifecycle** — generalizes RB501 beyond shared
  memory: pipes, sockets, tempfiles, and file handles must be released
  on **every** CFG path.  A creation site is accepted when it is
  structurally scoped (``with`` / ``try``-``finally``), when the value
  escapes the scope (returned, stored on an object, passed to another
  call — ownership transferred), or when the per-function CFG proves a
  release (``.close()`` etc.) on every path from creation to exit.
  Exception edges are modeled only at ``try`` entries, so explicit
  close discipline on branchy code is what this rule actually audits.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set, Tuple

from ..dataflow import Scope, cfg_for_scope, every_path_hits
from ..engine import FileContext, Reporter, Rule
from ._common import dotted_name, is_test_path, referenced_names, walk_contains

#: Journal class whose ``fsync`` default is the *non*-durable one; call
#: sites must choose explicitly.
_EXPLICIT_FSYNC_CLASSES = {"SweepJournal"}

#: Fully-qualified resource factories (matched on the whole dotted name).
_RESOURCE_DOTTED = {
    "os.pipe",
    "socket.socket",
    "socket.socketpair",
    "socket.create_connection",
}

#: Resource factories matched on the last dotted component (constructor
#: class names are unambiguous enough; bare module calls are not).
_RESOURCE_TAILS = {
    "Pipe",
    "SharedMemory",
    "SharedPriceStack",
    "NamedTemporaryFile",
    "TemporaryFile",
    "SpooledTemporaryFile",
    "TemporaryDirectory",
    "mkstemp",
}

#: Methods that release a resource for the path query.
_CLOSE_METHODS = {
    "close",
    "shutdown",
    "unlink",
    "cleanup",
    "terminate",
    "kill",
    "release",
}

#: The shm attach-side cache module RB501 already exempts.
_OWNER_MODULE = "repro/sweep/shm.py"


def _call_tail(node: ast.Call) -> str:
    name = dotted_name(node.func)
    return name.split(".")[-1] if name else ""


def _open_mode(node: ast.Call) -> str:
    """The mode string of an ``open(...)`` call (default ``"r"``)."""
    mode: Optional[ast.expr] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "r" if mode is None else "?"


def _is_writable_mode(mode: str) -> bool:
    return any(flag in mode for flag in "wax+") or mode == "?"


class JournalDurabilityRule(Rule):
    rule_id = "RB703"
    name = "journal-durability"
    description = (
        "SweepJournal construction must pass an explicit fsync= choice, "
        "and every *Journal method that opens-for-write and writes must "
        "reach os.fsync — otherwise a crash can lose records the caller "
        "already saw acknowledged."
    )
    node_types = (ast.Call, ast.ClassDef)

    def applies_to(self, ctx: FileContext) -> bool:
        return not is_test_path(ctx.rel)

    def visit(
        self,
        node: ast.AST,
        ancestors: Sequence[ast.AST],
        ctx: FileContext,
        report: Reporter,
    ) -> None:
        if isinstance(node, ast.Call):
            self._check_call_site(node, ctx, report)
        elif isinstance(node, ast.ClassDef):
            self._check_journal_class(node, ctx, report)

    def _check_call_site(
        self, node: ast.Call, ctx: FileContext, report: Reporter
    ) -> None:
        name = _call_tail(node)
        if name not in _EXPLICIT_FSYNC_CLASSES:
            return
        if any(keyword.arg == "fsync" for keyword in node.keywords):
            return
        if any(keyword.arg is None for keyword in node.keywords):
            return  # **kwargs forwarding may carry the choice
        report.at_node(
            ctx,
            node,
            f"{name}(...) without an explicit fsync= choice silently "
            f"inherits the non-durable default; pass fsync=True, or "
            f"fsync=False with a justification comment",
        )

    def _check_journal_class(
        self, node: ast.ClassDef, ctx: FileContext, report: Reporter
    ) -> None:
        if not node.name.endswith("Journal"):
            return
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._check_write_path(method, ctx, report)

    def _check_write_path(
        self,
        method: ast.AST,
        ctx: FileContext,
        report: Reporter,
    ) -> None:
        handles: List[Tuple[str, ast.Call]] = []
        writes: Set[str] = set()
        fsyncs = False
        assert isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(method):
            if not isinstance(sub, ast.Call):
                continue
            name = dotted_name(sub.func)
            if name == "open" and _is_writable_mode(_open_mode(sub)):
                handles.append((name, sub))
            elif name in ("os.fsync", "os.fdatasync"):
                fsyncs = True
            elif (
                isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("write", "writelines")
                and isinstance(sub.func.value, ast.Name)
            ):
                writes.add(sub.func.value.id)
        if not handles or not writes or fsyncs:
            return
        # Tie the open back to the written handle through the with-item
        # / assignment name the handle is bound to.
        for name, call in handles:
            bound = self._bound_names(call, method)
            if bound & writes:
                report.at_node(
                    ctx,
                    call,
                    f"journal write path opens {sorted(bound & writes)[0]!r} "
                    f"for writing and writes records but never reaches "
                    f"os.fsync; a crash can lose acknowledged records — "
                    f"fsync the handle (or gate it on an explicit "
                    f"fsync=False setting)",
                )

    @staticmethod
    def _bound_names(call: ast.Call, method: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for sub in ast.walk(method):
            if isinstance(sub, ast.withitem) and sub.context_expr is call:
                if isinstance(sub.optional_vars, ast.Name):
                    names.add(sub.optional_vars.id)
            elif isinstance(sub, ast.Assign) and sub.value is call:
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names


def _is_structurally_guarded(
    node: ast.Call, ancestors: Sequence[ast.AST]
) -> bool:
    """RB501-style guard: created as a with-item, or in a try body whose
    finally is presumed to clean up."""
    for ancestor in reversed(ancestors):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if walk_contains(item.context_expr, node):
                    return True
        elif isinstance(ancestor, ast.Try) and ancestor.finalbody:
            if any(walk_contains(stmt, node) for stmt in ancestor.body):
                return True
    return False


def _target_names(target: ast.expr) -> Optional[List[str]]:
    """Plain names bound by an assignment target, or ``None`` when the
    target stores elsewhere (attribute/subscript — an escape)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            sub = _target_names(element)
            if sub is None:
                return None
            names.extend(sub)
        return names
    return None


def _own_subtree(stmt: ast.stmt) -> Sequence[ast.AST]:
    """The statement plus its expression children, stopping at nested
    statements — those live in their own CFG blocks, and looking inside
    them here would let ``if cond: s.close()`` satisfy paths that take
    the other branch."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        out.append(node)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                stack.append(child)
    return out


def _releases_or_escapes(stmt: ast.stmt, name: str) -> bool:
    """Does ``stmt`` itself (not its nested blocks) release ``name``
    (close-family call) or transfer ownership out of the local scope?"""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        # Captured by a nested scope: lifetime leaves this function.
        return name in referenced_names(stmt)
    for sub in _own_subtree(stmt):
        if isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == name
                and func.attr in _CLOSE_METHODS
            ):
                return True
            if dotted_name(func) in ("os.close", "os.closerange"):
                if any(
                    isinstance(arg, ast.Name) and arg.id == name
                    for arg in sub.args
                ):
                    return True
            # Passed as an argument: ownership transferred to the callee.
            for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                if any(
                    isinstance(inner, ast.Name) and inner.id == name
                    for inner in ast.walk(arg)
                ):
                    return True
        elif isinstance(sub, (ast.Return, ast.Raise, ast.Yield, ast.YieldFrom)):
            if any(
                isinstance(inner, ast.Name) and inner.id == name
                for inner in ast.walk(sub)
            ):
                return True
        elif isinstance(sub, ast.Assign):
            if any(
                isinstance(inner, ast.Name) and inner.id == name
                for inner in ast.walk(sub.value)
            ):
                return True  # aliased or stored out
        elif isinstance(sub, ast.withitem):
            if any(
                isinstance(inner, ast.Name) and inner.id == name
                for inner in ast.walk(sub.context_expr)
            ):
                return True  # e.g. with closing(handle):
    return False


class ResourceLifecycleRule(Rule):
    rule_id = "RB704"
    name = "resource-lifecycle"
    description = (
        "Pipes, sockets, tempfiles, shared memory and file handles must "
        "be released on every path: scope them with with / try-finally, "
        "hand ownership off, or close them on all CFG paths to the "
        "function exit."
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return not is_test_path(ctx.rel) and not ctx.rel.endswith(_OWNER_MODULE)

    def visit(
        self,
        node: ast.AST,
        ancestors: Sequence[ast.AST],
        ctx: FileContext,
        report: Reporter,
    ) -> None:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name is None:
            return
        is_resource = (
            name in _RESOURCE_DOTTED
            or name.split(".")[-1] in _RESOURCE_TAILS
            or name == "open"
        )
        if not is_resource:
            return
        if _is_structurally_guarded(node, ancestors):
            return

        stmt = self._enclosing_statement(ancestors)
        if stmt is None:
            return
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or not (
            getattr(stmt, "value", None) is node
        ):
            # Not directly bound to a name: accept escapes (argument,
            # return value, comprehension feeding a call, ...), flag
            # bare-expression drops.
            if isinstance(stmt, ast.Expr) and stmt.value is node:
                report.at_node(
                    ctx,
                    node,
                    f"{name}(...) creates a resource and immediately "
                    f"drops the handle; nothing can ever close it",
                )
            return

        if isinstance(stmt, ast.Assign):
            names: Optional[List[str]] = []
            for target in stmt.targets:
                sub = _target_names(target)
                if sub is None:
                    names = None  # attribute/subscript store: escapes
                    break
                names.extend(sub)
        else:
            names = _target_names(stmt.target)
        if names is None:
            return
        if name.split(".")[-1] == "mkstemp" and len(names) == 2:
            names = names[:1]  # (fd, path): only the fd needs closing

        scope = self._enclosing_scope(ancestors, ctx)
        cfg = cfg_for_scope(ctx, scope)
        for bound in names:
            if not every_path_hits(
                cfg, stmt, lambda s: _releases_or_escapes(s, bound)
            ):
                report.at_node(
                    ctx,
                    node,
                    f"{name}(...) binds {bound!r} but some path to the "
                    f"end of {scope.qualname!r} neither releases it "
                    f"(.close()/os.close) nor hands it off; scope it "
                    f"with a with-block or try/finally",
                )

    @staticmethod
    def _enclosing_statement(
        ancestors: Sequence[ast.AST],
    ) -> Optional[ast.stmt]:
        for ancestor in reversed(ancestors):
            if isinstance(ancestor, ast.stmt):
                return ancestor
        return None

    @staticmethod
    def _enclosing_scope(
        ancestors: Sequence[ast.AST], ctx: FileContext
    ) -> Scope:
        for ancestor in reversed(ancestors):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return Scope(ancestor, ancestor.name, ())
            if isinstance(ancestor, ast.Lambda):
                break
        return Scope(ctx.tree, "<module>", ())
