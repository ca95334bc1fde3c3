"""RB701/RB702/RB705 — concurrency rules for the scheduler and daemon.

The work-stealing scheduler (:mod:`repro.scheduler`) is fork-first and
the decision daemon (:mod:`repro.serve`) is a single asyncio loop; both
designs rest on invariants that are invisible to per-line linting:

* **RB701 fork-safety** — a module that forks workers (calls
  ``get_context("fork")`` / ``set_start_method("fork")``) must not also
  create threads, locks, or event loops: anything of the kind alive at
  fork time is duplicated into the children in an undefined state
  (a held lock stays held forever in the child).  Thread use belongs in
  the post-fork child modules.
* **RB702 async-blocking** — no blocking calls (``time.sleep``,
  ``subprocess.*``, blocking file/socket IO) inside ``async def``
  bodies; a single one stalls every connection the event loop serves.
  Use ``await asyncio.sleep`` / ``asyncio.to_thread``.
* **RB705 monotonic-clock** — deadline/heartbeat/timeout arithmetic
  must use ``time.monotonic()``: wall clocks (``time.time``) step under
  NTP and DST, so a straggler deadline computed from them can fire
  years early or never.  Complements RB101, which bans wall clocks from
  library code wholesale but exempts tests — RB705 follows the *value*
  through assignments (a small taint analysis over the dataflow layer)
  and applies everywhere, tests included.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from ..dataflow import iter_scopes, scope_statements, scope_walk, tainted_names
from ..engine import FileContext, Reporter, Rule
from ._common import dotted_name, is_test_path

#: Calls that put the current process into fork-spawning business.
_FORK_CONTEXT_CALLS = {
    "get_context",
    "multiprocessing.get_context",
    "set_start_method",
    "multiprocessing.set_start_method",
}

#: ``threading`` factories whose product must not exist at fork time.
_THREADING_FACTORIES = {
    "Thread",
    "Timer",
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
}

#: Event-loop constructors (same hazard: a loop's self-pipe and internal
#: locks do not survive a fork).
_LOOP_CALLS = {
    "asyncio.new_event_loop",
    "asyncio.get_event_loop",
    "asyncio.run",
}

#: Calls that block the thread and therefore the event loop.
_BLOCKING_CALLS = {
    "time.sleep",
    "os.system",
    "os.popen",
    "os.wait",
    "os.waitpid",
    "socket.create_connection",
    "urllib.request.urlopen",
}

#: Wall-clock reads whose values must not feed deadline arithmetic.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.datetime.now",
    "datetime.utcnow",
    "datetime.datetime.utcnow",
}

#: Identifiers that mark an expression as deadline/liveness arithmetic.
_DEADLINE_RE = re.compile(
    r"deadline|heartbeat|expir|timeout|last_seen|lease", re.IGNORECASE
)


def _mentions_fork(node: ast.Call) -> bool:
    for arg in list(node.args) + [kw.value for kw in node.keywords]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Constant) and sub.value == "fork":
                return True
    return False


class ForkSafetyRule(Rule):
    rule_id = "RB701"
    name = "fork-safety"
    description = (
        "Modules that fork worker processes (get_context('fork')) must "
        "not create threads, locks, or asyncio event loops — fork only "
        "duplicates the calling thread, leaving any other thread's locks "
        "held forever in the children."
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return not is_test_path(ctx.rel)

    def start_file(self, ctx: FileContext) -> None:
        self._fork_sites: List[ast.Call] = []
        self._hazards: List[Tuple[ast.Call, str]] = []

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
        if name in _FORK_CONTEXT_CALLS or name.endswith(".get_context"):
            if _mentions_fork(node):
                self._fork_sites.append(node)
            return
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "threading" and parts[1] in _THREADING_FACTORIES:
            self._hazards.append((node, name))
        elif parts[-1] == "ThreadPoolExecutor":
            self._hazards.append((node, name))
        elif name in _LOOP_CALLS:
            self._hazards.append((node, name))

    def finish_file(self, ctx: FileContext, report: Reporter) -> None:
        if not self._fork_sites or not self._hazards:
            return
        fork_line = min(site.lineno for site in self._fork_sites)
        for node, name in self._hazards:
            report.at_node(
                ctx,
                node,
                f"{name}(...) in a module that forks workers "
                f"(get_context('fork') at line {fork_line}); threads, "
                f"locks and event loops do not survive a fork — create "
                f"them in the post-fork child instead, or use a spawn "
                f"context",
            )


def _enclosing_function(
    ancestors: Sequence[ast.AST],
) -> Optional[ast.AST]:
    for ancestor in reversed(ancestors):
        if isinstance(
            ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return ancestor
    return None


class AsyncBlockingRule(Rule):
    rule_id = "RB702"
    name = "async-blocking"
    description = (
        "No time.sleep / subprocess / blocking file or socket IO inside "
        "'async def' bodies — one blocking call stalls every connection "
        "on the event loop; use await asyncio.sleep / asyncio.to_thread."
    )
    node_types = (ast.Call,)

    def visit(
        self,
        node: ast.AST,
        ancestors: Sequence[ast.AST],
        ctx: FileContext,
        report: Reporter,
    ) -> None:
        assert isinstance(node, ast.Call)
        scope = _enclosing_function(ancestors)
        if not isinstance(scope, ast.AsyncFunctionDef):
            return
        name = dotted_name(node.func)
        if name is None:
            return
        blocking = (
            name in _BLOCKING_CALLS
            or name.startswith("subprocess.")
            or name in ("open", "io.open", "input")
        )
        if blocking:
            report.at_node(
                ctx,
                node,
                f"blocking call {name}(...) inside 'async def "
                f"{scope.name}' stalls the event loop; use 'await "
                f"asyncio.sleep(...)' for delays and 'await "
                f"asyncio.to_thread(...)' for blocking IO",
            )


def _identifiers(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _is_wall_clock_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and name in _WALL_CLOCK_CALLS


def _wall_clock_attributes(tree: ast.AST) -> Set[str]:
    """Attribute names assigned a wall-clock value anywhere in the file.

    ``state.done_at = time.time()`` or ``state.running[key] =
    time.time()`` in one method taints every read of ``done_at`` and
    ``running`` in the file, so a deadline another method computes from
    them is still traced back to the wall clock.
    """
    attrs: Set[str] = set()
    for scope in iter_scopes(tree):
        tainted = tainted_names(scope.body, _is_wall_clock_call)
        for stmt in scope_statements(scope.body):
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not any(
                _is_wall_clock_call(sub)
                or (isinstance(sub, ast.Name) and sub.id in tainted)
                for sub in ast.walk(value)
            ):
                continue
            for target in targets:
                while isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute):
                    attrs.add(target.attr)
    return attrs


class MonotonicClockRule(Rule):
    rule_id = "RB705"
    name = "monotonic-clock"
    description = (
        "Deadline / heartbeat / timeout arithmetic must use "
        "time.monotonic(), never time.time() — wall clocks step under "
        "NTP, so elapsed-time comparisons built on them misfire.  "
        "Applies to tests too (RB101 exempts them from the blanket "
        "wall-clock ban; this closes the deadline-shaped half of that "
        "gap)."
    )
    node_types = ()

    def finish_file(self, ctx: FileContext, report: Reporter) -> None:
        clock_attrs = _wall_clock_attributes(ctx.tree)

        def is_source(node: ast.AST) -> bool:
            return _is_wall_clock_call(node) or (
                isinstance(node, ast.Attribute) and node.attr in clock_attrs
            )

        for scope in iter_scopes(ctx.tree):
            self._check_scope(scope.body, ctx, report, is_source)

    def _check_scope(
        self,
        body: Sequence[ast.stmt],
        ctx: FileContext,
        report: Reporter,
        is_source: Callable[[ast.AST], bool],
    ) -> None:
        tainted = tainted_names(body, is_source)

        def expr_tainted(expr: ast.AST) -> bool:
            for sub in ast.walk(expr):
                if is_source(sub):
                    return True
                if isinstance(sub, ast.Name) and sub.id in tainted:
                    return True
            return False

        reported_lines: Set[int] = set()

        def flag(node: ast.AST, what: str) -> None:
            line = int(getattr(node, "lineno", 0))
            if line in reported_lines:
                return
            reported_lines.add(line)
            report.at_node(
                ctx,
                node,
                f"wall-clock value flows into {what}; time.time() steps "
                f"under NTP/DST — use time.monotonic() for deadline and "
                f"heartbeat arithmetic",
            )

        for stmt in scope_statements(body):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                value = stmt.value
                if value is None:
                    continue
                names = [n for t in targets for n in _identifiers(t)]
                if any(_DEADLINE_RE.search(n) for n in names) and expr_tainted(
                    value
                ):
                    flag(stmt, f"the assignment to {names[0]!r}")
        for node in scope_walk(body):
            deadline_like: Optional[ast.AST] = None
            if isinstance(node, ast.Compare):
                deadline_like = node
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                deadline_like = node
            if deadline_like is None:
                continue
            idents = set(_identifiers(node))
            if not any(_DEADLINE_RE.search(name) for name in idents):
                continue
            if expr_tainted(node):
                flag(node, "deadline/timeout arithmetic")
