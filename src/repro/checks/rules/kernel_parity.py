"""RB201 — kernel⇄oracle parity: fast paths never outrun their proofs.

Every batched kernel has exactly one scalar specification.  The repo's
correctness claim — eqs. 1–4, 13–16 and 17–19 all have
bitwise-identical batched and scalar paths — only holds while every
kernel⇄oracle pair keeps:

* its oracle, defined where the pair says,
* a randomized exact-equivalence test in ``tests/`` that references
  both the kernel and its oracle,
* a benchmark case in ``repro/bench/cases.py`` (so the bench gate's
  bitwise comparison exercises it on every CI run) and a timing lane in
  ``repro/bench/runner.py``.

The pairs are re-derived from the three ``kernels.py`` anchor modules:

* each public ``<kind>_sweep_kernel`` of ``repro/sweep/kernels.py``
  pairs with ``fast_<kind>_outcome`` in ``repro/market/fastpath.py``;
* each public kernel of ``repro/mapreduce/kernels.py`` pairs with the
  scalar runner ``run_plan_on_traces``, which ``run_plan_grid`` runs as
  its ``kernel="scalar"`` lane (the kernel is its ``kernel="event"``
  lane);
* each ``_EXT_KERNELS`` entry of ``repro/extensions/kernels.py`` pairs
  an extension kernel with its ``*_reference`` oracle.

This rule parses the ASTs of the anchor modules and cross-references
``tests/`` and the bench package — deleting a kernel's oracle, its
equivalence test or its bench coverage makes the check fail.  It runs
whenever an anchor module is in the scan set.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from ..engine import Project, Reporter, Rule
from ._common import module_bindings, referenced_names, string_constants

SWEEP_ANCHOR = "src/repro/sweep/kernels.py"
FASTPATH = "src/repro/market/fastpath.py"
MR_ANCHOR = "src/repro/mapreduce/kernels.py"
MR_GRID = "src/repro/mapreduce/grid.py"
MR_RUNNER = "src/repro/mapreduce/runner.py"
EXT_ANCHOR = "src/repro/extensions/kernels.py"
BENCH_CASES = "src/repro/bench/cases.py"
BENCH_RUNNER = "src/repro/bench/runner.py"

#: The MapReduce kernels' scalar oracle, and how ``run_plan_grid``
#: names the two lanes: ``(entry point, kernel literal, oracle literal)``.
MR_ORACLE = "run_plan_on_traces"
MR_LANES = ("run_plan_grid", "event", "scalar")

#: Names whose presence marks an equivalence test as randomized.
_RANDOMIZED_MARKERS = {"default_rng", "rng", "given", "random_workload"}

#: Another way code may name a function: a call to an entry point with
#: a string literal (``run_plan_grid(..., kernel="event")``).
Via = Tuple[str, str]


def _names(refs: Set[str], consts: Set[str], name: str, via: Optional[Via]) -> bool:
    return name in refs or (
        via is not None and via[0] in refs and via[1] in consts
    )


def _public_kernels(
    tree: ast.Module, is_kernel: Callable[[str], bool]
) -> List[Tuple[str, int]]:
    """``(name, line)`` of every kernel a module exports: public
    top-level functions and ``__all__`` entries that ``is_kernel``
    accepts.  An ``__all__`` entry the module never binds is still
    listed, so the caller can report it as undefined."""
    found: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found.setdefault(node.name, node.lineno)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for elt in getattr(node.value, "elts", ()):
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    found.setdefault(elt.value, elt.lineno)
    return sorted((n, line) for n, line in found.items() if is_kernel(n))


class KernelParityRule(Rule):
    rule_id = "RB201"
    name = "kernel-parity"
    description = (
        "Every batched kernel needs its scalar oracle, a randomized "
        "exact-equivalence test in tests/, and a bench case and lane."
    )

    def finish_project(self, project: Project, report: Reporter) -> None:
        self._test_refs: Optional[Dict[str, Tuple[Set[str], Set[str]]]] = None
        self._check_sweep(project, report)
        self._check_mapreduce(project, report)
        self._check_extensions(project, report)

    # -- corpus helpers ------------------------------------------------

    def _tests_referencing(
        self, project: Project
    ) -> Dict[str, Tuple[Set[str], Set[str]]]:
        """Per test module: (referenced names, string literals)."""
        if self._test_refs is None:
            self._test_refs = {}
            for rel in project.glob("tests/**/test_*.py"):
                ctx = project.file(rel)
                if ctx is not None:
                    self._test_refs[rel] = (
                        referenced_names(ctx.tree),
                        string_constants(ctx.tree),
                    )
        return self._test_refs

    def _require_equivalence_test(
        self,
        project: Project,
        report: Reporter,
        anchor_rel: str,
        anchor_line: int,
        kernel: str,
        oracle: str,
        via: Optional[Via] = None,
    ) -> None:
        """A test module covers ``kernel`` when it references the oracle
        and either names the kernel directly or — when ``via=(entry,
        key)`` is given — calls the public entry point with the kernel's
        lane name as a string literal (the MapReduce tests use
        ``run_plan_grid(..., kernel="event")``)."""
        test_refs = self._tests_referencing(project)
        matching = [
            rel
            for rel, (refs, consts) in test_refs.items()
            if oracle in refs and _names(refs, consts, kernel, via)
        ]
        if not matching:
            report.at(
                anchor_rel,
                anchor_line,
                f"kernel {kernel!r} has no equivalence test: no module "
                f"under tests/ references both {kernel!r} and its oracle "
                f"{oracle!r}",
            )
            return
        if not any(
            test_refs[rel][0] & _RANDOMIZED_MARKERS for rel in matching
        ):
            report.at(
                anchor_rel,
                anchor_line,
                f"equivalence test(s) for {kernel!r} ({', '.join(matching)}) "
                f"are not randomized: no seeded-generator or hypothesis "
                f"usage found",
            )

    def _require_bench_lane(
        self,
        project: Project,
        report: Reporter,
        kernel: str,
        oracle: str,
        kernel_via: Optional[Via] = None,
        oracle_via: Optional[Via] = None,
    ) -> None:
        """The bench runner must time ``kernel`` against ``oracle``."""
        ctx = project.file(BENCH_RUNNER)
        if ctx is None:
            return
        refs, consts = referenced_names(ctx.tree), string_constants(ctx.tree)
        if not (
            _names(refs, consts, kernel, kernel_via)
            and _names(refs, consts, oracle, oracle_via)
        ):
            report.at(
                BENCH_RUNNER,
                1,
                f"{BENCH_RUNNER} does not time {kernel!r} against "
                f"{oracle!r}",
            )

    def _require_oracle(
        self,
        project: Project,
        report: Reporter,
        anchor_rel: str,
        anchor_line: int,
        kernel: str,
        oracle: str,
        where: str,
    ) -> None:
        ctx = project.file(where)
        if ctx is None or oracle not in module_bindings(ctx.tree):
            report.at(
                anchor_rel,
                anchor_line,
                f"oracle {oracle!r} of kernel {kernel!r} is not defined "
                f"in {where}",
            )

    def _bench_case_calls(self, project: Project) -> Dict[str, List[ast.Call]]:
        """``BenchCase``/``MapReduceBenchCase`` constructor calls in the
        bench case table, keyed by constructor name."""
        out: Dict[str, List[ast.Call]] = {}
        ctx = project.file(BENCH_CASES)
        if ctx is None:
            return out
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                out.setdefault(node.func.id, []).append(node)
        return out

    # -- sweep kernels ⇄ fastpath ----------------------------------------

    def _check_sweep(self, project: Project, report: Reporter) -> None:
        ctx = project.scanned.get(SWEEP_ANCHOR)
        if ctx is None:
            return
        kernels = _public_kernels(
            ctx.tree, lambda name: name.endswith("_sweep_kernel")
        )
        if not kernels:
            report.at(
                SWEEP_ANCHOR,
                1,
                "no public *_sweep_kernel functions found; the sweep "
                "kernels must stay statically analyzable",
            )
            return
        defined = module_bindings(ctx.tree)
        bench_strategies = {
            kw.value.attr
            for call in self._bench_case_calls(project).get("BenchCase", [])
            for kw in call.keywords
            if kw.arg == "strategy" and isinstance(kw.value, ast.Attribute)
        }
        for kernel, line in kernels:
            kind = kernel[: -len("_sweep_kernel")]
            oracle = f"fast_{kind}_outcome"
            if kernel not in defined:
                report.at(
                    SWEEP_ANCHOR,
                    line,
                    f"{kernel!r} is exported but not defined in "
                    f"{SWEEP_ANCHOR}",
                )
            self._require_oracle(
                project, report, SWEEP_ANCHOR, line, kernel, oracle, FASTPATH
            )
            self._require_equivalence_test(
                project, report, SWEEP_ANCHOR, line, kernel, oracle
            )
            required = {"onetime": "ONE_TIME", "persistent": "PERSISTENT"}.get(
                kind
            )
            if required is not None and required not in bench_strategies:
                report.at(
                    BENCH_CASES,
                    1,
                    f"no BenchCase with strategy=Strategy.{required} in "
                    f"{BENCH_CASES}; kernel {kernel!r} has no bench "
                    f"coverage",
                )
            self._require_bench_lane(project, report, kernel, oracle)

    # -- mapreduce kernels ⇄ run_plan_on_traces --------------------------

    def _check_mapreduce(self, project: Project, report: Reporter) -> None:
        ctx = project.scanned.get(MR_ANCHOR)
        if ctx is None:
            return
        kernels = _public_kernels(ctx.tree, lambda name: "_kernel" in name)
        if not kernels:
            report.at(
                MR_ANCHOR,
                1,
                "no public *_kernel functions found; the MapReduce "
                "kernels must stay statically analyzable",
            )
            return
        defined = module_bindings(ctx.tree)
        entry, kernel_lane, oracle_lane = MR_LANES
        grid_ctx = project.file(MR_GRID)
        if grid_ctx is not None and MR_ORACLE not in referenced_names(
            grid_ctx.tree
        ):
            report.at(
                MR_GRID,
                1,
                f"the scalar oracle {MR_ORACLE!r} is no longer referenced "
                f"by {MR_GRID}; the batched kernels would have no "
                f"reference lane",
            )
        for kernel, line in kernels:
            if kernel not in defined:
                report.at(
                    MR_ANCHOR,
                    line,
                    f"{kernel!r} is exported but not defined in {MR_ANCHOR}",
                )
            self._require_oracle(
                project, report, MR_ANCHOR, line, kernel, MR_ORACLE, MR_RUNNER
            )
            self._require_equivalence_test(
                project,
                report,
                MR_ANCHOR,
                line,
                kernel,
                MR_ORACLE,
                via=(entry, kernel_lane),
            )
            self._require_bench_lane(
                project,
                report,
                kernel,
                MR_ORACLE,
                kernel_via=(entry, kernel_lane),
                oracle_via=(entry, oracle_lane),
            )
        if not self._bench_case_calls(project).get("MapReduceBenchCase"):
            report.at(
                BENCH_CASES,
                1,
                f"no MapReduceBenchCase in {BENCH_CASES}; the plan-grid "
                f"kernels {', '.join(repr(k) for k, _ in kernels)} have no "
                f"bench coverage",
            )

    # -- extension kernels ⇄ *_reference ---------------------------------

    def _check_extensions(self, project: Project, report: Reporter) -> None:
        ctx = project.scanned.get(EXT_ANCHOR)
        if ctx is None:
            return
        # The table is annotated (`_EXT_KERNELS: Dict[...] = {...}`), so
        # accept both plain and annotated assignments.
        table_node: Optional[Union[ast.Assign, ast.AnnAssign]] = None
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXT_KERNELS"
                for t in node.targets
            ):
                table_node = node
                break
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "_EXT_KERNELS"
                and node.value is not None
            ):
                table_node = node
                break
        if table_node is None or not isinstance(table_node.value, ast.Dict):
            report.at(
                EXT_ANCHOR,
                1,
                "_EXT_KERNELS pair table not found; the extension "
                "kernel⇄oracle pairs must stay statically analyzable",
            )
            return
        pairs: List[Tuple[int, str, str]] = []
        for key, value in zip(table_node.value.keys, table_node.value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            if not (
                isinstance(value, ast.Tuple)
                and len(value.elts) == 2
                and all(isinstance(e, ast.Name) for e in value.elts)
            ):
                report.at(
                    EXT_ANCHOR,
                    value.lineno,
                    f"_EXT_KERNELS entry {key.value!r} must be a "
                    f"(kernel, oracle) tuple of plain names",
                )
                continue
            pairs.append((value.lineno, value.elts[0].id, value.elts[1].id))
        if not pairs:
            report.at(
                EXT_ANCHOR, table_node.lineno, "_EXT_KERNELS registers no kernels"
            )
            return
        defined = module_bindings(ctx.tree)
        for lineno, kernel, oracle in sorted(pairs):
            if oracle != f"{kernel}_reference":
                report.at(
                    EXT_ANCHOR,
                    lineno,
                    f"pair table pairs {kernel!r} with {oracle!r}; the "
                    f"oracle must be named {kernel + '_reference'!r}",
                )
            for fn in (kernel, oracle):
                if fn not in defined:
                    report.at(
                        EXT_ANCHOR,
                        lineno,
                        f"{fn!r} is paired but not defined in "
                        f"{EXT_ANCHOR}",
                    )
            self._require_equivalence_test(
                project, report, EXT_ANCHOR, lineno, kernel, oracle
            )
        if not self._bench_case_calls(project).get("ExtensionBenchCase"):
            report.at(
                BENCH_CASES,
                1,
                f"no ExtensionBenchCase in {BENCH_CASES}; the extension "
                f"kernels have no bench coverage",
            )
        runner_ctx = project.file(BENCH_RUNNER)
        if runner_ctx is not None and "extension_kernel_pair" not in (
            referenced_names(runner_ctx.tree)
        ):
            report.at(
                BENCH_RUNNER,
                1,
                f"{BENCH_RUNNER} does not time the extension kernels "
                f"(no extension_kernel_pair reference)",
            )
