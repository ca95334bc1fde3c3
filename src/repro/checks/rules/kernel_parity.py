"""RB201 — kernel⇄oracle parity: fast paths never outrun their proofs.

The sweep engine (:mod:`repro.sweep.engine`) and the MapReduce plan
grid (:mod:`repro.mapreduce.grid`) both dispatch between a batched
fast-path kernel and a slow reference oracle via ``REPRO_SWEEP_KERNEL``.
The repo's correctness claim — eqs. 1–4, 13–16 and 17–19 all have
bitwise-identical fast and slow paths — only holds while every kernel
registered in those dispatch tables keeps:

* a ``*_reference`` (or scalar-runner) oracle in the same table,
* a randomized exact-equivalence test in ``tests/`` that references
  both the kernel and its oracle,
* a benchmark case in ``repro/bench/cases.py`` (so the bench gate's
  bitwise comparison exercises it on every CI run) and a timing lane in
  ``repro/bench/runner.py``.

This rule re-derives the dispatch tables by parsing the ASTs of the
anchor modules and cross-references ``tests/`` and the bench package —
deleting a kernel's equivalence test or its bench coverage makes the
check fail.  It runs whenever an anchor module is in the scan set.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple, Union

from ..engine import Project, Reporter, Rule
from ._common import module_bindings, referenced_names, string_constants

SWEEP_ENGINE = "src/repro/sweep/engine.py"
SWEEP_KERNELS = "src/repro/sweep/kernels.py"
MR_GRID = "src/repro/mapreduce/grid.py"
MR_KERNELS = "src/repro/mapreduce/kernels.py"
EXT_KERNELS = "src/repro/extensions/kernels.py"
BENCH_CASES = "src/repro/bench/cases.py"
BENCH_RUNNER = "src/repro/bench/runner.py"

#: Names whose presence marks an equivalence test as randomized.
_RANDOMIZED_MARKERS = {"default_rng", "rng", "given", "random_workload"}


class KernelParityRule(Rule):
    rule_id = "RB201"
    name = "kernel-parity"
    description = (
        "Every kernel in the REPRO_SWEEP_KERNEL dispatch tables needs a "
        "reference oracle, a randomized exact-equivalence test in "
        "tests/, and a bench case."
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
        via: Optional[Tuple[str, str]] = None,
    ) -> None:
        """A test module covers ``kernel`` when it references the oracle
        and either names the kernel directly or — when ``via=(driver,
        key)`` is given — calls the public driver with the kernel's
        dispatch-table key as a string literal (the MapReduce tests use
        ``run_plan_grid(..., kernel="event")``)."""
        test_refs = self._tests_referencing(project)
        matching = []
        for rel, (refs, consts) in test_refs.items():
            if oracle not in refs:
                continue
            if kernel in refs or (
                via is not None and via[0] in refs and via[1] in consts
            ):
                matching.append(rel)
        if not matching:
            report.at(
                anchor_rel,
                anchor_line,
                f"dispatch-table kernel {kernel!r} has no equivalence "
                f"test: no module under tests/ references both {kernel!r} "
                f"and its oracle {oracle!r}",
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

    # -- sweep dispatch table ------------------------------------------

    def _check_sweep(self, project: Project, report: Reporter) -> None:
        ctx = project.scanned.get(SWEEP_ENGINE)
        if ctx is None:
            return
        selector = next(
            (
                node
                for node in ast.walk(ctx.tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_select_kernels"
            ),
            None,
        )
        if selector is None:
            report.at(
                SWEEP_ENGINE,
                1,
                "kernel dispatch function _select_kernels not found; the "
                "REPRO_SWEEP_KERNEL switch must stay statically analyzable",
            )
            return
        names: List[str] = []
        for node in ast.walk(selector):
            if isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name):
                        names.append(sub.id)
        table = set(names)
        batched = sorted(
            n for n in table if n.endswith("_kernel")
        )
        if not batched:
            report.at(
                SWEEP_ENGINE,
                selector.lineno,
                "_select_kernels registers no batched *_kernel functions",
            )
            return

        kernels_ctx = project.file(SWEEP_KERNELS)
        defined = (
            module_bindings(kernels_ctx.tree) if kernels_ctx is not None else None
        )
        runner_ctx = project.file(BENCH_RUNNER)
        runner_refs = (
            referenced_names(runner_ctx.tree) if runner_ctx is not None else set()
        )
        bench_strategies = {
            kw.value.attr
            for call in self._bench_case_calls(project).get("BenchCase", [])
            for kw in call.keywords
            if kw.arg == "strategy" and isinstance(kw.value, ast.Attribute)
        }

        for kernel in batched:
            oracle = f"{kernel}_reference"
            if oracle not in table:
                report.at(
                    SWEEP_ENGINE,
                    selector.lineno,
                    f"dispatch table registers {kernel!r} without its "
                    f"{oracle!r} oracle",
                )
            for fn in (kernel, oracle):
                if defined is not None and fn not in defined:
                    report.at(
                        SWEEP_ENGINE,
                        selector.lineno,
                        f"{fn!r} is dispatched but not defined in "
                        f"{SWEEP_KERNELS}",
                    )
            self._require_equivalence_test(
                project, report, SWEEP_ENGINE, selector.lineno, kernel, oracle
            )
            if kernel.startswith("onetime"):
                required = "ONE_TIME"
            elif kernel.startswith("persistent"):
                required = "PERSISTENT"
            else:
                required = None
            if required is not None and required not in bench_strategies:
                report.at(
                    BENCH_CASES,
                    1,
                    f"no BenchCase with strategy=Strategy.{required} in "
                    f"{BENCH_CASES}; kernel {kernel!r} has no bench "
                    f"coverage",
                )
            if runner_ctx is not None and (
                kernel not in runner_refs or oracle not in runner_refs
            ):
                report.at(
                    BENCH_RUNNER,
                    1,
                    f"{BENCH_RUNNER} does not time {kernel!r} against "
                    f"{oracle!r}",
                )

    # -- mapreduce dispatch table --------------------------------------

    def _check_mapreduce(self, project: Project, report: Reporter) -> None:
        ctx = project.scanned.get(MR_GRID)
        if ctx is None:
            return
        table_node: Optional[ast.Assign] = None
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_BATCH_KERNELS"
                for t in node.targets
            ):
                table_node = node
                break
        if table_node is None or not isinstance(table_node.value, ast.Dict):
            report.at(
                MR_GRID,
                1,
                "_BATCH_KERNELS dispatch dict not found; the MapReduce "
                "kernel switch must stay statically analyzable",
            )
            return
        kernels: List[Tuple[str, str]] = sorted(
            (value.id, key.value)
            for key, value in zip(
                table_node.value.keys, table_node.value.values
            )
            if isinstance(value, ast.Name)
            and isinstance(key, ast.Constant)
            and isinstance(key.value, str)
        )
        if not kernels:
            report.at(
                MR_GRID, table_node.lineno, "_BATCH_KERNELS registers no kernels"
            )
            return
        oracle = "run_plan_on_traces"
        if oracle not in referenced_names(ctx.tree):
            report.at(
                MR_GRID,
                table_node.lineno,
                f"the scalar oracle {oracle!r} is no longer referenced by "
                f"{MR_GRID}; the batched kernels would have no reference "
                f"path",
            )
        kernels_ctx = project.file(MR_KERNELS)
        defined = (
            module_bindings(kernels_ctx.tree) if kernels_ctx is not None else None
        )
        for kernel, key in kernels:
            if defined is not None and kernel not in defined:
                report.at(
                    MR_GRID,
                    table_node.lineno,
                    f"{kernel!r} is dispatched but not defined in {MR_KERNELS}",
                )
            self._require_equivalence_test(
                project,
                report,
                MR_GRID,
                table_node.lineno,
                kernel,
                oracle,
                via=("run_plan_grid", key),
            )
        if not self._bench_case_calls(project).get("MapReduceBenchCase"):
            report.at(
                BENCH_CASES,
                1,
                f"no MapReduceBenchCase in {BENCH_CASES}; the plan-grid "
                f"kernels {', '.join(repr(k) for k, _ in kernels)} have no "
                f"bench coverage",
            )

    # -- extensions dispatch table -------------------------------------

    def _check_extensions(self, project: Project, report: Reporter) -> None:
        ctx = project.scanned.get(EXT_KERNELS)
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
                EXT_KERNELS,
                1,
                "_EXT_KERNELS dispatch dict not found; the extension "
                "kernel switch must stay statically analyzable",
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
                    EXT_KERNELS,
                    value.lineno,
                    f"_EXT_KERNELS entry {key.value!r} must be a "
                    f"(kernel, oracle) tuple of plain names",
                )
                continue
            pairs.append((value.lineno, value.elts[0].id, value.elts[1].id))
        if not pairs:
            report.at(
                EXT_KERNELS, table_node.lineno, "_EXT_KERNELS registers no kernels"
            )
            return
        defined = module_bindings(ctx.tree)
        for lineno, kernel, oracle in sorted(pairs):
            if oracle != f"{kernel}_reference":
                report.at(
                    EXT_KERNELS,
                    lineno,
                    f"dispatch table pairs {kernel!r} with {oracle!r}; the "
                    f"oracle must be named {kernel + '_reference'!r}",
                )
            for fn in (kernel, oracle):
                if fn not in defined:
                    report.at(
                        EXT_KERNELS,
                        lineno,
                        f"{fn!r} is dispatched but not defined in "
                        f"{EXT_KERNELS}",
                    )
            self._require_equivalence_test(
                project, report, EXT_KERNELS, lineno, kernel, oracle
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
