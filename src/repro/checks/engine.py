"""The rule engine behind ``repro-bid check``.

One :class:`CheckEngine` run parses every target file into an AST
exactly once, walks each tree exactly once — dispatching nodes to the
rules that registered interest in their types — and then gives
cross-file ("project") rules a chance to reason over the whole corpus
(plus any extra files they pull in lazily, e.g. ``tests/`` modules for
the kernel-parity rule).

Suppressions
------------
Findings are suppressed with structured comments:

``# repro: noqa(RB101)``
    on the offending line silences the listed rule(s) for that line;
    ``# repro: noqa(RB101, RB401)`` lists several, bare
    ``# repro: noqa`` silences every rule on the line.

``# repro: noqa-file(RB101)``
    anywhere in a file silences the listed rule(s) for the whole file
    (ids are mandatory here — whole-file blanket suppression is not
    offered on purpose).

Output
------
Human output is one ``path:line:col: RBxxx message`` row per finding;
``--format json`` emits the versioned :data:`SCHEMA` document consumed
by CI tooling.  The process exit code is the number of findings capped
at 1, so shells and CI read it as pass/fail.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cache import CheckCache

__all__ = [
    "SCHEMA",
    "PARSE_ERROR_ID",
    "Finding",
    "FileContext",
    "Project",
    "Reporter",
    "Rule",
    "CheckResult",
    "run_checks",
]

#: JSON report schema identifier.
SCHEMA = "repro.checks/1"

#: Pseudo-rule id attached to files that fail to parse.
PARSE_ERROR_ID = "RB000"

_RULE_ID_RE = re.compile(r"^RB\d{3}$")
_NOQA_LINE_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\(\s*(?P<ids>RB\d{3}(?:\s*,\s*RB\d{3})*)\s*\))?"
)
_NOQA_FILE_RE = re.compile(
    r"#\s*repro:\s*noqa-file\(\s*(?P<ids>RB\d{3}(?:\s*,\s*RB\d{3})*)\s*\)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file position.

    ``path`` is root-relative with POSIX separators so reports are
    stable across machines; ordering is the natural report order.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


def _split_ids(raw: str) -> FrozenSet[str]:
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


class FileContext:
    """One parsed target file: source, AST and suppression tables."""

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        #: Scratch space for analyses shared between rules on the same
        #: file (e.g. the dataflow layer memoizes CFGs here).
        self.cache: Dict[str, Any] = {}
        #: line -> suppressed rule ids; ``None`` value means *all* rules.
        self.line_suppressions: Dict[int, Optional[FrozenSet[str]]] = {}
        self.file_suppressions: FrozenSet[str] = frozenset()
        self._scan_suppressions()

    def _scan_suppressions(self) -> None:
        file_ids: Set[str] = set()
        for lineno, text in enumerate(self.source.splitlines(), start=1):
            if "repro:" not in text:
                continue
            file_match = _NOQA_FILE_RE.search(text)
            if file_match:
                file_ids.update(_split_ids(file_match.group("ids")))
                continue
            line_match = _NOQA_LINE_RE.search(text)
            if line_match:
                raw = line_match.group("ids")
                self.line_suppressions[lineno] = (
                    _split_ids(raw) if raw is not None else None
                )
        self.file_suppressions = frozenset(file_ids)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        if rule_id in self.file_suppressions:
            return True
        if line in self.line_suppressions:
            ids = self.line_suppressions[line]
            return ids is None or rule_id in ids
        return False


class _ScanSet:
    """Dict-like view of the scan set that parses cache-hit files lazily.

    Files the incremental cache skipped are registered with
    :meth:`register_lazy`; they count toward ``len()`` immediately but
    are only read and parsed if a project rule actually asks for their
    :class:`FileContext` (e.g. RB201 pulling the fastpath oracle's AST).
    """

    def __init__(self) -> None:
        self._eager: Dict[str, FileContext] = {}
        self._pending: Dict[str, Path] = {}
        self._failed: Set[str] = set()

    def __setitem__(self, rel: str, ctx: FileContext) -> None:
        self._eager[rel] = ctx
        self._pending.pop(rel, None)

    def register_lazy(self, rel: str, path: Path) -> None:
        if rel not in self._eager:
            self._pending[rel] = path

    def _materialize(self, rel: str) -> None:
        path = self._pending.pop(rel)
        try:
            source = path.read_text(encoding="utf-8")
            self._eager[rel] = FileContext(path, rel, source)
        except (OSError, SyntaxError, ValueError, tokenize.TokenError):
            # The file changed (or vanished) between hashing and this
            # read; count it but serve no context, like a parse error.
            self._failed.add(rel)

    def get(self, rel: str, default: Optional[FileContext] = None) -> Optional[FileContext]:
        if rel in self._pending:
            self._materialize(rel)
        return self._eager.get(rel, default)

    def __getitem__(self, rel: str) -> FileContext:
        ctx = self.get(rel)
        if ctx is None:
            raise KeyError(rel)
        return ctx

    def __contains__(self, rel: object) -> bool:
        return rel in self._eager or rel in self._pending

    def __iter__(self) -> Iterator[str]:
        yield from self._eager
        yield from self._pending

    def keys(self) -> List[str]:
        return list(self)

    def __len__(self) -> int:
        return len(self._eager) + len(self._pending) + len(self._failed)


@dataclass
class ProjectAccesses:
    """Everything a run's project rules read outside the scan set.

    Recorded so the incremental cache can prove an unchanged-tree rerun
    would see identical inputs: extra parsed files by content digest,
    glob patterns by their result lists.
    """

    extras: Dict[str, Optional[str]] = field(default_factory=dict)
    globs: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


class Project:
    """Repo-level context shared by all rules of one run.

    ``root`` anchors the repo layout (the directory holding
    ``pyproject.toml``); ``scanned`` maps root-relative paths to the
    :class:`FileContext` of every file in the scan set.  Project rules
    may pull additional files in lazily via :meth:`file` / :meth:`glob`
    — those are parsed once and cached but are *not* themselves scanned
    for per-file findings.
    """

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.scanned: _ScanSet = _ScanSet()
        self._extra: Dict[str, Optional[FileContext]] = {}
        #: Set by the engine when an incremental cache is active.
        self.accesses: Optional[ProjectAccesses] = None

    def rel(self, path: Path) -> str:
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root).as_posix()
        except ValueError:
            return resolved.as_posix()

    def file(self, rel: str) -> Optional[FileContext]:
        """The (possibly lazily parsed) context for a root-relative
        path, or ``None`` if the file is missing or unparseable."""
        if rel in self.scanned:
            return self.scanned.get(rel)
        if rel not in self._extra:
            path = self.root / rel
            source: Optional[str] = None
            try:
                source = path.read_text(encoding="utf-8")
                self._extra[rel] = FileContext(path, rel, source)
            except (OSError, SyntaxError, ValueError):
                self._extra[rel] = None
            if self.accesses is not None:
                self.accesses.extras[rel] = (
                    hashlib.sha256(source.encode("utf-8")).hexdigest()
                    if source is not None
                    else None
                )
        return self._extra[rel]

    def glob(self, pattern: str) -> List[str]:
        """Root-relative paths matching a glob under the root."""
        result = sorted(
            self.rel(path)
            for path in self.root.glob(pattern)
            if path.is_file()
        )
        if self.accesses is not None:
            self.accesses.globs[pattern] = tuple(result)
        return result


class Reporter:
    """Per-rule reporting facade: applies suppressions, collects findings."""

    def __init__(self, project: Project, rule_id: str, sink: List[Finding]) -> None:
        self._project = project
        self.rule_id = rule_id
        self._default_sink = sink
        self._sink = sink

    def push_sink(self, sink: List[Finding]) -> None:
        """Route ``at_node`` findings into ``sink`` (the engine uses a
        per-file sink during walks so findings are cacheable)."""
        self._sink = sink

    def pop_sink(self) -> None:
        self._sink = self._default_sink

    def at_node(self, ctx: FileContext, node: ast.AST, message: str) -> None:
        line = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0))
        if not ctx.is_suppressed(line, self.rule_id):
            self._sink.append(Finding(ctx.rel, line, col, self.rule_id, message))

    def at(self, rel: str, line: int, message: str, col: int = 0) -> None:
        ctx = self._project.file(rel)
        if ctx is not None and ctx.is_suppressed(line, self.rule_id):
            return
        # Cross-file findings bypass any per-file sink: they must not be
        # cached under the file currently being walked.
        self._default_sink.append(Finding(rel, line, col, self.rule_id, message))


class Rule:
    """Base class for check rules.

    Subclasses set the class attributes and override any of the hooks:

    ``node_types``
        AST node classes the rule wants :meth:`visit` callbacks for
        during the engine's single walk of each file.
    ``applies_to``
        Per-file gate (path-scoped rules return ``False`` to skip).
    ``finish_project``
        Cross-file analysis, called once after every file was walked.
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def start_file(self, ctx: FileContext) -> None:
        """Reset any per-file state before a walk begins."""

    def visit(
        self,
        node: ast.AST,
        ancestors: Sequence[ast.AST],
        ctx: FileContext,
        report: Reporter,
    ) -> None:
        """Handle one node of a registered type (``ancestors`` is the
        chain from the module node down to the node's parent)."""

    def finish_file(self, ctx: FileContext, report: Reporter) -> None:
        """Per-file wrap-up after the walk."""

    def finish_project(self, project: Project, report: Reporter) -> None:
        """Cross-file analysis over the whole scanned corpus."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one engine run."""

    findings: Tuple[Finding, ...]
    files_scanned: int
    root: Path

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule_id] = out.get(finding.rule_id, 0) + 1
        return out

    def render_human(self) -> str:
        lines = [finding.render() for finding in self.findings]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"{len(self.findings)} {noun} in {self.files_scanned} file(s)"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        document = {
            "schema": SCHEMA,
            "files_scanned": self.files_scanned,
            "counts": self.counts(),
            "findings": [finding.to_dict() for finding in self.findings],
        }
        return json.dumps(document, indent=2, sort_keys=True)

    def render_sarif(self) -> str:
        """The findings as a SARIF 2.1.0 document (what CI uploads so
        GitHub renders findings as inline problem annotations)."""
        from .rules import RULE_PACK_VERSION, RULES

        descriptors = [
            {
                "id": rule_class.rule_id,
                "name": rule_class.name,
                "shortDescription": {"text": rule_class.description},
            }
            for rule_class in RULES
        ]
        descriptors.append(
            {
                "id": PARSE_ERROR_ID,
                "name": "parse-error",
                "shortDescription": {"text": "file does not parse"},
            }
        )
        results = [
            {
                "ruleId": finding.rule_id,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": max(finding.line, 1),
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
            }
            for finding in self.findings
        ]
        document = {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro.checks",
                            "version": RULE_PACK_VERSION,
                            "rules": descriptors,
                        }
                    },
                    "originalUriBaseIds": {
                        "SRCROOT": {"uri": self.root.as_uri() + "/"}
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(document, indent=2, sort_keys=True)


def find_root(start: Path) -> Path:
    """The nearest ancestor of ``start`` holding ``pyproject.toml``
    (falling back to ``start`` itself, or its directory for files)."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            if "__pycache__" in resolved.parts or resolved.suffix != ".py":
                continue
            if any(part.endswith(".egg-info") for part in resolved.parts):
                continue
            seen.add(resolved)
            out.append(resolved)
    return out


class CheckEngine:
    """Walk each file once, fanning nodes out to interested rules."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        ids = [rule.rule_id for rule in rules]
        for rule_id in ids:
            if not _RULE_ID_RE.match(rule_id):
                raise ValueError(f"invalid rule id {rule_id!r}")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule ids in {ids}")
        self.rules = list(rules)

    def run(
        self,
        paths: Sequence[Path],
        root: Optional[Path] = None,
        cache: Optional["CheckCache"] = None,
    ) -> CheckResult:
        files = iter_python_files([Path(p) for p in paths])
        if root is None:
            anchor = files[0] if files else Path.cwd()
            root = find_root(anchor)
        project = Project(root)
        rule_key = ",".join(sorted(rule.rule_id for rule in self.rules))

        findings: List[Finding] = []
        hashed: List[Tuple[Path, str, bytes, str]] = []
        for path in files:
            rel = project.rel(path)
            try:
                raw = path.read_bytes()
            except OSError as exc:
                findings.append(
                    Finding(rel, 1, 0, PARSE_ERROR_ID, f"file not readable: {exc}")
                )
                continue
            hashed.append((path, rel, raw, hashlib.sha256(raw).hexdigest()))
        complete = not findings

        if cache is not None and complete:
            cached_result = cache.try_manifest(
                rule_key, {rel: digest for _, rel, _, digest in hashed}
            )
            if cached_result is not None:
                return cached_result
        if cache is not None:
            project.accesses = ProjectAccesses()

        reporters = {
            rule.rule_id: Reporter(project, rule.rule_id, findings)
            for rule in self.rules
        }

        for path, rel, raw, digest in hashed:
            rows = cache.lookup(digest, rule_key) if cache is not None else None
            if rows is not None:
                findings.extend(
                    Finding(rel, line, col, rule_id, message)
                    for line, col, rule_id, message in rows
                )
                if not any(row[2] == PARSE_ERROR_ID for row in rows):
                    # Stays visible to project rules, parsed on demand.
                    project.scanned.register_lazy(rel, path)
                continue
            try:
                ctx = FileContext(path, rel, raw.decode("utf-8"))
            except (SyntaxError, ValueError, tokenize.TokenError) as exc:
                lineno = int(getattr(exc, "lineno", 1) or 1)
                row = Finding(
                    rel, lineno, 0, PARSE_ERROR_ID, f"file does not parse: {exc}"
                )
                findings.append(row)
                if cache is not None:
                    cache.store(
                        digest,
                        rule_key,
                        [(row.line, row.col, row.rule_id, row.message)],
                    )
                continue
            project.scanned[rel] = ctx
            file_sink: List[Finding] = []
            for reporter in reporters.values():
                reporter.push_sink(file_sink)
            try:
                self._walk_file(ctx, reporters)
            finally:
                for reporter in reporters.values():
                    reporter.pop_sink()
            findings.extend(file_sink)
            if cache is not None:
                cache.store(
                    digest,
                    rule_key,
                    [
                        (f.line, f.col, f.rule_id, f.message)
                        for f in file_sink
                        if f.path == rel
                    ],
                )

        for rule in self.rules:
            rule.finish_project(project, reporters[rule.rule_id])

        findings.sort()
        result = CheckResult(
            findings=tuple(findings),
            files_scanned=len(project.scanned),
            root=project.root,
        )
        if cache is not None:
            cache.finish_run(
                rule_key,
                {rel: digest for _, rel, _, digest in hashed},
                project.accesses,
                result,
                complete=complete,
            )
        return result

    def _walk_file(self, ctx: FileContext, reporters: Dict[str, Reporter]) -> None:
        active = [rule for rule in self.rules if rule.applies_to(ctx)]
        if not active:
            return
        dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in active:
            rule.start_file(ctx)
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        if dispatch:
            ancestors: List[ast.AST] = []

            def descend(node: ast.AST) -> None:
                for rule in dispatch.get(type(node), ()):
                    rule.visit(node, ancestors, ctx, reporters[rule.rule_id])
                ancestors.append(node)
                for child in ast.iter_child_nodes(node):
                    descend(child)
                ancestors.pop()

            descend(ctx.tree)
        for rule in active:
            rule.finish_file(ctx, reporters[rule.rule_id])


def run_checks(
    paths: Sequence[Path],
    *,
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
    cache: Optional["CheckCache"] = None,
) -> CheckResult:
    """Run the (given or default) rule set over ``paths``.

    ``cache`` (a :class:`repro.checks.cache.CheckCache`) enables the
    incremental result cache; ``None`` — the default — runs cold.
    """
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    return CheckEngine(rules).run(paths, root=root, cache=cache)
