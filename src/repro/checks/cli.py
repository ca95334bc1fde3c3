"""Command-line front end for :mod:`repro.checks`.

Reachable two ways — ``repro-bid check ...`` (a subcommand of the main
CLI) and ``python -m repro.checks ...`` (standalone, e.g. from a
pre-commit hook before the package entry point is installed).  Both
share the argument definitions below.

Exit status: 0 when no findings, 1 when findings (or bad usage), so CI
steps and ``pre-commit`` consume it directly.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

from .cache import CheckCache
from .engine import CheckResult, find_root, run_checks
from .rules import RULES

__all__ = ["add_arguments", "run_check", "main"]

#: Directories scanned when no explicit paths are given.
DEFAULT_TARGETS = ("src", "tests")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``check`` options to a parser (shared by both entry
    points)."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to check (default: src/ and tests/ "
        "under the repo root)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        dest="output_format",
        help="findings as human-readable rows, a repro.checks/1 JSON "
        "document, or a SARIF 2.1.0 report (for CI problem annotations)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="check only python files changed vs. the given git ref "
        "(default HEAD) plus untracked files; project-wide rules still "
        "see the full tree",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="repo root for cross-file rules (default: nearest ancestor "
        "with a pyproject.toml)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        dest="no_cache",
        help="skip the incremental result cache (.repro-check-cache/) "
        "for this run",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        dest="list_rules",
        help="list the rule catalog and exit",
    )


def _changed_files(root: Path, base: str = "HEAD") -> Optional[List[Path]]:
    """Python files changed vs. ``base`` plus untracked ones, or
    ``None`` when git (or the ref) is unavailable — callers fall back
    to a full scan."""
    commands = (
        ["git", "-C", str(root), "diff", "--name-only", base, "--"],
        ["git", "-C", str(root), "ls-files", "--others", "--exclude-standard"],
    )
    names: List[str] = []
    for command in commands:
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        names.extend(line.strip() for line in proc.stdout.splitlines())
    out: List[Path] = []
    for name in names:
        if not name.endswith(".py"):
            continue
        path = root / name
        if path.is_file():
            out.append(path)
    return sorted(set(out))


def _print_rules(stream: TextIO) -> None:
    for rule_class in RULES:
        stream.write(f"{rule_class.rule_id}  {rule_class.name}\n")
        stream.write(f"       {rule_class.description}\n")


def run_check(args: argparse.Namespace) -> int:
    """Execute a parsed ``check`` invocation."""
    if args.list_rules:
        _print_rules(sys.stdout)
        return 0

    if args.root is not None:
        root = Path(args.root).resolve()
    elif args.paths:
        root = find_root(Path(args.paths[0]))
    else:
        root = find_root(Path.cwd())

    if args.changed is not None:
        changed = _changed_files(root, base=args.changed)
        if changed is None:
            print(
                f"warning: git diff vs. {args.changed!r} unavailable; "
                f"falling back to a full scan",
                file=sys.stderr,
            )
            paths = [root / target for target in DEFAULT_TARGETS]
        elif not changed:
            print("no changed python files")
            return 0
        else:
            paths = changed
    elif args.paths:
        paths = [Path(p) for p in args.paths]
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(
                f"error: no such path(s): "
                f"{', '.join(str(p) for p in missing)}",
                file=sys.stderr,
            )
            return 1
    else:
        paths = [
            root / target
            for target in DEFAULT_TARGETS
            if (root / target).exists()
        ]

    cache: Optional[CheckCache] = None
    if not getattr(args, "no_cache", False):
        cache = CheckCache(root)

    result: CheckResult = run_checks(paths, root=root, cache=cache)
    if args.output_format == "json":
        print(result.render_json())
    elif args.output_format == "sarif":
        print(result.render_sarif())
    else:
        print(result.render_human())
    return result.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.checks``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description="Repo-aware static analysis for the spot-bidding "
        "reproduction (determinism, kernel-oracle parity, numeric "
        "hygiene).",
    )
    add_arguments(parser)
    return run_check(parser.parse_args(argv))
