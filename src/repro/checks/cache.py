"""Incremental result cache for the check engine.

Two layers, both stored under ``.repro-check-cache/`` at the repo root
(the CLI's ``--no-cache`` skips the cache for one run):

**Per-file entries** (``files.json``)
    Walk findings of one file, keyed by the sha256 of its *content*
    plus the rule-pack version and the id set of the active rules — so
    edits, rule upgrades, and rule-subset runs each invalidate exactly
    what they must, and renames still hit.  Only findings anchored to
    the walked file are cached; cross-file findings are re-derived every
    run by the project rules.

**Run manifest** (``manifest.json``)
    The full result of the last run plus a record of *everything* the
    project rules read outside the scan set (extra files by content
    digest, glob patterns by their result lists — see
    :class:`~repro.checks.engine.ProjectAccesses`).  A rerun whose scan
    set hashes and recorded accesses all match returns the cached
    :class:`~repro.checks.engine.CheckResult` after only re-hashing the
    tree, which is what makes unchanged-tree re-checks near-instant.

The cache is advisory: corrupt or missing files degrade to a cold run,
never to an error.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .engine import CheckResult, Finding, ProjectAccesses

__all__ = ["CACHE_DIR_NAME", "CheckCache"]

#: Directory created under the repo root to hold cache state.
CACHE_DIR_NAME = ".repro-check-cache"

#: On-disk format tag; bump on incompatible layout changes.
_FORMAT = "repro.checks.cache/1"

#: Entry-count bound of ``files.json`` (oldest entries dropped first).
_MAX_ENTRIES = 8192

#: One serialized finding, path implied by the cache key's file.
Row = Tuple[int, int, str, str]


def _text_digest(path: Path) -> Optional[str]:
    """Digest of a file's decoded text (``None`` when unreadable) —
    matches how :class:`~repro.checks.engine.Project` records accesses."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_json(path: Path) -> Optional[Dict[str, object]]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


class CheckCache:
    """Persistent findings cache of one repo's check runs."""

    def __init__(
        self,
        root: Union[str, Path],
        directory: Union[str, Path, None] = None,
        version: Optional[str] = None,
    ) -> None:
        if version is None:
            from .rules import RULE_PACK_VERSION

            version = RULE_PACK_VERSION
        self.root = Path(root).resolve()
        self.directory = (
            Path(directory) if directory is not None else self.root / CACHE_DIR_NAME
        )
        self.version = version
        self.stats: Dict[str, int] = {
            "manifest_hits": 0,
            "file_hits": 0,
            "file_misses": 0,
        }
        self._entries: Optional[Dict[str, List[Row]]] = None
        self._dirty = False

    # -- per-file entries ------------------------------------------------

    def _key(self, digest: str, rule_key: str) -> str:
        material = f"{_FORMAT}|{self.version}|{rule_key}"
        return f"{digest}:{hashlib.sha256(material.encode()).hexdigest()[:16]}"

    def _load_entries(self) -> Dict[str, List[Row]]:
        if self._entries is None:
            data = _read_json(self.directory / "files.json")
            entries: Dict[str, List[Row]] = {}
            if data is not None and data.get("format") == _FORMAT:
                raw = data.get("entries")
                if isinstance(raw, dict):
                    for key, rows in raw.items():
                        if not isinstance(rows, list):
                            continue
                        try:
                            entries[str(key)] = [
                                (int(r[0]), int(r[1]), str(r[2]), str(r[3]))
                                for r in rows
                            ]
                        except (IndexError, TypeError, ValueError):
                            continue  # corrupt entry: treat as a miss
            self._entries = entries
        return self._entries

    def lookup(self, digest: str, rule_key: str) -> Optional[List[Row]]:
        """Cached findings rows for a file content, or ``None``."""
        rows = self._load_entries().get(self._key(digest, rule_key))
        if rows is None:
            self.stats["file_misses"] += 1
            return None
        self.stats["file_hits"] += 1
        return rows

    def store(self, digest: str, rule_key: str, rows: Sequence[Row]) -> None:
        entries = self._load_entries()
        entries[self._key(digest, rule_key)] = list(rows)
        self._dirty = True

    # -- run manifest ----------------------------------------------------

    def try_manifest(
        self, rule_key: str, files: Dict[str, str]
    ) -> Optional[CheckResult]:
        """The previous run's result, iff the tree state it recorded —
        scan set hashes, extra-file digests, glob results — still holds."""
        data = _read_json(self.directory / "manifest.json")
        if (
            data is None
            or data.get("format") != _FORMAT
            or data.get("version") != self.version
            or data.get("rule_key") != rule_key
            or data.get("files") != files
        ):
            return None
        extras = data.get("extras")
        globs = data.get("globs")
        raw_findings = data.get("findings")
        if (
            not isinstance(extras, dict)
            or not isinstance(globs, dict)
            or not isinstance(raw_findings, list)
        ):
            return None
        for rel, digest in extras.items():
            if rel not in files and _text_digest(self.root / rel) != digest:
                return None
        for pattern, rels in globs.items():
            if self._glob(pattern) != list(rels):
                return None
        try:
            findings = tuple(
                Finding(str(p), int(l), int(c), str(r), str(m))
                for p, l, c, r, m in raw_findings
            )
        except (TypeError, ValueError):
            return None
        self.stats["manifest_hits"] += 1
        return CheckResult(
            findings=findings,
            files_scanned=int(data.get("files_scanned", len(files))),  # type: ignore[call-overload]
            root=self.root,
        )

    def _glob(self, pattern: str) -> List[str]:
        # Mirrors Project.glob so recorded results compare equal.
        out: List[str] = []
        for path in self.root.glob(pattern):
            if not path.is_file():
                continue
            resolved = path.resolve()
            try:
                out.append(resolved.relative_to(self.root).as_posix())
            except ValueError:
                out.append(resolved.as_posix())
        return sorted(out)

    def finish_run(
        self,
        rule_key: str,
        files: Dict[str, str],
        accesses: Optional[ProjectAccesses],
        result: CheckResult,
        complete: bool = True,
    ) -> None:
        """Persist per-file entries and (for complete runs) the manifest."""
        self._ensure_directory()
        if self._dirty and self._entries is not None:
            entries = self._entries
            if len(entries) > _MAX_ENTRIES:
                entries = dict(list(entries.items())[-_MAX_ENTRIES:])
            self._write_json(
                self.directory / "files.json",
                {"format": _FORMAT, "entries": entries},
            )
            self._dirty = False
        if not complete:
            return
        recorded = accesses if accesses is not None else ProjectAccesses()
        self._write_json(
            self.directory / "manifest.json",
            {
                "format": _FORMAT,
                "version": self.version,
                "rule_key": rule_key,
                "files": files,
                "extras": recorded.extras,
                "globs": {k: list(v) for k, v in recorded.globs.items()},
                "files_scanned": result.files_scanned,
                "findings": [
                    [f.path, f.line, f.col, f.rule_id, f.message]
                    for f in result.findings
                ],
            },
        )

    # -- disk helpers ----------------------------------------------------

    def _ensure_directory(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        ignore = self.directory / ".gitignore"
        if not ignore.exists():
            try:
                ignore.write_text("# created by repro-bid check\n*\n")
            except OSError:
                pass

    def _write_json(self, path: Path, document: Dict[str, object]) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        try:
            tmp.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            pass
