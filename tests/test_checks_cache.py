"""The incremental result cache: hits, invalidation, and speedup.

Covers the two cache layers (per-file entries, run manifest), the
``--no-cache`` switch, and the headline
guarantee — an unchanged-tree re-check is at least 5x faster than the
cold run at the engine level.
"""

import textwrap
import time

from repro.checks import run_checks
from repro.checks.cache import CACHE_DIR_NAME, CheckCache
from repro.checks.cli import main as checks_main


def write_project(tmp_path, files):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


CLEAN_MODULE = """\
    import time


    def wait(budget):
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            pass
"""

DIRTY_MODULE = """\
    import time


    def wait(budget):
        deadline = time.time() + budget
        return deadline
"""


def run(tmp_path, cache):
    return run_checks([tmp_path / "src"], root=tmp_path, cache=cache)


class TestFileEntries:
    def test_warm_run_hits_every_file(self, tmp_path):
        write_project(
            tmp_path,
            {
                "src/a.py": CLEAN_MODULE + "\n    TAG_A = 1\n",
                "src/b.py": CLEAN_MODULE + "\n    TAG_B = 2\n",
            },
        )
        cold = CheckCache(tmp_path)
        run(tmp_path, cold)
        assert cold.stats["file_misses"] == 2

        warm = CheckCache(tmp_path)
        # Defeat the manifest so the per-file layer is what answers.
        (tmp_path / CACHE_DIR_NAME / "manifest.json").unlink()
        run(tmp_path, warm)
        assert warm.stats["file_hits"] == 2
        assert warm.stats["file_misses"] == 0

    def test_cached_findings_replay_identically(self, tmp_path):
        write_project(tmp_path, {"src/a.py": DIRTY_MODULE})
        cold = CheckCache(tmp_path)
        first = run(tmp_path, cold)
        assert first.findings

        warm = CheckCache(tmp_path)
        (tmp_path / CACHE_DIR_NAME / "manifest.json").unlink()
        second = run(tmp_path, warm)
        assert warm.stats["file_hits"] == 1
        assert second.findings == first.findings

    def test_content_change_invalidates_that_file_only(self, tmp_path):
        write_project(
            tmp_path,
            {
                "src/a.py": CLEAN_MODULE + "\n    TAG_A = 1\n",
                "src/b.py": CLEAN_MODULE + "\n    TAG_B = 2\n",
            },
        )
        run(tmp_path, CheckCache(tmp_path))

        (tmp_path / "src" / "a.py").write_text(textwrap.dedent(DIRTY_MODULE))
        warm = CheckCache(tmp_path)
        result = run(tmp_path, warm)
        assert warm.stats["file_misses"] == 1  # a.py re-walked
        assert warm.stats["file_hits"] == 1  # b.py replayed
        assert "RB705" in {f.rule_id for f in result.findings}
        assert {f.path for f in result.findings} == {"src/a.py"}

    def test_rename_still_hits(self, tmp_path):
        # Entries are keyed by content, not path.
        write_project(tmp_path, {"src/a.py": CLEAN_MODULE})
        run(tmp_path, CheckCache(tmp_path))

        (tmp_path / "src" / "a.py").rename(tmp_path / "src" / "renamed.py")
        warm = CheckCache(tmp_path)
        run(tmp_path, warm)
        assert warm.stats["file_hits"] == 1
        assert warm.stats["file_misses"] == 0

    def test_version_bump_invalidates(self, tmp_path):
        write_project(tmp_path, {"src/a.py": CLEAN_MODULE})
        run(tmp_path, CheckCache(tmp_path, version="2026.08.0"))

        warm = CheckCache(tmp_path, version="2026.09.0")
        run(tmp_path, warm)
        assert warm.stats["file_hits"] == 0
        assert warm.stats["file_misses"] == 1

    def test_corrupt_cache_degrades_to_cold(self, tmp_path):
        write_project(tmp_path, {"src/a.py": DIRTY_MODULE})
        cold = run(tmp_path, CheckCache(tmp_path))

        (tmp_path / CACHE_DIR_NAME / "files.json").write_text("{not json")
        (tmp_path / CACHE_DIR_NAME / "manifest.json").write_text("{not json")
        warm = CheckCache(tmp_path)
        result = run(tmp_path, warm)
        assert warm.stats["file_misses"] == 1
        assert result.findings == cold.findings
        assert "RB705" in {f.rule_id for f in result.findings}

    def test_cache_dir_ships_its_own_gitignore(self, tmp_path):
        write_project(tmp_path, {"src/a.py": CLEAN_MODULE})
        run(tmp_path, CheckCache(tmp_path))
        ignore = tmp_path / CACHE_DIR_NAME / ".gitignore"
        assert ignore.exists()
        assert "*" in ignore.read_text()


class TestManifest:
    def test_unchanged_tree_hits_manifest(self, tmp_path):
        write_project(
            tmp_path, {"src/a.py": CLEAN_MODULE, "src/b.py": DIRTY_MODULE}
        )
        first = run(tmp_path, CheckCache(tmp_path))

        warm = CheckCache(tmp_path)
        second = run(tmp_path, warm)
        assert warm.stats["manifest_hits"] == 1
        assert second.findings == first.findings
        assert second.files_scanned == first.files_scanned

    def test_new_file_misses_manifest(self, tmp_path):
        write_project(tmp_path, {"src/a.py": CLEAN_MODULE})
        run(tmp_path, CheckCache(tmp_path))

        (tmp_path / "src" / "new.py").write_text(textwrap.dedent(CLEAN_MODULE))
        warm = CheckCache(tmp_path)
        run(tmp_path, warm)
        assert warm.stats["manifest_hits"] == 0

    def test_project_read_outside_scan_set_invalidates(self, tmp_path):
        # RB201 parses tests/**/test_*.py through Project.file() even
        # when only src is scanned; editing such a test must defeat the
        # manifest even though it is not in the scan set.
        write_project(
            tmp_path,
            {
                "src/repro/sweep/kernels.py": """\
                    __all__ = ["foo_sweep_kernel"]

                    def foo_sweep_kernel():
                        return 0
                """,
                "src/repro/market/fastpath.py": """\
                    def fast_foo_outcome():
                        return 0
                """,
                "tests/test_foo_equivalence.py": """\
                    import numpy as np
                    from repro.market.fastpath import fast_foo_outcome
                    from repro.sweep.kernels import foo_sweep_kernel

                    def test_equivalence():
                        rng = np.random.default_rng(0)
                        assert foo_sweep_kernel() == fast_foo_outcome()
                """,
            },
        )
        first = run(tmp_path, CheckCache(tmp_path))
        assert first.findings == ()

        warm = CheckCache(tmp_path)
        second = run(tmp_path, warm)
        assert warm.stats["manifest_hits"] == 1  # test untouched: replay

        test = tmp_path / "tests" / "test_foo_equivalence.py"
        test.write_text(test.read_text() + "\n# edited\n")
        cold_again = CheckCache(tmp_path)
        run(tmp_path, cold_again)
        assert cold_again.stats["manifest_hits"] == 0
        assert second.findings == first.findings

    def test_manifest_replays_project_rule_findings(self, tmp_path):
        # Findings from project rules (not anchored to a walked file)
        # survive the manifest round-trip.
        write_project(tmp_path, {"src/a.py": DIRTY_MODULE})
        first = run(tmp_path, CheckCache(tmp_path))
        warm = CheckCache(tmp_path)
        second = run(tmp_path, warm)
        assert warm.stats["manifest_hits"] == 1
        assert second.findings == first.findings


class TestSpeedup:
    def test_warm_run_is_5x_faster(self, tmp_path):
        # Files need enough AST for the walk to dominate re-hashing.
        chunk = textwrap.dedent(
            """\
            def fn_{i}_{j}(items, budget):
                total = 0
                deadline = budget + {j}
                for item in items:
                    if item > deadline:
                        total += item
                    else:
                        total -= 1
                try:
                    return total / len(items)
                except ZeroDivisionError:
                    return 0.0
            """
        )
        files = {
            f"src/mod_{i:03d}.py": "\n".join(
                chunk.format(i=i, j=j) for j in range(40)
            )
            for i in range(40)
        }
        write_project(tmp_path, files)

        start = time.perf_counter()
        run(tmp_path, CheckCache(tmp_path))
        cold = time.perf_counter() - start

        warm_times = []
        for _ in range(3):
            warm_cache = CheckCache(tmp_path)
            start = time.perf_counter()
            run(tmp_path, warm_cache)
            warm_times.append(time.perf_counter() - start)
            assert warm_cache.stats["manifest_hits"] == 1
        warm = min(warm_times)

        assert warm * 5 <= cold, (
            f"warm re-check {warm * 1000:.1f}ms vs cold {cold * 1000:.1f}ms "
            f"— expected at least a 5x speedup"
        )


class TestCLISwitches:
    def test_cache_dir_created_by_default(self, tmp_path, capsys):
        write_project(tmp_path, {"src/a.py": CLEAN_MODULE})
        code = checks_main(["--root", str(tmp_path), str(tmp_path / "src")])
        assert code == 0
        assert (tmp_path / CACHE_DIR_NAME).is_dir()

    def test_no_cache_flag_disables(self, tmp_path, capsys):
        write_project(tmp_path, {"src/a.py": CLEAN_MODULE})
        code = checks_main(
            ["--no-cache", "--root", str(tmp_path), str(tmp_path / "src")]
        )
        assert code == 0
        assert not (tmp_path / CACHE_DIR_NAME).exists()

    def test_findings_exit_code_survives_warm_runs(self, tmp_path, capsys):
        write_project(tmp_path, {"src/a.py": DIRTY_MODULE})
        args = ["--root", str(tmp_path), str(tmp_path / "src")]
        assert checks_main(args) == 1
        assert checks_main(args) == 1  # warm: same verdict
        out = capsys.readouterr().out
        assert "RB705" in out
