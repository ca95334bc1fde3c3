"""RB701/RB702/RB705 — the concurrency rule fixtures.

Each rule gets triggering, clean, and suppressed snippets in throwaway
tmp-path projects (the real-tree anchors live in
tests/test_checks_meta.py).
"""

import textwrap

from repro.checks import run_checks
from repro.checks.rules.concurrency import (
    AsyncBlockingRule,
    ForkSafetyRule,
    MonotonicClockRule,
)


def check(tmp_path, files, rule_class, scan=("src",)):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_checks(
        [tmp_path / target for target in scan],
        rules=[rule_class()],
        root=tmp_path,
    )


def rule_ids(result):
    return [finding.rule_id for finding in result.findings]


class TestForkSafetyRB701:
    def test_thread_in_forking_module_flagged(self, tmp_path):
        source = """\
            import threading
            from multiprocessing import get_context

            ctx = get_context("fork")
            watcher = threading.Thread(target=print)
        """
        result = check(tmp_path, {"src/m.py": source}, ForkSafetyRule)
        assert rule_ids(result) == ["RB701"]
        assert "fork" in result.findings[0].message

    def test_lock_in_forking_module_flagged(self, tmp_path):
        source = """\
            import multiprocessing
            import threading

            multiprocessing.set_start_method("fork")
            GUARD = threading.Lock()
        """
        result = check(tmp_path, {"src/m.py": source}, ForkSafetyRule)
        assert rule_ids(result) == ["RB701"]

    def test_event_loop_in_forking_module_flagged(self, tmp_path):
        source = """\
            import asyncio
            from multiprocessing import get_context

            ctx = get_context("fork")
            loop = asyncio.new_event_loop()
        """
        result = check(tmp_path, {"src/m.py": source}, ForkSafetyRule)
        assert rule_ids(result) == ["RB701"]

    def test_conditional_fork_selection_still_counts(self, tmp_path):
        # The real pool selects "fork" conditionally; the rule follows
        # the constant into the conditional expression.
        source = """\
            import threading
            from multiprocessing import get_context

            ctx = get_context("fork" if True else "spawn")
            t = threading.Thread(target=print)
        """
        result = check(tmp_path, {"src/m.py": source}, ForkSafetyRule)
        assert rule_ids(result) == ["RB701"]

    def test_threads_without_fork_are_clean(self, tmp_path):
        source = """\
            import threading

            watcher = threading.Thread(target=print)
            GUARD = threading.Lock()
        """
        result = check(tmp_path, {"src/m.py": source}, ForkSafetyRule)
        assert result.findings == ()

    def test_spawn_context_with_threads_is_clean(self, tmp_path):
        source = """\
            import threading
            from multiprocessing import get_context

            ctx = get_context("spawn")
            watcher = threading.Thread(target=print)
        """
        result = check(tmp_path, {"src/m.py": source}, ForkSafetyRule)
        assert result.findings == ()

    def test_tests_are_exempt(self, tmp_path):
        source = """\
            import threading
            from multiprocessing import get_context

            ctx = get_context("fork")
            t = threading.Thread(target=print)
        """
        result = check(
            tmp_path,
            {"tests/test_m.py": source},
            ForkSafetyRule,
            scan=("tests",),
        )
        assert result.findings == ()

    def test_noqa_suppresses(self, tmp_path):
        source = """\
            import threading
            from multiprocessing import get_context

            ctx = get_context("fork")
            t = threading.Thread(target=print)  # repro: noqa(RB701)
        """
        result = check(tmp_path, {"src/m.py": source}, ForkSafetyRule)
        assert result.findings == ()


class TestAsyncBlockingRB702:
    def test_time_sleep_in_async_def_flagged(self, tmp_path):
        source = """\
            import time

            async def handler():
                time.sleep(0.1)
        """
        result = check(tmp_path, {"src/m.py": source}, AsyncBlockingRule)
        assert rule_ids(result) == ["RB702"]
        assert "asyncio.sleep" in result.findings[0].message

    def test_subprocess_in_async_def_flagged(self, tmp_path):
        source = """\
            import subprocess

            async def handler():
                subprocess.run(["ls"])
        """
        result = check(tmp_path, {"src/m.py": source}, AsyncBlockingRule)
        assert rule_ids(result) == ["RB702"]

    def test_open_in_async_def_flagged(self, tmp_path):
        source = """\
            async def handler(path):
                with open(path) as fh:
                    return fh.read()
        """
        result = check(tmp_path, {"src/m.py": source}, AsyncBlockingRule)
        assert rule_ids(result) == ["RB702"]

    def test_asyncio_sleep_is_clean(self, tmp_path):
        source = """\
            import asyncio

            async def handler():
                await asyncio.sleep(0.1)
        """
        result = check(tmp_path, {"src/m.py": source}, AsyncBlockingRule)
        assert result.findings == ()

    def test_sync_def_may_sleep(self, tmp_path):
        source = """\
            import time

            def worker():
                time.sleep(0.1)
        """
        result = check(tmp_path, {"src/m.py": source}, AsyncBlockingRule)
        assert result.findings == ()

    def test_sync_def_nested_in_async_def_may_block(self, tmp_path):
        # The nearest enclosing function decides: a sync helper defined
        # inside an async def runs wherever it is called (e.g. handed to
        # asyncio.to_thread), not on the loop.
        source = """\
            import time

            async def handler():
                def blocking_part():
                    time.sleep(0.1)
                return blocking_part
        """
        result = check(tmp_path, {"src/m.py": source}, AsyncBlockingRule)
        assert result.findings == ()

    def test_applies_to_tests_too(self, tmp_path):
        source = """\
            import time

            async def test_handler():
                time.sleep(0.1)
        """
        result = check(
            tmp_path,
            {"tests/test_m.py": source},
            AsyncBlockingRule,
            scan=("tests",),
        )
        assert rule_ids(result) == ["RB702"]

    def test_noqa_suppresses(self, tmp_path):
        source = """\
            import time

            async def handler():
                time.sleep(0.1)  # repro: noqa(RB702)
        """
        result = check(tmp_path, {"src/m.py": source}, AsyncBlockingRule)
        assert result.findings == ()


class TestMonotonicClockRB705:
    def test_deadline_assignment_from_wall_clock_flagged(self, tmp_path):
        source = """\
            import time

            def f(budget):
                deadline = time.time() + budget
                return deadline
        """
        result = check(tmp_path, {"src/m.py": source}, MonotonicClockRule)
        assert rule_ids(result) == ["RB705"]
        assert "monotonic" in result.findings[0].message

    def test_tainted_value_through_assignment_chain_flagged(self, tmp_path):
        # The wall-clock read is laundered through a plain name before
        # reaching the deadline comparison; the taint pass follows it.
        source = """\
            import time

            def f(deadline):
                now = time.time()
                stamp = now
                return stamp > deadline
        """
        result = check(tmp_path, {"src/m.py": source}, MonotonicClockRule)
        assert rule_ids(result) == ["RB705"]

    def test_heartbeat_attribute_assignment_flagged(self, tmp_path):
        source = """\
            import time

            class Worker:
                def beat(self):
                    self.last_seen = time.time()
        """
        result = check(tmp_path, {"src/m.py": source}, MonotonicClockRule)
        assert rule_ids(result) == ["RB705"]

    def test_wall_clock_attribute_read_in_another_method_flagged(self, tmp_path):
        # The stamp is stored on an object in one method and compared
        # against a deadline in another; the attribute carries the taint.
        source = """\
            import time

            class Shard:
                def start(self):
                    self.started = time.time()

                def overdue(self, now, timeout):
                    return now - self.started > timeout
        """
        result = check(tmp_path, {"src/m.py": source}, MonotonicClockRule)
        assert rule_ids(result) == ["RB705"]
        assert result.findings[0].line == 8

    def test_monotonic_deadlines_are_clean(self, tmp_path):
        source = """\
            import time

            def f(budget):
                deadline = time.monotonic() + budget
                while time.monotonic() < deadline:
                    pass
        """
        result = check(tmp_path, {"src/m.py": source}, MonotonicClockRule)
        assert result.findings == ()

    def test_wall_clock_without_deadline_context_is_clean(self, tmp_path):
        # Plain timestamping is RB101's business, not RB705's.
        source = """\
            import time

            def f():
                started_at = time.time()
                return started_at
        """
        result = check(tmp_path, {"src/m.py": source}, MonotonicClockRule)
        assert result.findings == ()

    def test_applies_to_tests_too(self, tmp_path):
        source = """\
            import time

            def test_f():
                deadline = time.time() + 5
                assert deadline
        """
        result = check(
            tmp_path,
            {"tests/test_m.py": source},
            MonotonicClockRule,
            scan=("tests",),
        )
        assert rule_ids(result) == ["RB705"]

    def test_noqa_suppresses(self, tmp_path):
        source = """\
            import time

            def f(budget):
                deadline = time.time() + budget  # repro: noqa(RB705)
                return deadline
        """
        result = check(tmp_path, {"src/m.py": source}, MonotonicClockRule)
        assert result.findings == ()
