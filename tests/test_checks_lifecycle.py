"""RB703/RB704 — the durability and resource-lifecycle rule fixtures.

Triggering, clean, and suppressed snippets per rule; the real-tree
anchors (the shard journal's fsync, the coordinator's pipes) are pinned
by tests/test_checks_meta.py.
"""

import textwrap

from repro.checks import run_checks
from repro.checks.rules.lifecycle import (
    JournalDurabilityRule,
    ResourceLifecycleRule,
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


class TestJournalDurabilityRB703:
    def test_sweepjournal_without_fsync_choice_flagged(self, tmp_path):
        source = """\
            from repro.scheduler.journal import SweepJournal

            def make(path):
                return SweepJournal(path, signature={})
        """
        result = check(tmp_path, {"src/m.py": source}, JournalDurabilityRule)
        assert rule_ids(result) == ["RB703"]
        assert "fsync" in result.findings[0].message

    def test_explicit_fsync_true_is_clean(self, tmp_path):
        source = """\
            from repro.scheduler.journal import SweepJournal

            def make(path):
                return SweepJournal(path, fsync=True)
        """
        result = check(tmp_path, {"src/m.py": source}, JournalDurabilityRule)
        assert result.findings == ()

    def test_explicit_fsync_false_is_clean(self, tmp_path):
        # An explicit non-durable choice is a *choice*; the rule only
        # rejects silently inheriting the default.
        source = """\
            from repro.scheduler.journal import SweepJournal

            def make(path):
                return SweepJournal(path, fsync=False)
        """
        result = check(tmp_path, {"src/m.py": source}, JournalDurabilityRule)
        assert result.findings == ()

    def test_kwargs_forwarding_is_clean(self, tmp_path):
        source = """\
            from repro.scheduler.journal import SweepJournal

            def make(path, **kwargs):
                return SweepJournal(path, **kwargs)
        """
        result = check(tmp_path, {"src/m.py": source}, JournalDurabilityRule)
        assert result.findings == ()

    def test_journal_write_path_without_fsync_flagged(self, tmp_path):
        source = """\
            import json

            class ToyJournal:
                def record(self, key, value):
                    with open(self.path, "a") as fh:
                        fh.write(json.dumps([key, value]) + "\\n")
                        fh.flush()
        """
        result = check(tmp_path, {"src/m.py": source}, JournalDurabilityRule)
        assert rule_ids(result) == ["RB703"]
        assert "os.fsync" in result.findings[0].message

    def test_journal_write_path_with_fsync_is_clean(self, tmp_path):
        source = """\
            import json
            import os

            class ToyJournal:
                def record(self, key, value):
                    with open(self.path, "a") as fh:
                        fh.write(json.dumps([key, value]) + "\\n")
                        fh.flush()
                        os.fsync(fh.fileno())
        """
        result = check(tmp_path, {"src/m.py": source}, JournalDurabilityRule)
        assert result.findings == ()

    def test_read_paths_are_not_write_paths(self, tmp_path):
        source = """\
            class ToyJournal:
                def load(self):
                    with open(self.path) as fh:
                        return fh.read()
        """
        result = check(tmp_path, {"src/m.py": source}, JournalDurabilityRule)
        assert result.findings == ()

    def test_non_journal_classes_are_exempt(self, tmp_path):
        source = """\
            class Logger:
                def record(self, line):
                    with open(self.path, "a") as fh:
                        fh.write(line)
        """
        result = check(tmp_path, {"src/m.py": source}, JournalDurabilityRule)
        assert result.findings == ()

    def test_tests_are_exempt(self, tmp_path):
        source = """\
            from repro.scheduler.journal import SweepJournal

            def test_make(path):
                return SweepJournal(path)
        """
        result = check(
            tmp_path,
            {"tests/test_m.py": source},
            JournalDurabilityRule,
            scan=("tests",),
        )
        assert result.findings == ()

    def test_noqa_suppresses(self, tmp_path):
        source = """\
            from repro.scheduler.journal import SweepJournal

            def make(path):
                return SweepJournal(path)  # repro: noqa(RB703)
        """
        result = check(tmp_path, {"src/m.py": source}, JournalDurabilityRule)
        assert result.findings == ()


class TestResourceLifecycleRB704:
    def test_unbalanced_pipe_flagged(self, tmp_path):
        source = """\
            import os

            def f():
                r, w = os.pipe()
                os.write(w, b"x")
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert rule_ids(result) == ["RB704"]  # one finding per call site
        assert "os.pipe" in result.findings[0].message

    def test_pipe_closed_on_all_paths_is_clean(self, tmp_path):
        source = """\
            import os

            def f():
                r, w = os.pipe()
                os.write(w, b"x")
                os.close(r)
                os.close(w)
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert result.findings == ()

    def test_close_on_one_branch_only_flagged(self, tmp_path):
        source = """\
            import socket

            def f(cond):
                sock = socket.socket()
                if cond:
                    sock.close()
                return None
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert rule_ids(result) == ["RB704"]
        assert "every" in result.findings[0].message or "path" in result.findings[0].message

    def test_close_on_both_branches_is_clean(self, tmp_path):
        source = """\
            import socket

            def f(cond):
                sock = socket.socket()
                if cond:
                    sock.close()
                else:
                    sock.close()
                return None
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert result.findings == ()

    def test_early_return_path_that_skips_close_flagged(self, tmp_path):
        source = """\
            import socket

            def f(cond):
                sock = socket.socket()
                if cond:
                    return None
                sock.close()
                return None
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert rule_ids(result) == ["RB704"]

    def test_with_block_is_clean(self, tmp_path):
        source = """\
            def f(path):
                with open(path, "w") as fh:
                    fh.write("x")
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert result.findings == ()

    def test_try_finally_is_clean(self, tmp_path):
        source = """\
            import socket

            def f():
                try:
                    sock = socket.socket()
                    sock.connect(("localhost", 1))
                finally:
                    sock.close()
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert result.findings == ()

    def test_returned_handle_escapes(self, tmp_path):
        source = """\
            import socket

            def f():
                sock = socket.socket()
                return sock
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert result.findings == ()

    def test_attribute_store_escapes(self, tmp_path):
        source = """\
            import socket

            class Server:
                def __init__(self):
                    self.sock = socket.socket()
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert result.findings == ()

    def test_handed_to_call_escapes(self, tmp_path):
        source = """\
            import socket

            def f(registry):
                sock = socket.socket()
                registry.adopt(sock)
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert result.findings == ()

    def test_bare_expression_drop_flagged(self, tmp_path):
        source = """\
            import socket

            def f():
                socket.socket()
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert rule_ids(result) == ["RB704"]
        assert "drops the handle" in result.findings[0].message

    def test_mkstemp_path_string_needs_no_close(self, tmp_path):
        source = """\
            import os
            from tempfile import mkstemp

            def f():
                fd, path = mkstemp()
                os.close(fd)
                return path
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert result.findings == ()

    def test_tempfile_without_close_flagged(self, tmp_path):
        source = """\
            from tempfile import NamedTemporaryFile

            def f():
                tmp = NamedTemporaryFile(delete=False)
                tmp.write(b"x")
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert rule_ids(result) == ["RB704"]

    def test_loop_with_close_after_is_clean(self, tmp_path):
        # The close after the loop dominates the exit even though the
        # loop body itself never closes.
        source = """\
            import socket

            def f(chunks):
                sock = socket.socket()
                for chunk in chunks:
                    sock.send(chunk)
                sock.close()
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert result.findings == ()

    def test_break_that_skips_close_flagged(self, tmp_path):
        source = """\
            import socket

            def f(chunks):
                sock = socket.socket()
                for chunk in chunks:
                    if not chunk:
                        break
                    sock.send(chunk)
                else:
                    sock.close()
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert rule_ids(result) == ["RB704"]

    def test_tests_are_exempt(self, tmp_path):
        source = """\
            import socket

            def test_f():
                sock = socket.socket()
                assert sock
        """
        result = check(
            tmp_path,
            {"tests/test_m.py": source},
            ResourceLifecycleRule,
            scan=("tests",),
        )
        assert result.findings == ()

    def test_noqa_suppresses(self, tmp_path):
        source = """\
            import socket

            def f():
                sock = socket.socket()  # repro: noqa(RB704)
                return None
        """
        result = check(tmp_path, {"src/m.py": source}, ResourceLifecycleRule)
        assert result.findings == ()
