"""Sweep journals: round trip, signature checks, and crash-torn tails.

Retry, quarantine and journal reuse are the scheduler's and are tested
on every lane in tests/test_scheduler.py.
"""

import json

import pytest

from repro.errors import SweepExecutionError
from repro.resilience.execution import JournalWarning, SweepJournal


class TestSweepJournal:
    def test_round_trip(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl", signature={"k": 1})
        assert journal.load() == {}
        journal.record("a", {"x": 1.5})
        journal.record("b", [1, 2])
        fresh = SweepJournal(tmp_path / "j.jsonl", signature={"k": 1})
        assert fresh.load() == {"a": {"x": 1.5}, "b": [1, 2]}

    def test_signature_mismatch_rejected(self, tmp_path):
        SweepJournal(tmp_path / "j.jsonl", signature={"k": 1}).record("a", 1)
        other = SweepJournal(tmp_path / "j.jsonl", signature={"k": 2})
        with pytest.raises(SweepExecutionError, match="different"):
            other.load()

    def test_non_journal_file_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"hello": "world"}) + "\n")
        with pytest.raises(SweepExecutionError, match="not a sweep journal"):
            SweepJournal(path).load()

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record("a", 1)
        with open(journal.path, "a") as fh:
            fh.write('{"key": "b", "resu')  # crash mid-write
        with pytest.warns(JournalWarning, match="torn final line"):
            assert SweepJournal(tmp_path / "j.jsonl").load() == {"a": 1}

    def test_torn_final_line_is_repaired_on_load(self, tmp_path):
        """Loading truncates the torn tail so the next append is clean."""
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record("a", 1)
        with open(journal.path, "a") as fh:
            fh.write('{"key": "b", "resu')
        resumed = SweepJournal(tmp_path / "j.jsonl")
        with pytest.warns(JournalWarning):
            resumed.load()
        resumed.record("b", 2)  # appends onto the repaired tail
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")  # a clean file must not warn
            assert SweepJournal(tmp_path / "j.jsonl").load() == {"a": 1, "b": 2}

    def test_unparseable_middle_line_is_skipped_not_repaired(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record("a", 1)
        with open(journal.path, "a") as fh:
            fh.write("not json at all\n")
        journal.record("b", 2)
        with pytest.warns(JournalWarning, match="unparseable"):
            assert SweepJournal(tmp_path / "j.jsonl").load() == {"a": 1, "b": 2}
