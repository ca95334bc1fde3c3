"""The repro.bench harness: cases, runner schema, regression gating."""

import json

import numpy as np
import pytest

from repro.bench import (
    CASES,
    case_names,
    compare_reports,
    quick_case_names,
    run_benchmarks,
    select_cases,
)
from repro.bench.compare import Regression
from repro.bench.runner import SCHEMA
from repro.cli import main


class TestCases:
    def test_case_inputs_are_deterministic(self):
        case = CASES[0]
        p1, b1, n1 = case.build()
        p2, b2, n2 = case.build()
        assert np.array_equal(p1, p2)
        assert np.array_equal(b1, b2)
        assert (n1 is None and n2 is None) or np.array_equal(n1, n2)

    def test_large_persistent_case_is_the_acceptance_workload(self):
        case = next(c for c in CASES if c.name == "persistent_large")
        assert case.n_slots == 1000 and case.n_bids == 256

    def test_quick_selection_subset(self):
        quick = quick_case_names()
        assert quick and set(quick) < set(case_names())
        assert [c.name for c in select_cases(quick=True)] == quick

    def test_explicit_names_beat_quick(self):
        cases = select_cases(["persistent_large"], quick=True)
        assert [c.name for c in cases] == ["persistent_large"]

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark case"):
            select_cases(["warpdrive"])

    def test_ragged_case_masks_beyond_n_valid(self):
        case = next(c for c in CASES if c.min_valid_fraction < 1.0)
        prices, _, n_valid = case.build()
        assert n_valid is not None
        row = prices[0]
        assert np.all(np.isinf(row[n_valid[0]:]))


class TestRunner:
    def test_report_schema_and_verification(self):
        report = run_benchmarks(cases=["persistent_small"], repeats=1)
        assert report["schema"] == SCHEMA
        assert set(report["machine"]) >= {"platform", "python", "numpy"}
        (row,) = report["cases"]
        assert row["name"] == "persistent_small"
        assert row["bitwise_equal"] is True
        assert row["speedup"] > 0
        assert row["reference"]["wall_seconds"] > 0
        assert row["event"]["slots_per_sec"] > 0
        assert row["events_processed"] > 0

    def test_report_is_json_serializable(self):
        report = run_benchmarks(cases=["persistent_small"], repeats=1)
        json.dumps(report)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            run_benchmarks(cases=["persistent_small"], repeats=0)

    def test_mapreduce_case_runs_and_verifies(self):
        report = run_benchmarks(cases=["mapreduce_multistart"], repeats=1)
        (row,) = report["cases"]
        assert row["strategy"] == "mapreduce"
        assert row["bitwise_equal"] is True
        assert row["speedup"] > 0
        assert row["events_processed"] > 0
        json.dumps(report)

    def test_time_kernel_runs_one_untimed_warmup(self):
        from repro.bench.runner import _time_kernel

        calls = []

        def fake_kernel(x):
            calls.append(x)
            return {"cost": x}

        best, times, result = _time_kernel(fake_kernel, (7,), repeats=3)
        # warmup + 3 timed repeats; only the repeats are timed.
        assert len(calls) == 4
        assert len(times) == 3
        assert best == min(times)
        assert result == {"cost": 7}

    def test_rows_report_lane_and_repeat_timings(self):
        report = run_benchmarks(cases=["persistent_small"], repeats=2)
        (row,) = report["cases"]
        assert row["kernel"] == "event"
        for lane in ("reference", "event"):
            timing = row[lane]
            assert len(timing["repeat_seconds"]) == 2
            assert timing["wall_seconds"] == min(timing["repeat_seconds"])
            lo, hi = sorted(timing["repeat_seconds"])
            assert lo <= timing["median_seconds"] <= hi


class TestCaseSelection:
    def test_pattern_selects_by_glob(self):
        names = [c.name for c in select_cases(pattern="mapreduce_*")]
        assert names == ["mapreduce_fig7_grid", "mapreduce_multistart"]

    def test_pattern_matching_nothing_rejected(self):
        with pytest.raises(ValueError, match="matches no benchmark case"):
            select_cases(pattern="warpdrive_*")

    def test_pattern_and_names_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            select_cases(["persistent_small"], pattern="*")

    def test_quick_includes_mapreduce_smoke(self):
        assert "mapreduce_multistart" in quick_case_names()

    def test_mapreduce_inputs_are_deterministic(self):
        case = next(c for c in CASES if c.name == "mapreduce_multistart")
        plans_a, m_a, s_a, starts_a = case.build()
        plans_b, m_b, s_b, starts_b = case.build()
        assert starts_a == starts_b
        assert [p.master_bid.price for p in plans_a] == [
            p.master_bid.price for p in plans_b
        ]
        assert all(
            np.array_equal(x.prices, y.prices) for x, y in zip(m_a, m_b)
        )
        assert all(
            np.array_equal(x.prices, y.prices) for x, y in zip(s_a, s_b)
        )


def _report(cases):
    return {"schema": "repro.bench/1", "cases": cases}


def _case(name, speedup, equal=True):
    return {"name": name, "speedup": speedup, "bitwise_equal": equal}


class TestCompare:
    def test_no_regression_within_tolerance(self):
        current = _report([_case("a", 3.3)])
        baseline = _report([_case("a", 4.0)])
        assert compare_reports(current, baseline, tolerance=0.2) == []

    def test_speedup_drop_regresses(self):
        current = _report([_case("a", 3.1)])
        baseline = _report([_case("a", 4.0)])
        regressions = compare_reports(current, baseline, tolerance=0.2)
        assert [r.case for r in regressions] == ["a"]
        assert "below" in regressions[0].reason

    def test_bitwise_divergence_is_always_fatal(self):
        current = _report([_case("a", 99.0, equal=False)])
        baseline = _report([_case("a", 1.0)])
        regressions = compare_reports(current, baseline)
        assert regressions and "diverged" in regressions[0].reason

    def test_new_and_retired_cases_ignored(self):
        current = _report([_case("new", 1.0)])
        baseline = _report([_case("old", 5.0)])
        assert compare_reports(current, baseline) == []

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            compare_reports({"schema": "nope"}, _report([]))

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            compare_reports(_report([]), _report([]), tolerance=1.5)

    def test_regression_str(self):
        assert "a: why" in str(Regression("a", "why"))


class TestBenchCli:
    def test_list_cases(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in case_names():
            assert name in out

    def test_quick_run_writes_report_and_gates(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_test.json"
        code = main(
            [
                "bench", "--cases", "persistent_small", "--repeats", "1",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == SCHEMA

        # Gate against itself: identical speedups cannot regress.
        code = main(
            [
                "bench", "--cases", "persistent_small", "--repeats", "1",
                "--baseline", str(out_path), "--tolerance", "0.99",
            ]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_filter_glob_selects_cases(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_mr.json"
        code = main(
            [
                "bench", "--filter", "mapreduce_*", "--repeats", "1",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        names = [row["name"] for row in report["cases"]]
        assert names == ["mapreduce_fig7_grid", "mapreduce_multistart"]

    def test_filter_matching_nothing_fails_cleanly(self, capsys):
        assert main(["bench", "--filter", "warpdrive_*"]) == 1
        err = capsys.readouterr().err
        assert "matches no benchmark case" in err
        assert "mapreduce_fig7_grid" in err

    def test_filter_and_cases_mutually_exclusive(self, capsys):
        code = main(
            ["bench", "--cases", "persistent_small", "--filter", "*"]
        )
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_impossible_baseline_fails(self, tmp_path, capsys):
        baseline = tmp_path / "impossible.json"
        baseline.write_text(
            json.dumps(
                _report([_case("persistent_small", 1e9)])
            )
        )
        code = main(
            [
                "bench", "--cases", "persistent_small", "--repeats", "1",
                "--baseline", str(baseline),
            ]
        )
        assert code == 1
        assert "regression" in capsys.readouterr().err

    def test_unknown_case_is_clean_error(self, capsys):
        assert main(["bench", "--cases", "warpdrive"]) == 1
        assert "unknown benchmark case" in capsys.readouterr().err
