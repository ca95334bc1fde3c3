"""The sweep engine must match the scalar fastpath oracle cell by cell.

The batched kernels re-implement the Section 3.2 run semantics with
(trace, bid) state matrices; the equivalence here is *exact* (``==``,
not approximate) because both paths perform the same scalar operations
in the same order, only batched.
"""

import warnings

import numpy as np
import pytest

import repro
from repro import Strategy, normalize_strategy, run_sweep
from repro.constants import DEFAULT_SLOT_HOURS
from repro.core.distcache import (
    cached_distribution,
    clear_distribution_cache,
    distribution_cache_stats,
)
from repro.core.types import BidKind, JobSpec
from repro.market.fastpath import fast_onetime_outcome, fast_persistent_outcome
from repro.sweep import onetime_sweep_kernel, persistent_sweep_kernel
from repro.traces.history import SpotPriceHistory

TK = DEFAULT_SLOT_HOURS

#: Seven shared OutcomeStats fields, compared exactly per cell.
FIELDS = (
    "completed", "cost", "completion_time", "running_time",
    "idle_time", "recovery_time_used", "interruptions",
)


def random_case(rng):
    """One random sweep configuration: ragged traces, a bid grid, a job."""
    n_traces = int(rng.integers(2, 9))
    traces = [
        rng.uniform(0.01, 0.2, size=int(rng.integers(5, 120)))
        for _ in range(n_traces)
    ]
    bids = np.sort(rng.uniform(0.0, 0.25, size=int(rng.integers(2, 8))))
    job = JobSpec(
        execution_time=float(rng.uniform(0.2, 12.0)) * TK,
        recovery_time=float(rng.uniform(0.0, 2.5)) * TK,
        slot_length=TK,
    )
    return traces, bids, job


def assert_cell_matches(report, oracle, t, j):
    """Exact agreement of one sweep cell with a scalar oracle outcome."""
    cell = report.cell(t, j)
    for field in FIELDS:
        got, want = getattr(cell, field), getattr(oracle, field)
        if isinstance(want, float) and np.isnan(want):
            assert np.isnan(got), (field, t, j)
        else:
            assert got == want, (field, t, j, got, want)


class TestOracleEquivalence:
    def test_persistent_cells_match_fastpath_exactly(self):
        rng = np.random.default_rng(1509)
        cells = 0
        while cells < 1000:
            traces, bids, job = random_case(rng)
            report = run_sweep(traces, bids, job, strategy=Strategy.PERSISTENT)
            for t, prices in enumerate(traces):
                for j, bid in enumerate(bids):
                    oracle = fast_persistent_outcome(
                        prices, float(bid), job.execution_time,
                        job.recovery_time, TK,
                    )
                    assert_cell_matches(report, oracle, t, j)
                    cells += 1
        assert cells >= 1000  # the acceptance bar: >=1000 random cells

    def test_onetime_cells_match_fastpath_exactly(self):
        rng = np.random.default_rng(2015)
        cells = 0
        while cells < 1000:
            traces, bids, job = random_case(rng)
            report = run_sweep(traces, bids, job, strategy=Strategy.ONE_TIME)
            for t, prices in enumerate(traces):
                for j, bid in enumerate(bids):
                    oracle = fast_onetime_outcome(
                        prices, float(bid), job.execution_time, TK
                    )
                    assert_cell_matches(report, oracle, t, j)
                    cells += 1
        assert cells >= 1000

    def test_start_slots_slice_the_traces(self):
        rng = np.random.default_rng(7)
        traces = [rng.uniform(0.01, 0.2, size=60) for _ in range(4)]
        starts = [0, 5, 17, 30]
        job = JobSpec(2.0, 0.5 * TK, slot_length=TK)
        report = run_sweep(
            traces, [0.05, 0.1], job,
            strategy=Strategy.PERSISTENT, start_slots=starts,
        )
        for t, (prices, start) in enumerate(zip(traces, starts)):
            for j, bid in enumerate((0.05, 0.1)):
                oracle = fast_persistent_outcome(
                    prices[start:], bid, job.execution_time,
                    job.recovery_time, TK,
                )
                assert_cell_matches(report, oracle, t, j)


class TestEngine:
    def test_executor_fanout_is_deterministic(self):
        rng = np.random.default_rng(99)
        traces, bids, job = random_case(rng)
        serial = run_sweep(traces, bids, job)
        threaded = run_sweep(traces, bids, job, max_workers=3)
        for field in FIELDS:
            np.testing.assert_array_equal(
                getattr(serial, field), getattr(threaded, field)
            )

    def test_pair_bids_zips_traces_and_bids(self):
        rng = np.random.default_rng(42)
        traces = [rng.uniform(0.01, 0.2, size=40) for _ in range(5)]
        bids = rng.uniform(0.02, 0.2, size=5)
        job = JobSpec(1.0, 0.1 * TK, slot_length=TK)
        report = run_sweep(traces, bids, job, pair_bids=True)
        assert report.shape == (5, 1)
        for t, (prices, bid) in enumerate(zip(traces, bids)):
            oracle = fast_persistent_outcome(
                prices, float(bid), job.execution_time, job.recovery_time, TK
            )
            assert_cell_matches(report, oracle, t, 0)

    def test_pair_bids_requires_one_bid_per_trace(self):
        from repro.errors import MarketError

        traces = [np.full(10, 0.05), np.full(10, 0.05)]
        with pytest.raises(MarketError):
            run_sweep(traces, [0.1, 0.1, 0.1], JobSpec(1.0), pair_bids=True)

    @pytest.mark.parametrize(
        "bad", [np.nan, -0.02, np.inf], ids=["nan", "negative", "inf"]
    )
    def test_bad_prices_are_rejected(self, bad):
        """A NaN, negative or infinite slot raises, naming its trace,
        instead of counting as rejected or billing a wrong amount."""
        from repro.errors import MarketError

        prices = np.full(24, 0.03)
        prices[7] = bad
        with pytest.raises(MarketError, match="trace 1 "):
            run_sweep([np.full(24, 0.03), prices], 0.05, JobSpec(1.0))

    def test_percentile_strategy_is_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(np.full(10, 0.05), 0.1, JobSpec(1.0),
                      strategy=Strategy.PERCENTILE)

    def test_mismatched_slot_length_is_rejected(self):
        from repro.errors import MarketError

        history = SpotPriceHistory(
            prices=np.full(10, 0.05), slot_length=2 * TK
        )
        with pytest.raises(MarketError):
            run_sweep(history, 0.1, JobSpec(1.0, slot_length=TK))

    def test_accepts_histories_and_single_trace(self):
        history = SpotPriceHistory(prices=np.full(30, 0.03), slot_length=TK)
        report = run_sweep(history, 0.05, JobSpec(1.0, slot_length=TK))
        assert report.shape == (1, 1)
        assert bool(report.completed[0, 0])

    @pytest.mark.parametrize(
        "lane",
        [
            {},
            {"max_workers": 2},
            {"executor": "process", "max_workers": 2},
        ],
        ids=["serial", "thread", "process"],
    )
    @pytest.mark.parametrize(
        "bids,kernel,match",
        [
            ([-0.1], None, "bid -0.1 "),
            ([0.05, np.nan], None, "bid nan "),
            ([], None, "at least one bid"),
            ([0.05], "bogus", "REPRO_SWEEP_KERNEL"),
        ],
        ids=["negative-bid", "nan-bid", "no-bids", "bogus-kernel"],
    )
    def test_bad_input_is_rejected_before_dispatch(
        self, lane, bids, kernel, match, monkeypatch
    ):
        """Bad bids and an unknown kernel family raise MarketError on
        every lane, not a shard failure after the pool retried them."""
        from repro.errors import MarketError

        if kernel is not None:
            monkeypatch.setenv("REPRO_SWEEP_KERNEL", kernel)
        traces = [np.full(24, 0.03)] * 16
        with pytest.raises(MarketError, match=match):
            run_sweep(traces, bids, JobSpec(1.0), **lane)

    def test_unknown_executor_is_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            run_sweep(np.full(24, 0.03), 0.05, JobSpec(1.0), executor="bogus")

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_worker_count_below_one_is_rejected(self, executor):
        from repro.errors import SweepExecutionError

        traces = [np.full(24, 0.03)] * 4
        for workers in (0, -3):
            with pytest.raises(SweepExecutionError, match="max_workers"):
                run_sweep(
                    traces, 0.05, JobSpec(1.0),
                    executor=executor, max_workers=workers,
                )


class TestReport:
    def make_report(self):
        rng = np.random.default_rng(3)
        traces = [rng.uniform(0.01, 0.1, size=80) for _ in range(6)]
        job = JobSpec(1.0, 0.1 * TK, slot_length=TK)
        return run_sweep(traces, [0.005, 0.05, 0.2], job)

    def test_summaries_and_best_bid(self):
        report = self.make_report()
        rates = report.completion_rate()
        assert rates.shape == (3,)
        assert rates[0] <= rates[2]  # higher bids accept more slots
        assert np.isclose(rates[2], 1.0)
        best = report.best_bid_index()
        assert report.completion_rate()[best] == rates.max()
        assert report.best_bid() == report.bids[best]
        stats = report.cell(0, 2)
        assert stats.completed
        assert stats.cost == report.cost[0, 2]
        column = report.column(0)
        assert [s.cost for s in column] == list(report.cost[0])

    def test_counters_track_work(self):
        report = self.make_report()
        c = report.counters
        assert c.n_traces == 6 and c.n_bids == 3 and c.cells == 18
        assert c.slots_simulated > 0
        assert c.kernel_seconds >= 0.0

    def test_kernels_reject_bad_shapes(self):
        from repro.errors import MarketError

        with pytest.raises(MarketError):
            persistent_sweep_kernel(
                np.zeros((2, 2, 2)), np.asarray([0.1]),
                work=1.0, recovery_time=0.0, slot_length=TK,
            )
        with pytest.raises(MarketError):
            onetime_sweep_kernel(
                np.full((2, 5), 0.05), np.asarray([0.1]),
                work=0.0, slot_length=TK,
            )


class TestStrategyShim:
    def test_enum_is_exported_and_stringifies(self):
        assert repro.Strategy is Strategy
        assert str(Strategy.ONE_TIME) == "one-time"
        assert Strategy("persistent") is Strategy.PERSISTENT

    def test_enum_passthrough_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalize_strategy(Strategy.PERCENTILE) is Strategy.PERCENTILE

    @pytest.mark.parametrize(
        "legacy, expected",
        [
            ("one-time", Strategy.ONE_TIME),
            ("onetime", Strategy.ONE_TIME),
            ("one_time", Strategy.ONE_TIME),
            ("persistent", Strategy.PERSISTENT),
            ("percentile", Strategy.PERCENTILE),
        ],
    )
    def test_legacy_strings_warn_and_normalize(self, legacy, expected):
        # Strings are rejected outright; only the enum member normalizes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                normalize_strategy(legacy)
            assert normalize_strategy(expected) is expected

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            normalize_strategy("x")

    def test_client_decide_accepts_both_forms(self):
        from repro.core.client import BiddingClient

        rng = np.random.default_rng(11)
        history = SpotPriceHistory(
            prices=rng.uniform(0.01, 0.1, size=500), slot_length=TK
        )
        client = BiddingClient(history, ondemand_price=0.35)
        job = JobSpec(1.0, 0.1 * TK, slot_length=TK)
        from repro.core.types import DecisionRequest

        # Only the request form is accepted; the bare-JobSpec form raises.
        response = client.decide(
            DecisionRequest(job=job, strategy=Strategy.PERSISTENT)
        )
        assert response.decision.kind is BidKind.PERSISTENT
        with pytest.raises(TypeError):
            client.decide(job, strategy=Strategy.PERSISTENT)

    def test_fast_outcome_alias_removed(self):
        import repro.market
        import repro.market.fastpath as fastpath

        for module in (repro.market, fastpath):
            with pytest.raises(AttributeError):
                module.FastOutcome


class TestDistributionCache:
    def test_identical_histories_hit_the_cache(self):
        clear_distribution_cache()
        prices = np.random.default_rng(5).uniform(0.01, 0.1, size=200)
        h0, m0 = distribution_cache_stats()
        first = cached_distribution(prices)
        second = cached_distribution(prices.copy())
        h1, m1 = distribution_cache_stats()
        assert second is first
        assert (h1 - h0, m1 - m0) == (1, 1)

    def test_different_prices_miss(self):
        clear_distribution_cache()
        a = cached_distribution(np.full(50, 0.05))
        b = cached_distribution(np.full(50, 0.06))
        assert a is not b
        _, misses = distribution_cache_stats()
        assert misses == 2

    def test_cache_size_env_var_bounds_entries(self, monkeypatch):
        from repro.core import distcache as cache_mod

        clear_distribution_cache()
        monkeypatch.setenv("REPRO_DIST_CACHE_SIZE", "2")
        first = cached_distribution(np.full(30, 0.01))
        cached_distribution(np.full(30, 0.02))
        cached_distribution(np.full(30, 0.03))  # evicts the first entry
        assert len(cache_mod._cache) == 2
        refetched = cached_distribution(np.full(30, 0.01))
        assert refetched is not first  # rebuilt after eviction
        clear_distribution_cache()

    def test_cache_size_env_var_read_lazily(self, monkeypatch):
        from repro.core.distcache import _max_entries

        monkeypatch.delenv("REPRO_DIST_CACHE_SIZE", raising=False)
        assert _max_entries() == 64
        monkeypatch.setenv("REPRO_DIST_CACHE_SIZE", "7")
        assert _max_entries() == 7

    @pytest.mark.parametrize("bad", ["zero", "0", "-3", "1.5"])
    def test_cache_size_env_var_validated(self, monkeypatch, bad):
        from repro.core.distcache import _max_entries

        monkeypatch.setenv("REPRO_DIST_CACHE_SIZE", bad)
        with pytest.raises(ValueError, match="REPRO_DIST_CACHE_SIZE"):
            _max_entries()
