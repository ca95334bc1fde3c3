"""The tiered decision cache: hits, staleness, eviction, file layer."""

import pytest

from repro.core.types import DecisionRequest, JobSpec, Strategy
from repro.errors import ServeError
from repro.market.price_sources import TracePriceSource
from repro.serve.cache import DecisionCache
from repro.serve.ingest import MarketState
from repro.serve.service import BidService
from repro.serve.tables import build_table_set

ONDEMAND = 0.35


@pytest.fixture
def table_set(serve_history, serve_grid):
    return build_table_set(
        serve_history, ondemand_price=ONDEMAND, grid=serve_grid
    )


@pytest.fixture
def request_a(serve_history, serve_grid):
    return DecisionRequest(
        job=JobSpec(
            execution_time=serve_grid.execution_times[1],
            recovery_time=serve_grid.recovery_times[1],
            slot_length=serve_history.slot_length,
        ),
        strategy=Strategy.PERSISTENT,
    )


class TestMemoryTier:
    def test_miss_then_put_then_hit(self, table_set, request_a):
        cache = DecisionCache(capacity=8)
        assert cache.get(request_a, table_set.version) is None
        response = table_set.decide(request_a)
        cache.put(request_a, response)
        hit = cache.get(request_a, table_set.version)
        assert hit is not None
        assert hit.decision == response.decision  # bitwise, not approx
        assert hit.cache_tier == "memory"
        assert hit.table_version == table_set.version
        stats = cache.stats()
        assert (stats.misses, stats.memory_hits, stats.stale) == (1, 1, 0)

    def test_version_mismatch_counts_stale_and_evicts(
        self, table_set, request_a
    ):
        cache = DecisionCache(capacity=8)
        cache.put(request_a, table_set.decide(request_a))
        assert cache.get(request_a, "someother.g1") is None
        assert cache.stats().stale == 1
        # The stale entry is gone: the next read under ANY version misses.
        assert cache.get(request_a, table_set.version) is None
        assert cache.stats().misses == 1

    def test_lru_eviction_at_capacity(
        self, table_set, serve_history, serve_grid
    ):
        cache = DecisionCache(capacity=2)
        requests = [
            DecisionRequest(
                job=JobSpec(
                    execution_time=ts,
                    slot_length=serve_history.slot_length,
                ),
                strategy=Strategy.PERSISTENT,
            )
            for ts in serve_grid.execution_times[:3]
        ]
        for request in requests:
            cache.put(request, table_set.decide(request))
        assert cache.stats().evictions == 1
        assert cache.get(requests[0], table_set.version) is None  # evicted
        assert cache.get(requests[2], table_set.version) is not None

    def test_unstamped_responses_are_not_cacheable(self, table_set, request_a):
        from repro.core.types import DecisionResponse

        bare = DecisionResponse(
            decision=table_set.decide(request_a).decision, request=request_a
        )
        with pytest.raises(ServeError):
            DecisionCache(capacity=2).put(request_a, bare)

    def test_degrade_flag_does_not_split_the_bucket(
        self, table_set, request_a
    ):
        """``degrade`` changes error handling, not the decision."""
        cache = DecisionCache(capacity=8)
        cache.put(request_a, table_set.decide(request_a))
        twin = DecisionRequest(
            job=request_a.job, strategy=request_a.strategy, degrade=True
        )
        assert cache.get(twin, table_set.version) is not None


class TestFileTier:
    def test_restart_warms_from_disk(self, table_set, request_a, tmp_path):
        first = DecisionCache(capacity=8, directory=tmp_path)
        first.put(request_a, table_set.decide(request_a))
        # A fresh cache over the same directory: memory cold, file warm.
        second = DecisionCache(capacity=8, directory=tmp_path)
        hit = second.get(request_a, table_set.version)
        assert hit is not None
        assert hit.cache_tier == "file"
        assert hit.decision == table_set.decide(request_a).decision
        # The file hit was promoted: the next read is a memory hit.
        assert second.get(request_a, table_set.version).cache_tier == "memory"

    def test_corrupt_files_count_as_misses(self, table_set, request_a, tmp_path):
        cache = DecisionCache(capacity=8, directory=tmp_path)
        cache.put(request_a, table_set.decide(request_a))
        for path in tmp_path.glob("*.json"):
            path.write_text("not json", encoding="utf-8")
        cache.clear()  # force the file tier to answer
        assert cache.get(request_a, table_set.version) is None
        assert cache.stats().misses == 1
        assert cache.stats().corrupt == 1

    @pytest.mark.parametrize(
        "garbage",
        [
            "not json",
            '{"table_version": 3, "decision": {}}',  # version not a string
            '{"decision": "missing fields"}',
            "",
        ],
    )
    def test_corrupt_entry_is_evicted_and_rewritable(
        self, table_set, request_a, tmp_path, garbage
    ):
        """A bad file is unlinked on read, so the next put heals it."""
        cache = DecisionCache(capacity=8, directory=tmp_path)
        response = table_set.decide(request_a)
        cache.put(request_a, response)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text(garbage, encoding="utf-8")
        cache.clear()
        assert cache.get(request_a, table_set.version) is None
        assert not list(tmp_path.glob("*.json"))  # evicted, not left rotting
        assert cache.stats().corrupt == 1
        cache.put(request_a, response)
        cache.clear()
        healed = cache.get(request_a, table_set.version)
        assert healed is not None and healed.cache_tier == "file"
        assert cache.stats().corrupt == 1  # no new corruption counted

    def test_unreadable_entry_counts_corrupt(
        self, table_set, request_a, tmp_path
    ):
        import os

        if os.geteuid() == 0:  # pragma: no cover - container runs as root
            pytest.skip("permission bits do not bind as root")
        cache = DecisionCache(capacity=8, directory=tmp_path)
        cache.put(request_a, table_set.decide(request_a))
        (entry,) = tmp_path.glob("*.json")
        entry.chmod(0o000)
        cache.clear()
        assert cache.get(request_a, table_set.version) is None
        assert cache.stats().corrupt == 1

    def test_stale_entries_are_unlinked(self, table_set, request_a, tmp_path):
        cache = DecisionCache(capacity=8, directory=tmp_path)
        cache.put(request_a, table_set.decide(request_a))
        assert list(tmp_path.glob("*.json"))
        cache.get(request_a, "superseded.g9")
        assert not list(tmp_path.glob("*.json"))


def _tabled_and_inline(history, grid):
    """A request the tables answer and one the service computes inline
    (and caches), for the same on-grid job."""
    job = JobSpec(
        execution_time=grid.execution_times[0], slot_length=history.slot_length
    )
    return (
        DecisionRequest(job=job, strategy=Strategy.PERSISTENT),
        DecisionRequest(job=job, strategy=Strategy.PERCENTILE),
    )


class TestCacheUnderFaultedSource:
    """Hit/stale/miss accounting of inline decisions while the market
    faults; table answers never touch the cache."""

    def test_fault_degrades_without_touching_the_cache(
        self, serve_history, serve_grid
    ):
        # A two-slot replay source: exhausts (MarketError) on the third pull.
        state = MarketState(
            TracePriceSource(serve_history.slice_slots(0, 2)),
            initial_history=serve_history,
            ondemand_price=ONDEMAND,
            grid=serve_grid,
        )
        service = BidService(
            state, cache=DecisionCache(capacity=8), stale_after=1000
        )
        tabled, inline = _tabled_and_inline(serve_history, serve_grid)
        # Warm path: a table answer, which never touches the cache, then
        # an inline miss → compute, then a memory hit.
        assert service.handle(tabled).cache_tier == "table"
        assert service.handle(inline).cache_tier == "compute"
        assert service.handle(inline).cache_tier == "memory"
        # Exhaust the source: the state faults instead of raising.
        state.advance(10)
        assert state.faulted
        for request in (tabled, inline):
            degraded = service.handle(request)
            assert degraded.degradation_reason is not None
            assert "faulted" in degraded.degradation_reason
            assert degraded.decision.price == ONDEMAND
        stats = service.cache.stats()
        # The faulted requests bypassed the cache entirely.
        assert (stats.misses, stats.memory_hits, stats.stale) == (1, 1, 0)
        # Recovery: clearing the fault serves the cached answer again.
        state.clear_fault()
        assert service.handle(inline).cache_tier == "memory"
        assert service.handle(tabled).cache_tier == "table"

    def test_rebuild_after_fault_invalidates_cached_decisions(
        self, serve_history, serve_grid
    ):
        state = MarketState(
            TracePriceSource(serve_history),
            initial_history=serve_history,
            ondemand_price=ONDEMAND,
            grid=serve_grid,
        )
        service = BidService(
            state, cache=DecisionCache(capacity=8), stale_after=1000
        )
        tabled, inline = _tabled_and_inline(serve_history, serve_grid)
        service.handle(inline)
        assert service.handle(inline).cache_tier == "memory"
        state.advance(5)
        state.rebuild()  # new generation, new version
        refreshed = service.handle(inline)
        assert refreshed.cache_tier == "compute"  # stale entry was evicted
        assert refreshed.table_version == state.tables.version
        assert service.cache.stats().stale == 1
        # A table answer carries the new version without a cache lookup.
        answer = service.handle(tabled)
        assert answer.cache_tier == "table"
        assert answer.table_version == state.tables.version
        assert service.cache.stats().lookups == 3
