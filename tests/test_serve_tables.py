"""Bid tables: grid semantics, bitwise parity, interpolation bounds."""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.core.client import BiddingClient
from repro.core.types import DecisionRequest, JobSpec, Strategy
from repro.errors import ServeError
from repro.serve.tables import (
    BidTableSet,
    TableGrid,
    build_bid_table,
    build_table_set,
    default_grid,
)

ONDEMAND = 0.35


@pytest.fixture
def client(serve_history):
    return BiddingClient(serve_history, ondemand_price=ONDEMAND)


class TestTableGrid:
    def test_axes_must_be_strictly_increasing(self):
        with pytest.raises(ServeError):
            TableGrid(execution_times=(1.0, 1.0), recovery_times=(0.0,))
        with pytest.raises(ServeError):
            TableGrid(execution_times=(1.0, 2.0), recovery_times=(0.1, 0.1))

    def test_single_execution_point_rejected(self):
        with pytest.raises(ServeError):
            TableGrid(execution_times=(1.0,), recovery_times=(0.0,))

    def test_covers_and_snap(self, serve_grid):
        inside = JobSpec(execution_time=1.3, recovery_time=0.01)
        assert serve_grid.covers(inside)
        i, j = serve_grid.snap(inside)
        # 1.3 is nearer 1.0 than 2.0; 0.01 is nearer 30 s (~0.0083) than
        # 120 s (~0.033).
        assert serve_grid.execution_times[i] == 1.0
        assert serve_grid.recovery_times[j] == pytest.approx(30.0 / 3600.0)

    def test_snap_outside_coverage_raises(self, serve_grid):
        with pytest.raises(ServeError):
            serve_grid.snap(JobSpec(execution_time=100.0))

    def test_bracketing_cell_degenerates_on_grid_points(self, serve_grid):
        on_point = JobSpec(
            execution_time=serve_grid.execution_times[1],
            recovery_time=serve_grid.recovery_times[1],
        )
        assert serve_grid.bracketing_cell(on_point) == ((1, 1),)
        off_point = JobSpec(execution_time=1.5, recovery_time=0.01)
        assert len(serve_grid.bracketing_cell(off_point)) == 4

    def test_fingerprint_distinguishes_grids(self, serve_grid):
        other = TableGrid(
            execution_times=(0.5, 1.0, 2.0, 4.5),
            recovery_times=serve_grid.recovery_times,
        )
        assert serve_grid.fingerprint() != other.fingerprint()


class TestDefaultGrid:
    def test_shape_is_the_module_default(self):
        from repro.serve.tables import DEFAULT_GRID_SHAPE

        assert default_grid().shape == DEFAULT_GRID_SHAPE == (32, 8)

    def test_explicit_shape_wins(self):
        grid = default_grid(shape=(5, 2), max_execution=10.0)
        assert grid.shape == (5, 2)
        assert grid.execution_times[-1] == pytest.approx(10.0)
        assert grid.recovery_times[0] == 0.0

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ServeError):
            default_grid(shape=(1, 2))


class TestBidTableParity:
    @pytest.mark.parametrize(
        "strategy", [Strategy.ONE_TIME, Strategy.PERSISTENT]
    )
    def test_grid_points_are_bitwise_identical_to_the_client(
        self, serve_history, serve_grid, client, strategy
    ):
        """The headline serving guarantee: tables ARE the client's answers."""
        table = build_bid_table(
            serve_history,
            ondemand_price=ONDEMAND,
            strategy=strategy,
            grid=serve_grid,
        )
        for ts in serve_grid.execution_times:
            for tr in serve_grid.recovery_times:
                job = JobSpec(
                    execution_time=ts,
                    recovery_time=tr,
                    slot_length=serve_history.slot_length,
                )
                live = client.respond(
                    DecisionRequest(job=job, strategy=strategy, degrade=True)
                ).decision
                # Dataclass equality compares every float with ``==`` —
                # this asserts bitwise-identical decisions, not closeness.
                assert table.decision_at(*serve_grid.snap(job)) == live

    def test_parity_survives_a_json_round_trip(
        self, serve_history, serve_grid
    ):
        """Python's repr-based float JSON keeps the wire/file cache exact."""
        from repro.serve.protocol import decision_from_wire, decision_to_wire

        table = build_bid_table(
            serve_history,
            ondemand_price=ONDEMAND,
            strategy=Strategy.PERSISTENT,
            grid=serve_grid,
        )
        for decision in table.decisions:
            wire = json.loads(json.dumps(decision_to_wire(decision)))
            assert decision_from_wire(wire) == decision


class TestInterpolationBound:
    def test_bound_is_zero_on_grid_points(self, serve_history, serve_grid):
        table = build_bid_table(
            serve_history,
            ondemand_price=ONDEMAND,
            strategy=Strategy.ONE_TIME,
            grid=serve_grid,
        )
        for ts in serve_grid.execution_times:
            job = JobSpec(
                execution_time=ts, slot_length=serve_history.slot_length
            )
            assert table.interpolation_error_bound(job) == 0.0

    def test_offgrid_onetime_error_is_within_the_bound(
        self, serve_history, serve_grid, client, rng
    ):
        """Property check: served price error <= the corner price spread.

        The one-time optimal bid is monotone in ``t_s`` and independent
        of ``t_r``, so the true optimum's price lies inside the corner
        envelope and the documented bound applies.
        """
        table = build_bid_table(
            serve_history,
            ondemand_price=ONDEMAND,
            strategy=Strategy.ONE_TIME,
            grid=serve_grid,
        )
        ts_lo, ts_hi = (
            serve_grid.execution_times[0],
            serve_grid.execution_times[-1],
        )
        tr_lo, tr_hi = (
            serve_grid.recovery_times[0],
            serve_grid.recovery_times[-1],
        )
        checked = 0
        for _ in range(50):
            job = JobSpec(
                execution_time=float(rng.uniform(ts_lo, ts_hi)),
                recovery_time=float(rng.uniform(tr_lo, tr_hi)),
                slot_length=serve_history.slot_length,
            )
            served = table.decision_at(*serve_grid.snap(job))
            live = client.respond(
                DecisionRequest(
                    job=job, strategy=Strategy.ONE_TIME, degrade=True
                )
            ).decision
            if served.degraded or live.degraded:
                continue
            bound = table.interpolation_error_bound(job)
            assert abs(served.price - live.price) <= bound + 1e-12
            checked += 1
        assert checked > 10  # the property must actually get exercised

    def test_bound_shrinks_as_the_grid_refines(self, serve_history):
        job = JobSpec(
            execution_time=1.37, slot_length=serve_history.slot_length
        )
        bounds = []
        for n_ts in (4, 8, 16):
            table = build_bid_table(
                serve_history,
                ondemand_price=ONDEMAND,
                strategy=Strategy.ONE_TIME,
                grid=default_grid(
                    shape=(n_ts, 1),
                    max_execution=8.0,
                    slot_length=serve_history.slot_length,
                ),
            )
            bounds.append(table.interpolation_error_bound(job))
        assert bounds[2] <= bounds[1] <= bounds[0]


class TestBidTableLookupGuards:
    """Finding the table for a request, and the generation's age."""

    def test_slot_length_mismatch_rejected(self, serve_history, serve_grid):
        table_set = build_table_set(
            serve_history, ondemand_price=ONDEMAND, grid=serve_grid
        )
        request = DecisionRequest(
            job=JobSpec(execution_time=1.0, slot_length=0.25),
            strategy=Strategy.PERSISTENT,
        )
        with pytest.raises(ServeError, match="0.25"):
            table_set.table_for(request)

    def test_age_counts_ingest_slots(self, serve_history, serve_grid):
        table_set = build_table_set(
            serve_history,
            ondemand_price=ONDEMAND,
            grid=serve_grid,
            built_at_slot=10,
        )
        assert table_set.age(10) == 0
        assert table_set.age(25) == 15
        assert table_set.age(3) == 0  # never negative


class TestBidTableSet:
    @pytest.fixture
    def table_set(self, serve_history, serve_grid) -> BidTableSet:
        return build_table_set(
            serve_history, ondemand_price=ONDEMAND, grid=serve_grid
        )

    def test_ongrid_requests_are_served_from_the_table(
        self, table_set, serve_history, serve_grid
    ):
        job = JobSpec(
            execution_time=serve_grid.execution_times[2],
            recovery_time=serve_grid.recovery_times[1],
            slot_length=serve_history.slot_length,
        )
        response = table_set.decide(
            DecisionRequest(job=job, strategy=Strategy.PERSISTENT)
        )
        assert response.cache_tier == "table"
        assert response.table_version == table_set.version

    def test_offcoverage_and_percentile_fall_back_to_compute(
        self, table_set, serve_history
    ):
        outside = DecisionRequest(
            job=JobSpec(
                execution_time=100.0,
                slot_length=serve_history.slot_length,
            ),
            strategy=Strategy.PERSISTENT,
            degrade=True,
        )
        assert table_set.decide(outside).cache_tier == "compute"
        percentile = DecisionRequest(
            job=JobSpec(
                execution_time=1.0, slot_length=serve_history.slot_length
            ),
            strategy=Strategy.PERCENTILE,
            percentile=90.0,
        )
        response = table_set.decide(percentile)
        assert response.cache_tier == "compute"
        assert response.table_version == table_set.version

    def test_table_for_routes_tabled_strategies_inside_the_grid(
        self, table_set, serve_history, serve_grid
    ):
        def request(strategy, execution_time, recovery_time=0.0):
            job = JobSpec(
                execution_time=execution_time,
                recovery_time=recovery_time,
                slot_length=serve_history.slot_length,
            )
            return DecisionRequest(job=job, strategy=strategy)

        for strategy in (Strategy.ONE_TIME, Strategy.PERSISTENT):
            table = table_set.tables[strategy]
            # On a grid point, between grid points, and on the edges.
            for t_s in (serve_grid.execution_times[1], 1.37, 0.5, 4.0):
                assert table_set.table_for(request(strategy, t_s)) is table
            assert table_set.table_for(request(strategy, 0.49)) is None
            assert table_set.table_for(request(strategy, 4.01)) is None
            assert table_set.table_for(request(strategy, 1.0, 1.0)) is None
        for strategy in (Strategy.PERCENTILE, Strategy.PORTFOLIO, Strategy.CVAR):
            assert table_set.table_for(request(strategy, 1.0)) is None

    @pytest.mark.parametrize("slot_length", [0.0833, 1e300])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_another_slot_length_is_rejected(
        self, table_set, serve_history, strategy, slot_length
    ):
        request = DecisionRequest(
            job=JobSpec(execution_time=1.0, slot_length=slot_length),
            strategy=strategy,
        )
        with pytest.raises(ServeError) as raised:
            table_set.decide(request)
        assert repr(slot_length) in str(raised.value)
        assert repr(serve_history.slot_length) in str(raised.value)

    def test_version_tracks_the_history(self, serve_history, serve_grid):
        a = build_table_set(
            serve_history, ondemand_price=ONDEMAND, grid=serve_grid
        )
        shifted = serve_history.prices.copy()
        shifted[0] = 0.25
        from repro.traces.history import SpotPriceHistory

        b = build_table_set(
            SpotPriceHistory(
                prices=shifted, slot_length=serve_history.slot_length
            ),
            ondemand_price=ONDEMAND,
            grid=serve_grid,
        )
        assert a.version != b.version

    def test_version_carries_the_build_slot(self, serve_history, serve_grid):
        late = build_table_set(
            serve_history,
            ondemand_price=ONDEMAND,
            grid=serve_grid,
            built_at_slot=42,
        )
        assert late.version.endswith(".g42")


class TestServedBytes:
    """The versions and answers the tables serve, pinned byte for byte.

    The file cache tier persists ``table_version`` across restarts, and
    a client compares it with the daemon's banner, so a change to the
    version hash or to any answer must show here first.
    """

    def test_versions_are_pinned(self, serve_history, serve_grid):
        def version(built_at_slot):
            return build_table_set(
                serve_history,
                ondemand_price=ONDEMAND,
                grid=serve_grid,
                built_at_slot=built_at_slot,
            ).version

        assert version(0) == "91048ec2b2f4.g0"
        assert version(42) == "91048ec2b2f4.g42"

    def test_decide_answers_are_pinned(
        self, pinned_numerics, serve_history, serve_grid
    ):
        """On-grid, off-grid and outside-coverage requests of both tabled
        strategies, at an on-demand price that leaves them feasible and
        at one below the price floor, where every answer is degraded."""
        from repro.serve.protocol import encode_line, response_to_wire

        jobs = [
            (serve_grid.execution_times[2], serve_grid.recovery_times[1]),
            (1.37, 0.01),
            (100.0, 0.0),
        ]
        digest = hashlib.sha1()
        tiers = []
        for ondemand in (ONDEMAND, 0.03):
            table_set = build_table_set(
                serve_history,
                ondemand_price=ondemand,
                grid=serve_grid,
                built_at_slot=7,
                generation=1,
            )
            for strategy in (Strategy.ONE_TIME, Strategy.PERSISTENT):
                for execution_time, recovery_time in jobs:
                    job = JobSpec(
                        execution_time=execution_time,
                        recovery_time=recovery_time,
                        slot_length=serve_history.slot_length,
                    )
                    response = table_set.decide(
                        DecisionRequest(job=job, strategy=strategy, degrade=True)
                    )
                    tiers.append((response.cache_tier, response.decision.degraded))
                    digest.update(encode_line(response_to_wire(response)))
        # Every kind of answer the digest is meant to cover is in it.
        feasible = [("table", False), ("table", False)]
        assert tiers == (
            feasible + [("compute", True)]  # one-time
            + feasible + [("compute", False)]  # persistent
            + [("table", True), ("table", True), ("compute", True)] * 2
        )
        assert digest.hexdigest() == "57c11d4e209392a6af7b8be5b8ce912cdafafabb"
