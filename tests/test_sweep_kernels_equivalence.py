"""Event-driven sweep kernels vs the scalar fastpath oracle, bitwise.

The kernels' contract is *bitwise* equality with
:func:`~repro.market.fastpath.fast_persistent_outcome` and
:func:`~repro.market.fastpath.fast_onetime_outcome` run on every cell
(the reference :func:`~repro.market.fastpath.outcome_grid` computes):
every float in all seven fields, NaN placement, dtypes and shapes.  These
tests drive that contract across seeded randomized workloads and
hand-built edge cases — ragged traces, +inf padding, per-trace bid
matrices, price ties at the bid boundary, zero recovery, and degenerate
sizes.
"""

import numpy as np
import pytest

from repro.errors import MarketError
from repro.market.fastpath import (
    fast_onetime_outcome,
    fast_persistent_outcome,
    outcome_grid,
)
from repro.sweep.kernels import onetime_sweep_kernel, persistent_sweep_kernel

FIELDS = (
    "completed",
    "cost",
    "completion_time",
    "running_time",
    "idle_time",
    "recovery_time_used",
    "interruptions",
)


def assert_bitwise(actual, expected):
    for field in FIELDS:
        a, e = actual[field], expected[field]
        assert a.dtype == e.dtype, f"{field}: dtype {a.dtype} != {e.dtype}"
        assert a.shape == e.shape, f"{field}: shape {a.shape} != {e.shape}"
        assert np.array_equal(a, e, equal_nan=True), f"{field} diverged"


def random_workload(rng, *, n_slots_max=120):
    """One randomized ragged workload with ties and mixed padding."""
    n_traces = int(rng.integers(1, 7))
    n_slots = int(rng.integers(1, n_slots_max))
    n_bids = int(rng.integers(1, 9))
    n_valid = rng.integers(1, n_slots + 1, size=n_traces).astype(np.int64)
    prices = rng.uniform(0.01, 1.0, size=(n_traces, n_slots))
    for t in range(n_traces):
        if rng.random() < 0.5:
            prices[t, n_valid[t]:] = np.inf  # honest padding
        else:
            # Stale garbage past n_valid must be invisible to kernels.
            prices[t, n_valid[t]:] = rng.uniform(0.01, 1.0, n_slots - n_valid[t])
    if n_slots > 3 and rng.random() < 0.5:
        prices[:, 1] = prices[:, 0]  # duplicate prices → rank ties
    if rng.random() < 0.5:
        bids = np.sort(rng.uniform(0.0, 1.1, size=n_bids))
    else:
        bids = np.sort(rng.uniform(0.0, 1.1, size=(n_traces, n_bids)), axis=1)
    if rng.random() < 0.5:
        # A bid equal to an in-trace price: the accept test must count
        # boundary ties exactly like np.searchsorted side='right'.
        flat = bids.reshape(-1)
        flat[int(rng.integers(flat.size))] = prices[0, 0]
    work = float(rng.choice([0.05, 0.3, 1.0, 2.5, 7.0, 40.0]))
    slot_length = float(rng.choice([0.5, 1.0, 2.0]))
    recovery = float(rng.choice([0.0, 0.3, 1.0, 2.5]))
    use_n_valid = rng.random() < 0.7
    return prices, bids, n_valid if use_n_valid else None, work, slot_length, recovery


def assert_persistent_matches(prices, bids, n_valid, work, L, R):
    assert_bitwise(
        persistent_sweep_kernel(
            prices, bids, work=work, recovery_time=R,
            slot_length=L, n_valid=n_valid,
        ),
        outcome_grid(
            fast_persistent_outcome, prices, bids, work=work,
            recovery_time=R, slot_length=L, n_valid=n_valid,
        ),
    )


def assert_onetime_matches(prices, bids, n_valid, work, L):
    assert_bitwise(
        onetime_sweep_kernel(
            prices, bids, work=work, slot_length=L, n_valid=n_valid
        ),
        outcome_grid(
            fast_onetime_outcome, prices, bids, work=work, slot_length=L,
            n_valid=n_valid,
        ),
    )


def n_cells(prices, bids):
    return prices.shape[0] * np.atleast_1d(bids).shape[-1]


class TestRandomizedEquivalence:
    """The reference is the scalar oracle, cell by cell."""

    @pytest.mark.parametrize("seed", [1509, 2015, 4242])
    def test_persistent_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            assert_persistent_matches(*random_workload(rng))

    @pytest.mark.parametrize("seed", [1509, 2015, 4242])
    def test_onetime_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            prices, bids, n_valid, work, L, _ = random_workload(rng)
            assert_onetime_matches(prices, bids, n_valid, work, L)

    def test_persistent_matches_scalar_fastpath(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 400:
            workload = random_workload(rng, n_slots_max=60)
            assert_persistent_matches(*workload)
            checked += n_cells(*workload[:2])

    def test_onetime_matches_scalar_fastpath(self):
        rng = np.random.default_rng(88)
        checked = 0
        while checked < 400:
            prices, bids, n_valid, work, L, _ = random_workload(
                rng, n_slots_max=60
            )
            assert_onetime_matches(prices, bids, n_valid, work, L)
            checked += n_cells(prices, bids)


class TestEdgeCases:
    def test_single_slot_traces(self):
        prices = np.array([[0.04], [0.9]])
        bids = np.array([0.01, 0.05, 1.0])
        assert_persistent_matches(prices, bids, None, 0.5, 1.0, 0.2)
        assert_onetime_matches(prices, bids, None, 0.5, 1.0)

    def test_no_lane_ever_accepts(self):
        prices = np.full((3, 20), 0.5)
        bids = np.array([0.1, 0.2])
        result = persistent_sweep_kernel(
            prices, bids, work=1.0, recovery_time=0.1, slot_length=1.0
        )
        assert_persistent_matches(prices, bids, None, 1.0, 1.0, 0.1)
        assert not result["completed"].any()
        assert result["slots_simulated"] == 0

    def test_every_slot_accepted_zero_recovery(self):
        rng = np.random.default_rng(5)
        prices = rng.uniform(0.01, 0.05, size=(4, 50))
        assert_persistent_matches(prices, np.array([0.06]), None, 5.0, 1.0, 0.0)

    def test_recovery_longer_than_slot(self):
        rng = np.random.default_rng(6)
        prices = rng.uniform(0.01, 0.1, size=(3, 60))
        bids = np.array([0.03, 0.05, 0.08])
        assert_persistent_matches(prices, bids, None, 2.0, 1.0, 3.7)

    def test_tiny_work_completes_first_slot(self):
        prices = np.array([[0.02, 0.03, 0.04]])
        bids = np.array([0.05])
        for kernel in (persistent_sweep_kernel, onetime_sweep_kernel):
            kwargs = {"work": 1e-9, "slot_length": 1.0}
            if kernel is persistent_sweep_kernel:
                kwargs["recovery_time"] = 0.5
            result = kernel(prices, bids, **kwargs)
            assert result["completed"][0, 0]
            assert result["completion_time"][0, 0] == 1e-9

    def test_invalid_inputs_rejected_like_reference(self):
        prices = np.ones((2, 3)) * 0.05
        bids = np.array([0.1])
        with pytest.raises(MarketError):
            persistent_sweep_kernel(
                prices, bids, work=0.0, recovery_time=0.1, slot_length=1.0
            )
        with pytest.raises(MarketError):
            outcome_grid(
                fast_persistent_outcome, prices, bids,
                work=0.0, recovery_time=0.1, slot_length=1.0,
            )
        with pytest.raises(MarketError):
            onetime_sweep_kernel(prices, bids, work=1.0, slot_length=0.0)
        with pytest.raises(MarketError):
            outcome_grid(
                fast_onetime_outcome, prices, bids, work=1.0, slot_length=0.0
            )
        with pytest.raises(MarketError):
            persistent_sweep_kernel(
                np.ones((2, 2, 2)), bids, work=1.0, recovery_time=0.1,
                slot_length=1.0,
            )

    def test_chunk_runner_reports_cache_deltas(self):
        from repro.sweep import engine

        prices = np.array([[0.02, 0.06, 0.03]])
        bids = np.array([0.05])
        result = engine._run_kernel_chunk(
            ("persistent", ("inline", prices, np.array([3])), bids, 1.5, 0.1, 1.0)
        )
        assert_bitwise(
            result,
            persistent_sweep_kernel(
                prices, bids, work=1.5, recovery_time=0.1, slot_length=1.0
            ),
        )

    def test_slots_simulated_counts_lane_events(self):
        # Two bids with the same acceptance count collapse to one lane:
        # the event counter must reflect deduplicated executed events.
        prices = np.array([[0.02, 0.10, 0.03, 0.50]])
        bids = np.array([0.04, 0.05])  # both accept exactly slots 0 and 2
        result = persistent_sweep_kernel(
            prices, bids, work=10.0, recovery_time=0.0, slot_length=1.0
        )
        assert result["slots_simulated"] == 2
