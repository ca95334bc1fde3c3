"""Event-driven kernels vs reference kernels vs scalar fastpath.

The event kernels' contract is *bitwise* equality with the dense
reference kernels (and hence with the scalar oracle): every float in
every field, including NaN placement and integer dtypes.  These tests
drive that contract across seeded randomized workloads and hand-built
edge cases — ragged traces, +inf padding, per-trace bid matrices, price
ties at the bid boundary, zero recovery, and degenerate sizes.
"""

import numpy as np
import pytest

from repro.errors import MarketError
from repro.market.fastpath import fast_onetime_outcome, fast_persistent_outcome
from repro.sweep.kernels import (
    onetime_sweep_kernel,
    onetime_sweep_kernel_reference,
    persistent_sweep_kernel,
    persistent_sweep_kernel_reference,
)

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


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [1509, 2015, 4242])
    def test_persistent_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            prices, bids, n_valid, work, L, R = random_workload(rng)
            ref = persistent_sweep_kernel_reference(
                prices, bids, work=work, recovery_time=R,
                slot_length=L, n_valid=n_valid,
            )
            event = persistent_sweep_kernel(
                prices, bids, work=work, recovery_time=R,
                slot_length=L, n_valid=n_valid,
            )
            assert_bitwise(event, ref)

    @pytest.mark.parametrize("seed", [1509, 2015, 4242])
    def test_onetime_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            prices, bids, n_valid, work, L, _ = random_workload(rng)
            ref = onetime_sweep_kernel_reference(
                prices, bids, work=work, slot_length=L, n_valid=n_valid
            )
            event = onetime_sweep_kernel(
                prices, bids, work=work, slot_length=L, n_valid=n_valid
            )
            assert_bitwise(event, ref)

    def test_persistent_matches_scalar_fastpath(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 400:
            prices, bids, n_valid, work, L, R = random_workload(
                rng, n_slots_max=60
            )
            result = persistent_sweep_kernel(
                prices, bids, work=work, recovery_time=R,
                slot_length=L, n_valid=n_valid,
            )
            bids2 = np.atleast_2d(bids)
            n_traces = prices.shape[0]
            lengths = (
                n_valid
                if n_valid is not None
                else np.full(n_traces, prices.shape[1])
            )
            for t in range(n_traces):
                row = prices[t, : lengths[t]]
                for b in range(bids2.shape[1]):
                    bid = bids2[t % bids2.shape[0], b]
                    scalar = fast_persistent_outcome(
                        row, bid, work, R, L
                    )
                    assert result["completed"][t, b] == scalar.completed
                    assert result["cost"][t, b] == scalar.cost
                    assert (
                        result["running_time"][t, b] == scalar.running_time
                    )
                    assert result["interruptions"][t, b] == scalar.interruptions
                    if scalar.completed:
                        assert (
                            result["completion_time"][t, b]
                            == scalar.completion_time
                        )
                    checked += 1

    def test_onetime_matches_scalar_fastpath(self):
        rng = np.random.default_rng(88)
        checked = 0
        while checked < 400:
            prices, bids, n_valid, work, L, _ = random_workload(
                rng, n_slots_max=60
            )
            result = onetime_sweep_kernel(
                prices, bids, work=work, slot_length=L, n_valid=n_valid
            )
            bids2 = np.atleast_2d(bids)
            n_traces = prices.shape[0]
            lengths = (
                n_valid
                if n_valid is not None
                else np.full(n_traces, prices.shape[1])
            )
            for t in range(n_traces):
                row = prices[t, : lengths[t]]
                for b in range(bids2.shape[1]):
                    bid = bids2[t % bids2.shape[0], b]
                    scalar = fast_onetime_outcome(row, bid, work, L)
                    assert result["completed"][t, b] == scalar.completed
                    assert result["cost"][t, b] == scalar.cost
                    assert (
                        result["running_time"][t, b] == scalar.running_time
                    )
                    checked += 1


class TestEdgeCases:
    def test_single_slot_traces(self):
        prices = np.array([[0.04], [0.9]])
        bids = np.array([0.01, 0.05, 1.0])
        for kernel, ref in (
            (persistent_sweep_kernel, persistent_sweep_kernel_reference),
        ):
            assert_bitwise(
                kernel(prices, bids, work=0.5, recovery_time=0.2,
                       slot_length=1.0),
                ref(prices, bids, work=0.5, recovery_time=0.2,
                    slot_length=1.0),
            )
        assert_bitwise(
            onetime_sweep_kernel(prices, bids, work=0.5, slot_length=1.0),
            onetime_sweep_kernel_reference(
                prices, bids, work=0.5, slot_length=1.0
            ),
        )

    def test_no_lane_ever_accepts(self):
        prices = np.full((3, 20), 0.5)
        bids = np.array([0.1, 0.2])
        result = persistent_sweep_kernel(
            prices, bids, work=1.0, recovery_time=0.1, slot_length=1.0
        )
        ref = persistent_sweep_kernel_reference(
            prices, bids, work=1.0, recovery_time=0.1, slot_length=1.0
        )
        assert_bitwise(result, ref)
        assert not result["completed"].any()
        assert result["slots_simulated"] == 0

    def test_every_slot_accepted_zero_recovery(self):
        rng = np.random.default_rng(5)
        prices = rng.uniform(0.01, 0.05, size=(4, 50))
        bids = np.array([0.06])
        assert_bitwise(
            persistent_sweep_kernel(
                prices, bids, work=5.0, recovery_time=0.0, slot_length=1.0
            ),
            persistent_sweep_kernel_reference(
                prices, bids, work=5.0, recovery_time=0.0, slot_length=1.0
            ),
        )

    def test_recovery_longer_than_slot(self):
        rng = np.random.default_rng(6)
        prices = rng.uniform(0.01, 0.1, size=(3, 60))
        bids = np.array([0.03, 0.05, 0.08])
        assert_bitwise(
            persistent_sweep_kernel(
                prices, bids, work=2.0, recovery_time=3.7, slot_length=1.0
            ),
            persistent_sweep_kernel_reference(
                prices, bids, work=2.0, recovery_time=3.7, slot_length=1.0
            ),
        )

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
            onetime_sweep_kernel(prices, bids, work=1.0, slot_length=0.0)
        with pytest.raises(MarketError):
            persistent_sweep_kernel(
                np.ones((2, 2, 2)), bids, work=1.0, recovery_time=0.1,
                slot_length=1.0,
            )

    def test_kernel_env_var_selects_family(self, monkeypatch):
        from repro.sweep import engine

        prices = np.array([[0.02, 0.06, 0.03]])
        args = (
            "persistent",
            ("inline", prices, np.array([3])),
            np.array([0.05]),
            1.5,
            0.1,
            1.0,
        )
        # A sweep reads the switch once and ships the mode in each chunk.
        monkeypatch.setenv("REPRO_SWEEP_KERNEL", "reference")
        ref = engine._run_kernel_chunk(args + (engine._kernel_mode(),))
        monkeypatch.setenv("REPRO_SWEEP_KERNEL", "event")
        event = engine._run_kernel_chunk(args + (engine._kernel_mode(),))
        for field in FIELDS:
            assert np.array_equal(ref[field], event[field], equal_nan=True)
        # The chunk runner reports worker-local cache deltas either way.
        assert {"cache_hits", "cache_misses"} <= set(event)
        monkeypatch.setenv("REPRO_SWEEP_KERNEL", "warp")
        with pytest.raises(MarketError, match="REPRO_SWEEP_KERNEL"):
            engine._kernel_mode()

    def test_slots_simulated_counts_lane_events(self):
        # Two bids with the same acceptance count collapse to one lane:
        # the event counter must reflect deduplicated executed events.
        prices = np.array([[0.02, 0.10, 0.03, 0.50]])
        bids = np.array([0.04, 0.05])  # both accept exactly slots 0 and 2
        result = persistent_sweep_kernel(
            prices, bids, work=10.0, recovery_time=0.0, slot_length=1.0
        )
        assert result["slots_simulated"] == 2
