"""Fault injection: specs, plans, injectors, and the perturbed-trace contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultError, ReproError
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    PricePlateau,
    PriceSpike,
    RevocationStorm,
    SlotDropout,
    SlotDuplication,
    TraceTruncation,
)
from repro.traces.history import SpotPriceHistory


@pytest.fixture
def prices(rng):
    return rng.uniform(0.02, 0.1, size=500)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: PriceSpike(rate=-0.1),
            lambda: PriceSpike(rate=1.5),
            lambda: PriceSpike(magnitude=0.0),
            lambda: PriceSpike(width=0),
            lambda: PricePlateau(level=0.0, duration_slots=5),
            lambda: PricePlateau(level=0.2, duration_slots=0),
            lambda: PricePlateau(level=0.2, duration_slots=5, start_slot=-1),
            lambda: SlotDropout(rate=2.0),
            lambda: SlotDuplication(rate=-0.5),
            lambda: RevocationStorm(level=-1.0),
            lambda: RevocationStorm(level=0.2, bursts=0),
            lambda: RevocationStorm(level=0.2, burst_slots=0),
            lambda: TraceTruncation(fraction=0.0),
            lambda: TraceTruncation(fraction=1.5),
        ],
    )
    def test_invalid_parameters_raise_fault_error(self, make):
        with pytest.raises(FaultError):
            make()

    def test_kind_is_kebab_cased_class_name(self):
        assert PriceSpike().kind == "price-spike"
        assert TraceTruncation().kind == "trace-truncation"


class TestFaultPlan:
    def test_multiplier_then_override_then_emission(self):
        plan = FaultPlan(
            multiplier=np.array([2.0, 1.0, 1.0]),
            override=np.array([np.nan, 9.0, np.nan]),
            emit_counts=np.array([1, 1, 0]),
        )
        out = plan.apply(np.array([0.5, 0.5, 0.5]))
        assert out.tolist() == [1.0, 9.0]

    def test_empty_result_raises(self):
        plan = FaultPlan(emit_counts=np.zeros(3, dtype=np.int64))
        with pytest.raises(FaultError, match="removed every slot"):
            plan.apply(np.ones(3))


class TestSpecEffects:
    def test_spike_multiplies_some_slots(self, prices):
        rng = np.random.default_rng(0)
        plan = PriceSpike(rate=0.1, magnitude=10.0).plan(rng, prices.size)
        out = plan.apply(prices)
        assert out.size == prices.size
        spiked = out > prices * 5
        assert 0 < spiked.sum() <= prices.size * 0.2

    def test_plateau_holds_the_level(self, prices):
        spec = PricePlateau(level=7.0, duration_slots=20, start_slot=100)
        out = spec.plan(np.random.default_rng(0), prices.size).apply(prices)
        assert (out[100:120] == 7.0).all()
        assert (out[:100] == prices[:100]).all()

    def test_dropout_shrinks_and_duplication_grows(self, prices):
        rng = np.random.default_rng(0)
        dropped = SlotDropout(rate=0.2).plan(rng, prices.size).apply(prices)
        rng = np.random.default_rng(0)
        doubled = SlotDuplication(rate=0.2).plan(rng, prices.size).apply(prices)
        assert dropped.size < prices.size
        assert doubled.size > prices.size

    def test_dropout_never_deletes_everything(self):
        plan = SlotDropout(rate=1.0).plan(np.random.default_rng(0), 10)
        assert plan.apply(np.ones(10)).size == 1

    def test_truncation_keeps_leading_fraction(self, prices):
        out = (
            TraceTruncation(fraction=0.25)
            .plan(np.random.default_rng(0), prices.size)
            .apply(prices)
        )
        assert out.size == prices.size // 4
        assert (out == prices[: out.size]).all()

    def test_storm_writes_bursts_at_level(self, prices):
        spec = RevocationStorm(level=5.0, bursts=3, burst_slots=4)
        out = spec.plan(np.random.default_rng(0), prices.size).apply(prices)
        assert (out == 5.0).sum() >= 4


class TestFaultInjector:
    def test_requires_specs(self):
        with pytest.raises(FaultError):
            FaultInjector([])
        with pytest.raises(FaultError, match="not a FaultSpec"):
            FaultInjector(["spike"])

    def test_negative_seed_and_index_rejected(self):
        with pytest.raises(FaultError, match="seed"):
            FaultInjector([PriceSpike()], seed=-1)
        with pytest.raises(FaultError, match="index"):
            FaultInjector([PriceSpike()], seed=0).derive(-1)

    def test_same_seed_same_output(self, prices):
        a = FaultInjector([PriceSpike(rate=0.1), SlotDropout()], seed=7)
        b = FaultInjector([PriceSpike(rate=0.1), SlotDropout()], seed=7)
        assert (a.perturb_prices(prices) == b.perturb_prices(prices)).all()

    def test_different_seeds_differ(self, prices):
        a = FaultInjector([SlotDropout(rate=0.3)], seed=1)
        b = FaultInjector([SlotDropout(rate=0.3)], seed=2)
        out_a, out_b = a.perturb_prices(prices), b.perturb_prices(prices)
        assert out_a.size != out_b.size or not (out_a == out_b).all()

    def test_derive_gives_independent_streams(self, prices):
        root = FaultInjector([SlotDropout(rate=0.3)], seed=7)
        out0 = root.derive(0).perturb_prices(prices)
        out1 = root.derive(1).perturb_prices(prices)
        assert out0.size != out1.size or not (out0 == out1).all()
        # ... but deriving the same index twice replays exactly.
        again = root.derive(0).perturb_prices(prices)
        assert (out0 == again).all()

    def test_perturb_history_preserves_metadata(self, prices):
        history = SpotPriceHistory(
            prices=prices, slot_length=1 / 12, start_hour=5.0,
            instance_type="r3.xlarge",
        )
        injector = FaultInjector([PriceSpike(rate=0.05)], seed=3)
        out = injector.perturb_history(history)
        assert out.slot_length == history.slot_length
        assert out.start_hour == history.start_hour
        assert out.instance_type == history.instance_type

    def test_rejects_bad_prices(self):
        injector = FaultInjector([PriceSpike()], seed=0)
        with pytest.raises(FaultError):
            injector.perturb_prices(np.ones((2, 2)))
        with pytest.raises(FaultError):
            injector.perturb_prices(np.array([]))


_rates = st.floats(0.0, 1.0)
_positive = st.floats(
    min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False
)
_counts = st.integers(1, 300)

#: Each of the six spec classes over its whole valid parameter range; a
#: ``PriceSpike`` magnitude may overflow a price to infinity.
_specs = st.one_of(
    st.builds(PriceSpike, rate=_rates, magnitude=_positive, width=_counts),
    st.builds(
        PricePlateau,
        level=_positive,
        duration_slots=_counts,
        start_slot=st.none() | st.integers(0, 300),
    ),
    st.builds(SlotDropout, rate=_rates),
    st.builds(SlotDuplication, rate=_rates),
    st.builds(RevocationStorm, level=_positive, bursts=_counts, burst_slots=_counts),
    st.builds(
        TraceTruncation,
        fraction=st.floats(0.0, 1.0, exclude_min=True),
    ),
)

_traces = st.builds(
    SpotPriceHistory,
    prices=st.lists(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=200,
    ).map(np.asarray),
    slot_length=_positive,
    start_hour=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    instance_type=st.none() | st.text(max_size=12),
)


class TestPerturbHistoryContract:
    """The one way faults enter a market: any valid suite, seed and trace
    yields a valid trace with the input's metadata, or a ``ReproError``."""

    @settings(max_examples=300, deadline=None)
    @given(
        specs=st.lists(_specs, min_size=1, max_size=6),
        seed=st.integers(-(2**70), 2**70),
        trace=_traces,
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_returns_a_valid_trace_or_raises_a_repro_error(
        self, specs, seed, trace
    ):
        try:
            out = FaultInjector(specs, seed=seed).perturb_history(trace)
        except ReproError:
            return
        assert isinstance(out, SpotPriceHistory)
        assert out.n_slots >= 1
        assert np.all(np.isfinite(out.prices)) and np.all(out.prices >= 0.0)
        assert out.slot_length == trace.slot_length
        assert out.start_hour == trace.start_hour
        assert out.instance_type == trace.instance_type
