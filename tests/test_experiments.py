"""Smoke + shape tests for every paper-reproduction experiment.

These run on a deliberately tiny configuration so the whole suite stays
fast; the benchmarks run the same experiments at full size and assert the
paper's quantitative shapes.
"""

import zlib

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    ablations,
    fig3_price_pdf,
    fig4_job_timeline,
    fig5_onetime_costs,
    fig6_persistent_vs_onetime,
    fig7_mapreduce_costs,
    queue_stability,
    table3_bid_prices,
    table4_mapreduce_plans,
)
from repro.experiments.common import (
    FAST_CONFIG,
    FULL_CONFIG,
    future_trace,
    history_trace,
)
from repro.traces.catalog import get_instance_type, list_instance_types
from repro.traces.generator import (
    generate_equilibrium_history,
    generate_renewal_history,
)

TINY = ExperimentConfig(history_days=15.0, future_days=4.0, repetitions=3)

FLOOR_TYPES = [
    name
    for name in list_instance_types()
    if 0.0 < get_instance_type(name).market.floor_mass < 1.0
]


class TestTraceStreams:
    @pytest.mark.parametrize("config", [FAST_CONFIG, FULL_CONFIG], ids=["fast", "full"])
    @pytest.mark.parametrize("name", FLOOR_TYPES)
    def test_future_trace_is_the_draw_after_the_history(self, name, config):
        """Skipping the history lands on the very draws that drawing it
        did: history, then renewal future, from one substream."""
        itype = get_instance_type(name)
        for stream in ((51, 0), (61, 7), (96, 19)):
            rng = config.rng(zlib.crc32(name.encode()), *stream)
            history = generate_equilibrium_history(
                itype, days=config.history_days, rng=rng, slot_length=config.slot_length
            )
            future = generate_renewal_history(
                itype,
                days=config.future_days,
                rng=rng,
                floor_episode_hours=config.floor_episode_hours,
                tail_episode_hours=config.tail_episode_hours,
                slot_length=config.slot_length,
            )
            got = history_trace(itype, config, *stream)
            assert got.prices.tobytes() == history.prices.tobytes()
            got = future_trace(itype, config, *stream)
            assert got.prices.tobytes() == future.prices.tobytes()


class TestFig3:
    def test_fits_all_panels(self):
        result = fig3_price_pdf.run(TINY)
        assert len(result.panels) == 4
        assert result.worst_pareto_mse < 1e-3
        # Functional recovery: fitted vs generating CDF stay close.
        for panel in result.panels:
            assert panel.cdf_distance < 0.15
        assert "m3.xlarge" in result.table()


class TestFig4:
    def test_timeline_consistency(self):
        result = fig4_job_timeline.run(TINY)
        assert result.outcome.completed
        # Eq. 13's realized identity: running = t_s + k·t_r.
        assert abs(result.accounting_residual) < 1e-9
        assert result.segments
        assert result.ascii_timeline()
        # Segments alternate and cover increasing times.
        starts = [s for s, _e, _k in result.segments]
        assert starts == sorted(starts)


class TestTable3:
    def test_bid_orderings(self):
        result = table3_bid_prices.run(TINY)
        assert len(result.rows) == 5
        assert result.all_orderings_hold
        for row in result.rows:
            assert row.onetime_bid < row.ondemand / 2


class TestFig5:
    def test_savings_shape(self):
        result = fig5_onetime_costs.run(TINY)
        assert len(result.bars) == 5
        # The paper: ~90% savings; tiny config tolerates failures.
        assert result.best_savings > 0.8
        for bar in result.bars:
            assert bar.ondemand_cost > bar.actual_cost_mean


class TestFig6:
    def test_panel_signs(self):
        result = fig6_persistent_vs_onetime.run(TINY)
        assert len(result.cells) == 15
        # Persistent strategies bid lower prices on average (panel a)...
        assert result.mean_price_diff("persistent-10s") < 0.5
        # ...take longer (panel b)...
        assert result.mean_completion_diff("persistent-10s") > 0.0
        # ...and cost no more (panel c).
        assert result.mean_cost_diff("persistent-10s") < 1.0


class TestTable4:
    def test_plans_and_fractions(self):
        result = table4_mapreduce_plans.run(TINY)
        assert len(result.rows) == 5
        for row in result.rows:
            assert row.num_slaves >= row.min_slaves
            assert row.master_bid > 0 and row.slave_bid > 0
            assert 0.0 < row.master_cost_fraction < 1.0


class TestFig7:
    def test_spot_cheaper_slower(self):
        result = fig7_mapreduce_costs.run(TINY)
        assert len(result.bars) == 5
        for bar in result.bars:
            assert bar.spot_cost_mean < bar.ondemand_cost
        assert result.worst_savings > 0.6


class TestQueueStability:
    def test_props_hold(self):
        result = queue_stability.run(TINY)
        assert len(result.rows) == 4
        assert result.all_stable
        for row in result.rows:
            assert row.pushforward_ks.similar()
            assert row.day_night_ks.similar()


class TestAblations:
    def test_beta_sweep_monotone(self):
        assert ablations.beta_sweep().monotone_decreasing

    def test_recovery_sweep_bids_monotone(self):
        result = ablations.recovery_sweep(TINY)
        assert result.bids_monotone

    def test_slave_sweep_completion_monotone(self):
        result = ablations.slave_count_sweep(TINY)
        assert result.completion_monotone
        assert len(result.rows) >= 8

    def test_texture_reduces_interruptions(self):
        result = ablations.temporal_texture(TINY)
        assert result.correlation_reduces_interruptions


class TestReport:
    def test_generate_report_contains_every_artifact(self):
        from repro.experiments.report import generate_report

        text = generate_report(TINY, include_ablations=False)
        for needle in (
            "Figure 3", "Figure 4", "Table 3", "Figure 5",
            "Figure 6", "Table 4", "Figure 7", "Propositions 1–3",
        ):
            assert needle in text
        assert "regenerated in" in text

    def test_report_streams_to_file_object(self, tmp_path):
        import io

        from repro.experiments.report import generate_report

        buf = io.StringIO()
        returned = generate_report(TINY, include_ablations=False, stream=buf)
        assert returned == ""
        assert "Reproduction report" in buf.getvalue()


class TestConfig:
    def test_rng_substreams_are_deterministic(self):
        a = TINY.rng(1, 2).integers(0, 1_000_000)
        b = TINY.rng(1, 2).integers(0, 1_000_000)
        c = TINY.rng(1, 3).integers(0, 1_000_000)
        assert a == b
        assert a != c

    def test_format_table_alignment(self):
        from repro.experiments.common import format_table

        text = format_table(("col", "x"), [("a", 1), ("bb", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("col")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_calm_start_slot_prefers_floor(self):
        import numpy as np

        from repro.experiments.common import calm_start_slot
        from repro.traces.history import SpotPriceHistory

        prices = np.concatenate([np.full(10, 0.9), np.full(278, 0.03)])
        history = SpotPriceHistory(prices=prices)
        rng = np.random.default_rng(0)
        for _ in range(5):
            slot = calm_start_slot(rng, history)
            assert history.prices[slot] == 0.03


class TestDeterminism:
    def test_table3_is_bit_reproducible(self):
        a = table3_bid_prices.run(TINY)
        b = table3_bid_prices.run(TINY)
        assert a.table() == b.table()

    def test_fig5_is_bit_reproducible(self):
        a = fig5_onetime_costs.run(TINY)
        b = fig5_onetime_costs.run(TINY)
        assert a.table() == b.table()

    def test_different_seeds_differ(self):
        other = ExperimentConfig(
            history_days=15.0, future_days=4.0, repetitions=3, seed=99,
        )
        a = fig5_onetime_costs.run(TINY)
        b = fig5_onetime_costs.run(other)
        assert a.table() != b.table()
