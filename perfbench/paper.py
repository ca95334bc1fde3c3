"""The ``paper`` workload: the researcher regenerating the paper's results.

One op is one :func:`repro.experiments.report.generate_report` call over
the eight paper sections (Figs. 3-7, Tables 3-4, Props. 1-3; ablations
excluded) at ``FULL_CONFIG`` with the benchmark seed, run serially in
the benchmark process.  Provider fitting, the core optimizers, the
MapReduce plan grid and small serial sweeps do the work; the scheduler,
shared memory and the serve daemon do none of it.

Output checks: every pass renders byte-identical tables; at the default
seed the tables digest equals :data:`DEFAULT_SEED_DIGEST`; and the paper
criteria that ``benchmarks/bench_fig*.py`` and ``bench_table*.py``
assert hold on their own configuration (``FAST_CONFIG``, default seed).
At ``FULL_CONFIG`` several of those statistical criteria fail for some
seeds on an unmodified tree (README.md lists them), so they are not
asserted on the benchmark seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import re
from typing import Any, Dict, List

from perfbench import harness
from perfbench.tracing import SpanTable, Tracer
from perfbench.workload import Outcome, nominal_p50_ms, timed_ops

#: sha256 prefix of the rendered tables at ``FULL_CONFIG`` and the
#: default seed, timing lines stripped.  Any change to a printed number
#: of the paper pipeline moves it.
DEFAULT_SEED_DIGEST = "bbe0f933efce68d1"

_TIMING_LINE = re.compile(r"^_regenerated in .*_$", re.MULTILINE)

#: Section module -> per-layer metric name.
SECTIONS = (
    ("fig3_price_pdf", "fig3"),
    ("fig4_job_timeline", "fig4"),
    ("table3_bid_prices", "table3"),
    ("fig5_onetime_costs", "fig5"),
    ("fig6_persistent_vs_onetime", "fig6"),
    ("table4_mapreduce_plans", "table4"),
    ("fig7_mapreduce_costs", "fig7"),
    ("queue_stability", "props"),
)


def tables_digest(markdown: str) -> str:
    """Digest of a report with its wall-clock lines removed."""
    body = _TIMING_LINE.sub("", markdown)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def paper_criteria(results: Dict[str, Any]) -> List[str]:
    """The paper criteria of ``benchmarks/bench_fig*.py`` and
    ``bench_table*.py``, as a list of the ones that fail."""
    failed: List[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            failed.append(what)

    fig3 = results["fig3"]
    need(len(fig3.panels) == 4, "fig3: four panels")
    need(fig3.worst_pareto_mse < 2e-5, "fig3: Pareto MSE < 2e-5")
    need(fig3.worst_exponential_mse < 5e-4, "fig3: exponential MSE < 5e-4")
    need(fig3.worst_floor_mass_error < 0.05, "fig3: floor mass recovered")
    need(all(p.cdf_distance < 0.1 for p in fig3.panels), "fig3: CDF recovered")

    fig4 = results["fig4"]
    need(fig4.outcome.completed, "fig4: job completes")
    need(fig4.outcome.interruptions >= 1, "fig4: at least one interruption")
    need(abs(fig4.accounting_residual) < 1e-9, "fig4: eq. 13 identity")
    need({k for _s, _e, k in fig4.segments} == {"run", "idle"}, "fig4: run/idle")

    table3 = results["table3"]
    need(len(table3.rows) == 5, "table3: five rows")
    need(table3.all_orderings_hold, "table3: bid orderings")
    for row in table3.rows:
        need(row.onetime_bid < row.ondemand / 2, "table3: bids below on-demand/2")
        need(row.retrospective < row.onetime_bid * 1.5, "table3: retrospective")

    fig5 = results["fig5"]
    need(len(fig5.bars) == 5, "fig5: five bars")
    need(fig5.best_savings > 0.88, "fig5: best savings > 88%")
    need(fig5.worst_savings > 0.70, "fig5: worst savings > 70%")
    interruptions = sum(b.interruptions for b in fig5.bars)
    runs = sum(b.repetitions for b in fig5.bars)
    need(interruptions <= max(2, runs // 10), "fig5: rare interruptions")
    clean = [b for b in fig5.bars if b.interruptions == 0]
    need(bool(clean), "fig5: an interruption-free type")
    need(all(b.prediction_gap < 0.25 for b in clean), "fig5: model matches")

    fig6 = results["fig6"]
    p10, p30, p90 = "persistent-10s", "persistent-30s", "percentile-90"
    need(fig6.mean_price_diff(p10) < 0.0, "fig6a: 10s price below one-time")
    need(fig6.mean_price_diff(p30) < 0.0, "fig6a: 30s price below one-time")
    need(fig6.mean_price_diff(p10) <= fig6.mean_price_diff(p30), "fig6a: 10s <= 30s")
    need(fig6.mean_completion_diff(p10) > 0.0, "fig6b: 10s slower")
    need(fig6.mean_completion_diff(p30) > 0.0, "fig6b: 30s slower")
    need(
        fig6.mean_completion_diff(p10) >= fig6.mean_completion_diff(p30),
        "fig6b: 10s slower than 30s",
    )
    need(
        fig6.mean_completion_diff(p90) <= fig6.mean_completion_diff(p30),
        "fig6b: percentile idles less",
    )
    need(fig6.mean_cost_diff(p10) < 0.0, "fig6c: 10s cheaper")
    need(fig6.mean_cost_diff(p30) < 0.5, "fig6c: 30s cost bound")
    need(
        fig6.mean_cost_diff(p10) <= fig6.mean_cost_diff(p90),
        "fig6c: heuristic cuts less",
    )

    table4 = results["table4"]
    need(len(table4.rows) == 5, "table4: five rows")
    for row in table4.rows:
        need(3 <= row.min_slaves <= 8, "table4: 3-8 minimum slaves")
        need(row.num_slaves >= row.min_slaves, "table4: enough slaves")
        need(
            row.master_bid < row.slave_bid or row.master_type != row.slave_type,
            "table4: master bid",
        )
        need(0.03 < row.master_cost_fraction < 0.45, "table4: master share")
    in_band = [r for r in table4.rows if 0.08 <= r.master_cost_fraction <= 0.30]
    need(len(in_band) >= 3, "table4: master share in band")

    fig7 = results["fig7"]
    need(len(fig7.bars) == 5, "fig7: five bars")
    need(fig7.best_savings > 0.88, "fig7: best savings > 88%")
    need(fig7.worst_savings > 0.80, "fig7: worst savings > 80%")
    for bar in fig7.bars:
        need(bar.spot_cost_mean < bar.ondemand_cost, "fig7: spot cheaper")
        need(
            bar.spot_completion_mean >= bar.ondemand_completion,
            "fig7: spot not faster",
        )
        need(bar.median_slowdown_pct < 100.0, "fig7: slowdown bounded")
        need(bar.completed == bar.repetitions, "fig7: all complete")

    props = results["props"]
    need(len(props.rows) == 4, "props: four rows")
    need(props.all_stable, "props: stable")
    for row in props.rows:
        need(row.pushforward_ks.similar(threshold=0.01), "props: Prop. 3 K-S")
        need(row.day_night_ks.similar(threshold=0.01), "props: day/night K-S")
        need(row.mean_queue < row.lyapunov_level, "props: Prop. 1 level")
    return failed


def _fast_results(config: Any) -> Dict[str, Any]:
    return {
        short: importlib.import_module(f"repro.experiments.{name}").run(config)
        for name, short in SECTIONS
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        import_s = harness.Setup(lambda: harness.import_seconds("repro"), n=3).finish()
        setup = None
    else:
        setup = harness.Setup(lambda: harness.import_seconds("repro.experiments.report"))

    from repro.core.distcache import distribution_cache_stats
    from repro.experiments.common import FAST_CONFIG, FULL_CONFIG
    from repro.experiments.report import generate_report

    config = dataclasses.replace(FULL_CONFIG, seed=seed)

    def one_pass() -> str:
        return tables_digest(generate_report(config, include_ablations=False))

    reference = one_pass()  # untimed: fills caches, finishes lazy set-up
    drift = harness.Drift()

    digests: List[str] = []
    tracer = Tracer(harness.OUT_DIR) if trace else None
    cache_ratio: List[float] = []
    if tracer is not None:
        tracer.plan()

    def op(index: int) -> None:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.op = index
            tracer.install()
            hits0, misses0 = distribution_cache_stats()
        try:
            digests.append(one_pass())
        finally:
            if traced:
                tracer.uninstall()
                hits, misses = distribution_cache_stats()
                lookups = (hits - hits0) + (misses - misses0)
                cache_ratio.append((hits - hits0) / lookups if lookups else 0.0)

    times, calibs = timed_ops(
        seconds, op, outcome, drift, min_ops=2 if trace else 1, setup=setup
    )
    rss = harness.peak_rss_mb()

    # -- output checks (untimed) ---------------------------------------------
    outcome.check(
        all(d == reference for d in digests),
        f"paper: tables differ between passes ({sorted(set(digests))} vs {reference})",
    )
    pinned = reference if seed == harness.DEFAULT_SEED else tables_digest(
        generate_report(
            dataclasses.replace(FULL_CONFIG, seed=harness.DEFAULT_SEED),
            include_ablations=False,
        )
    )
    outcome.check(
        pinned == DEFAULT_SEED_DIGEST,
        f"paper: default-seed tables digest {pinned} != {DEFAULT_SEED_DIGEST}",
    )
    for problem in paper_criteria(_fast_results(FAST_CONFIG)):
        outcome.problems.append(f"paper criterion failed: {problem}")

    outcome.diagnostics.update(
        drift=drift.summary(),
        passes=len(times),
        pass_s=[round(t, 4) for t in times],
        tables_digest=reference,
    )
    if tracer is None:
        outcome.metrics["op_p50_norm_ms"] = nominal_p50_ms(times, calibs)
        outcome.diagnostics["op_p50_ms"] = harness.percentile(times, 50.0) * 1e3
        outcome.diagnostics["op_p90_ms"] = harness.percentile(times, 90.0) * 1e3
        outcome.metrics["setup_s"] = setup.finish()
        outcome.metrics["peak_rss_mb"] = rss
        outcome.diagnostics["setup_runs_s"] = setup.seconds
        return outcome

    plain, traced = times[0::2], times[1::2]
    table = SpanTable(tracer.spans)
    ops = sorted({s[5] for s in tracer.spans})

    def per_op(fn: Any) -> float:
        return harness.median(fn(o) for o in ops) if ops else 0.0

    m = outcome.metrics
    for _module, short in SECTIONS:
        m[f"experiments.{short}_s"] = per_op(
            lambda o, n=f"experiments.{short}": table.self_seconds(n, o)
        )
    for layer in ("provider.fit", "traces.generate", "core.decide", "mapreduce.plan_grid"):
        m[f"{layer}_s"] = per_op(lambda o, n=layer: table.self_seconds(n, o))
        m[f"{layer}_calls"] = per_op(lambda o, n=layer: table.calls(n, o))
    m["market.simulate_s"] = per_op(lambda o: table.self_seconds("market.simulate", o))
    m["sweep.calls"] = per_op(lambda o: table.calls("sweep.run_sweep", o))
    m["sweep.self_s"] = per_op(lambda o: table.self_seconds("sweep.run_sweep", o))
    m["sweep.run_sweep_s"] = per_op(lambda o: table.total_seconds("sweep.run_sweep", o))
    m["sweep.cells"] = per_op(lambda o: tracer.counts.get(("sweep.cells", o), 0))
    m["sweep.kernel_busy_s"] = per_op(lambda o: table.total_seconds("sweep.kernel", o))
    m["sweep.kernel_calls"] = per_op(lambda o: table.calls("sweep.kernel", o))
    m["core.distcache_hit_ratio"] = harness.median(cache_ratio)
    m["setup.import_s"] = import_s
    m["trace.overhead_share"] = harness.median(traced) / harness.median(plain) - 1.0
    outcome.diagnostics.update(
        untraced_pass_s=harness.median(plain),
        traced_pass_s=harness.median(traced),
    )
    return outcome
