"""Command-line interface: ``repro-bid``.

Subcommands
-----------
``trace``      Generate a synthetic spot-price trace CSV for an instance
               type (equilibrium / renewal / correlated / provider).
``bid``        Compute the optimal bid for a job from a trace CSV.
``fit``        Fit the Section 4 model to a trace CSV (Figure 3).
``backtest``   Decide a bid on one trace and execute it on another.
``sweep``      Evaluate a grid of bids against future traces in one
               batched pass (the ``repro.sweep`` engine).
``experiment`` Run one of the paper's table/figure reproductions
               (or ``all`` to regenerate a full markdown report).
``describe``   Summarize a trace CSV (floor occupancy, episodes, tail).
``options``    Compare on-demand / one-time / persistent / spot-block.
``mapreduce``  Plan a master/slave cluster bid (eq. 20).
``chaos``      Stress a bid under injected market faults and report
               per-fault-class cost/completion degradation; with
               ``--kill-workers``, crash/stall the scheduler's worker
               pool instead and check results stay bitwise identical.
``bench``      Benchmark each batched kernel against its scalar oracle
               (event vs reference lane), emit a ``BENCH_*.json``
               trajectory point, and gate regressions against a
               committed baseline.
``check``      Run the repo-aware static-analysis suite (``repro.checks``:
               determinism, kernel-oracle parity, numeric hygiene).
``catalog``    List the built-in instance types.

Examples
--------
::

    repro-bid trace r3.xlarge --days 60 --out history.csv
    repro-bid bid history.csv --hours 1 --recovery-seconds 30
    repro-bid fit history.csv
    repro-bid experiment table3
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .constants import SLOTS_PER_DAY, seconds
from .core.client import BiddingClient
from .core.types import (
    CvarDecision,
    DecisionRequest,
    JobSpec,
    PortfolioDecision,
    Strategy,
)
from .errors import ReproError
from .provider.fitting import fit_both_families
from .traces import io as trace_io
from .traces.catalog import CATALOG, get_instance_type
from .traces.generator import (
    generate_correlated_history,
    generate_equilibrium_history,
    generate_provider_history,
    generate_renewal_history,
)

__all__ = ["main", "build_parser"]

_EXPERIMENTS = (
    "fig3", "fig4", "table3", "fig5", "fig6", "table4", "fig7", "prop12",
)

_FAULT_CLASSES = (
    "spike", "plateau", "dropout", "duplication", "storm", "truncation",
)


def _positive_float(text: str) -> float:
    """argparse type: a finite float strictly greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text!r}"
        )
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type: a finite float greater than or equal to zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not (value >= 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a non-negative number, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer strictly greater than zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _grid_shape(text: str) -> "tuple[int, int]":
    """argparse type: a bid-table grid shape like ``32x8``."""
    parts = text.lower().split("x")
    try:
        if len(parts) != 2:
            raise ValueError
        n_ts, n_tr = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must look like '32x8' (t_s points x t_r points), got {text!r}"
        ) from None
    if n_ts < 2 or n_tr < 1:
        raise argparse.ArgumentTypeError(
            f"needs at least 2x1 grid points, got {text!r}"
        )
    return n_ts, n_tr


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-bid`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bid",
        description="Spot-market bidding toolkit (SIGCOMM'15 'How to Bid "
        "the Cloud' reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="generate a synthetic price trace")
    p_trace.add_argument("instance_type", help="e.g. r3.xlarge")
    p_trace.add_argument("--days", type=_positive_float, default=60.0)
    p_trace.add_argument(
        "--model",
        choices=("equilibrium", "renewal", "correlated", "provider"),
        default="equilibrium",
    )
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", required=True, help="output CSV path")

    p_bid = sub.add_parser("bid", help="compute optimal bids from a trace")
    p_bid.add_argument("trace", help="price-history CSV")
    p_bid.add_argument("--hours", type=_positive_float, default=1.0, help="t_s")
    p_bid.add_argument(
        "--recovery-seconds", type=_nonnegative_float, default=30.0,
        help="t_r in seconds",
    )
    p_bid.add_argument(
        "--ondemand", type=float, default=None,
        help="on-demand price; defaults to the catalog entry for the "
        "trace's instance type",
    )
    p_bid.add_argument(
        "--strategy",
        choices=(
            "one-time", "persistent", "percentile", "portfolio", "cvar", "all",
        ),
        default="all",
        help="'all' runs the paper's three strategies; portfolio and "
        "cvar must be requested explicitly",
    )
    p_bid.add_argument("--percentile", type=float, default=90.0)
    p_bid.add_argument(
        "--max-variance", type=float, default=None,
        help="portfolio: cap on Var(paid price) in ($/h)^2",
    )
    p_bid.add_argument(
        "--cvar-alpha", type=float, default=0.95,
        help="cvar: tail level (CVaR averages the worst 1-alpha windows)",
    )

    p_fit = sub.add_parser("fit", help="fit the provider model to a trace")
    p_fit.add_argument("trace", help="price-history CSV")
    p_fit.add_argument("--ondemand", type=float, default=None)
    p_fit.add_argument("--bins", type=int, default=40)
    p_fit.add_argument("--jacobian", action="store_true",
                       help="use the exact change-of-variables density")

    p_back = sub.add_parser(
        "backtest", help="decide on one trace, execute on another"
    )
    p_back.add_argument("history", help="trace CSV used to compute the bid")
    p_back.add_argument("future", help="trace CSV the bid is executed on")
    p_back.add_argument("--hours", type=_positive_float, default=1.0)
    p_back.add_argument("--recovery-seconds", type=_nonnegative_float, default=30.0)
    p_back.add_argument("--ondemand", type=float, default=None)
    p_back.add_argument(
        "--strategy", choices=("one-time", "persistent", "percentile"),
        default="persistent",
    )
    p_back.add_argument("--start-slot", type=int, default=0)

    p_sweep = sub.add_parser(
        "sweep", help="evaluate a grid of bids against one or more future traces"
    )
    p_sweep.add_argument("history", help="trace CSV the bid grid is derived from")
    p_sweep.add_argument(
        "futures", nargs="+", help="trace CSV(s) the bids are executed on"
    )
    p_sweep.add_argument("--hours", type=_positive_float, default=1.0, help="t_s")
    p_sweep.add_argument("--recovery-seconds", type=_nonnegative_float, default=30.0)
    p_sweep.add_argument(
        "--strategy",
        choices=("one-time", "persistent", "portfolio", "cvar"),
        default="persistent",
        help="portfolio/cvar first select a bid from the history, then "
        "sweep the chosen price as a persistent request",
    )
    p_sweep.add_argument("--bids", type=_positive_int, default=16,
                         help="number of bid grid points")
    p_sweep.add_argument("--low", type=float, default=None,
                         help="lowest bid (default: history minimum)")
    p_sweep.add_argument("--high", type=float, default=None,
                         help="highest bid (default: history maximum)")
    p_sweep.add_argument("--start-slot", type=int, default=0)
    p_sweep.add_argument("--workers", type=_positive_int, default=None,
                         help="fan traces out over this many workers")
    p_sweep.add_argument(
        "--ondemand", type=float, default=None,
        help="on-demand price for portfolio/cvar selection; defaults to "
        "the catalog entry for the history's instance type",
    )
    p_sweep.add_argument(
        "--max-variance", type=float, default=None,
        help="portfolio: cap on Var(paid price) in ($/h)^2",
    )
    p_sweep.add_argument(
        "--cvar-alpha", type=float, default=0.95,
        help="cvar: tail level (CVaR averages the worst 1-alpha windows)",
    )

    p_exp = sub.add_parser("experiment", help="run a paper reproduction")
    p_exp.add_argument("name", choices=_EXPERIMENTS + ("all",))
    p_exp.add_argument("--fast", action="store_true",
                       help="use the small/CI configuration")
    p_exp.add_argument("--out", default=None,
                       help="with 'all': write a markdown report here")

    p_desc = sub.add_parser("describe", help="summarize a trace CSV")
    p_desc.add_argument("trace", help="price-history CSV")

    p_opt = sub.add_parser(
        "options", help="compare all four purchasing options for a job"
    )
    p_opt.add_argument("trace", help="price-history CSV")
    p_opt.add_argument("--hours", type=_positive_float, default=1.0)
    p_opt.add_argument("--recovery-seconds", type=_nonnegative_float, default=30.0)
    p_opt.add_argument("--ondemand", type=float, default=None)

    p_mr = sub.add_parser("mapreduce", help="plan a MapReduce cluster bid")
    p_mr.add_argument("--master", default="m3.xlarge")
    p_mr.add_argument("--slave", default="c3.4xlarge")
    p_mr.add_argument("--hours", type=_positive_float, default=16.0,
                      help="total execution time t_s")
    p_mr.add_argument("--slaves", type=_positive_int, default=6, help="slave count M")
    p_mr.add_argument("--recovery-seconds", type=_nonnegative_float, default=30.0)
    p_mr.add_argument("--overhead-seconds", type=_nonnegative_float, default=60.0)
    p_mr.add_argument("--seed", type=int, default=0)

    p_chaos = sub.add_parser(
        "chaos", help="stress a bid under injected market faults"
    )
    p_chaos.add_argument(
        "trace", help="price-history CSV (split into history and future)"
    )
    p_chaos.add_argument("--hours", type=_positive_float, default=1.0, help="t_s")
    p_chaos.add_argument(
        "--recovery-seconds", type=_nonnegative_float, default=30.0
    )
    p_chaos.add_argument("--ondemand", type=float, default=None)
    p_chaos.add_argument(
        "--strategy", choices=("one-time", "persistent", "percentile"),
        default="persistent",
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--intensity", type=_positive_float, default=1.0,
        help="how hard each fault class hits (1.0 = default calibration)",
    )
    p_chaos.add_argument(
        "--split", type=_positive_float, default=0.67,
        help="fraction of the trace used as history; the rest is the "
        "future the bid is stressed on",
    )
    p_chaos.add_argument(
        "--classes", nargs="+", choices=_FAULT_CLASSES, default=None,
        help="fault classes to run (default: all)",
    )
    p_chaos.add_argument(
        "--starts", type=_positive_int, default=8,
        help="number of start slots sampled across the future",
    )
    p_chaos.add_argument(
        "--mapreduce", action="store_true",
        help="stress a §6.2 master+slaves plan (eq. 20) instead of a "
        "single-instance bid; --hours becomes the total cluster work",
    )
    p_chaos.add_argument(
        "--slave-trace", default=None, metavar="PATH",
        help="price-history CSV for the slave market (default: the "
        "master's trace); only with --mapreduce",
    )
    p_chaos.add_argument(
        "--slaves", type=_positive_int, default=6,
        help="slave count M for --mapreduce (default 6)",
    )
    p_chaos.add_argument(
        "--kill-workers", action="store_true",
        help="process-level chaos instead of market faults: run the "
        "sweep on the work-stealing pool while seeded faults kill, "
        "stall, and slow-start workers, then check the results are "
        "bitwise identical to the fault-free run",
    )
    p_chaos.add_argument(
        "--workers", type=_positive_int, default=2,
        help="pool size for --kill-workers (default 2)",
    )

    p_bench = sub.add_parser(
        "bench",
        help="benchmark each batched kernel against its scalar oracle "
        "and gate regressions",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="run only the small smoke cases (CI default)",
    )
    p_bench.add_argument(
        "--cases", nargs="+", default=None, metavar="NAME",
        help="explicit benchmark case names (overrides --quick)",
    )
    p_bench.add_argument(
        "--filter", default=None, metavar="GLOB", dest="filter_pattern",
        help="select cases by glob, e.g. 'mapreduce_*' (overrides "
        "--quick; mutually exclusive with --cases)",
    )
    p_bench.add_argument(
        "--repeats", type=_positive_int, default=None,
        help="timed repetitions per kernel (best-of; default 3, quick 5)",
    )
    p_bench.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the BENCH_*.json report here",
    )
    p_bench.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="compare against this committed report and fail on regression",
    )
    p_bench.add_argument(
        "--tolerance", type=_positive_float, default=None,
        help="allowed fractional speedup drop vs baseline (default 0.2)",
    )
    p_bench.add_argument(
        "--list", action="store_true", dest="list_cases",
        help="list available cases and exit",
    )

    p_serve = sub.add_parser(
        "serve", help="run the live bid-decision daemon on a price trace"
    )
    p_serve.add_argument("trace", help="bootstrap price-history CSV")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7787,
        help="TCP port (default: %(default)s; 0 = ephemeral)",
    )
    p_serve.add_argument("--ondemand", type=float, default=None)
    p_serve.add_argument(
        "--grid", type=_grid_shape, default=None, metavar="NxM",
        help="bid-table grid shape (default: 32x8)",
    )
    p_serve.add_argument(
        "--source", choices=("iid", "replay"), default="iid",
        help="price feed after bootstrap: iid draws from the trace's "
        "distribution (endless), or replay of the trace remainder "
        "(exhaustion then exercises the degradation path)",
    )
    p_serve.add_argument(
        "--split", type=_positive_float, default=0.8,
        help="with --source replay: fraction of the trace used as the "
        "bootstrap window",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--rebuild-every", type=_positive_int, default=12,
        help="rebuild tables every N ingested slots",
    )
    p_serve.add_argument(
        "--stale-slots", type=_positive_int, default=SLOTS_PER_DAY,
        help="table staleness TTL in ingested slots "
        "(default: %(default)s, one day)",
    )
    p_serve.add_argument(
        "--cache-size", type=_positive_int, default=None,
        help="decision-cache capacity (default: 4096)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="enable the persistent file cache tier under this directory",
    )
    p_serve.add_argument(
        "--interval", type=_nonnegative_float, default=0.0,
        help="seconds between ingest pulls (0 = as fast as the source)",
    )
    p_serve.add_argument(
        "--max-slots", type=_positive_int, default=None,
        help="stop ingesting after this many slots (serving continues)",
    )
    p_serve.add_argument(
        "--smoke", type=_positive_int, default=None, metavar="N",
        help="smoke mode: boot on an ephemeral port, fire N loadgen "
        "requests in-process, print the report and exit",
    )
    p_serve.add_argument(
        "--smoke-connections", type=_positive_int, default=2,
        help="loadgen connections in smoke mode",
    )
    p_serve.add_argument(
        "--smoke-pipeline", type=_positive_int, default=8,
        help="requests in flight per connection in smoke mode",
    )
    p_serve.add_argument(
        "--p99-ms", type=_positive_float, default=50.0,
        help="smoke mode fails if p99 latency exceeds this bound",
    )
    p_serve.add_argument(
        "--hist-out", default=None, metavar="PATH",
        help="smoke mode: write the latency report JSON here",
    )

    p_load = sub.add_parser(
        "loadgen", help="fire a deterministic request stream at a daemon"
    )
    p_load.add_argument(
        "trace", help="price-history CSV fixing slot length and job grid"
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, required=True)
    p_load.add_argument(
        "-n", "--requests", type=_positive_int, default=1000, dest="requests"
    )
    p_load.add_argument("--connections", type=_positive_int, default=4)
    p_load.add_argument(
        "--pipeline", type=_positive_int, default=32,
        help="requests in flight per connection",
    )
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--grid", type=_grid_shape, default=None, metavar="NxM",
        help="job grid the request mix is drawn from (default: 32x8)",
    )
    p_load.add_argument(
        "--on-grid-fraction", type=_nonnegative_float, default=0.5,
        help="fraction of requests landing exactly on grid points",
    )
    p_load.add_argument(
        "--hist-out", default=None, metavar="PATH",
        help="write the latency report JSON here",
    )

    p_check = sub.add_parser(
        "check",
        help="run the repo-aware static-analysis suite (repro.checks)",
    )
    from .checks.cli import add_arguments as _add_check_arguments

    _add_check_arguments(p_check)

    sub.add_parser("catalog", help="list built-in instance types")
    return parser


def _resolve_ondemand(explicit: Optional[float], instance_type: Optional[str]) -> float:
    if explicit is not None:
        if explicit <= 0:
            raise ReproError(f"--ondemand must be positive, got {explicit!r}")
        return explicit
    if instance_type is not None and instance_type in CATALOG:
        return CATALOG[instance_type].on_demand_price
    raise ReproError(
        "on-demand price unknown: pass --ondemand or use a trace whose "
        "instance type is in the catalog"
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    itype = get_instance_type(args.instance_type)
    rng = np.random.default_rng(args.seed)
    generators = {
        "equilibrium": generate_equilibrium_history,
        "renewal": generate_renewal_history,
        "correlated": generate_correlated_history,
        "provider": generate_provider_history,
    }
    history = generators[args.model](itype, days=args.days, rng=rng)
    trace_io.write_csv(history, args.out)
    print(
        f"wrote {history.n_slots} slots ({args.days:g} days) of {itype.name} "
        f"prices to {args.out}"
    )
    return 0


def _print_decision(label: str, decision) -> None:
    parts = [f"{label:12s} bid=${decision.price:.4f}/h"]
    parts.append(f"expected cost=${decision.expected_cost:.4f}")
    if decision.expected_completion_time is not None:
        parts.append(f"expected T={decision.expected_completion_time:.2f}h")
    if decision.acceptance_probability is not None:
        parts.append(f"F(p)={decision.acceptance_probability:.3f}")
    if isinstance(decision, PortfolioDecision):
        parts.append(f"spot fraction={decision.spot_fraction:.2f}")
        parts.append(f"Var(price)={decision.price_variance:.3e}")
    elif isinstance(decision, CvarDecision):
        parts.append(
            f"CVaR_{decision.alpha:g}=${decision.cvar:.4f} "
            f"({decision.n_windows} windows)"
        )
    print("  ".join(parts))


def _cmd_bid(args: argparse.Namespace) -> int:
    history = trace_io.read_csv(args.trace)
    ondemand = _resolve_ondemand(args.ondemand, history.instance_type)
    client = BiddingClient(history, ondemand_price=ondemand)
    job = JobSpec(
        execution_time=args.hours,
        recovery_time=seconds(args.recovery_seconds),
        slot_length=history.slot_length,
    )
    strategies = (
        # The paper's three; portfolio/cvar are opt-in extensions.
        (Strategy.ONE_TIME, Strategy.PERSISTENT, Strategy.PERCENTILE)
        if args.strategy == "all"
        else (Strategy(args.strategy),)
    )
    print(
        f"job: t_s={args.hours:g}h t_r={args.recovery_seconds:g}s  "
        f"on-demand=${ondemand:.4f}/h  history={history.n_slots} slots"
    )
    for strategy in strategies:
        response = client.decide(
            DecisionRequest(
                job=job,
                strategy=strategy,
                percentile=args.percentile,
                max_variance=args.max_variance,
                cvar_alpha=args.cvar_alpha,
            )
        )
        _print_decision(str(strategy), response.decision)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    history = trace_io.read_csv(args.trace)
    ondemand = _resolve_ondemand(args.ondemand, history.instance_type)
    pareto, exponential = fit_both_families(
        history.prices, ondemand, bins=args.bins, jacobian=args.jacobian
    )
    print(
        f"pareto:      beta={pareto.beta:.4f} theta={pareto.theta:.3f} "
        f"alpha={pareto.alpha:.3f} floor_mass={pareto.floor_mass:.3f} "
        f"mse={pareto.mse_mass:.3e}"
    )
    print(
        f"exponential: beta={exponential.beta:.4f} theta={exponential.theta:.3f} "
        f"eta={exponential.eta:.3e} floor_mass={exponential.floor_mass:.3f} "
        f"mse={exponential.mse_mass:.3e}"
    )
    return 0


def _cmd_backtest(args: argparse.Namespace) -> int:
    history = trace_io.read_csv(args.history)
    future = trace_io.read_csv(args.future)
    ondemand = _resolve_ondemand(args.ondemand, history.instance_type)
    client = BiddingClient(history, ondemand_price=ondemand)
    job = JobSpec(
        execution_time=args.hours,
        recovery_time=seconds(args.recovery_seconds),
        slot_length=history.slot_length,
    )
    report = client.backtest(
        job, future, strategy=Strategy(args.strategy), start_slot=args.start_slot
    )
    _print_decision(args.strategy, report.decision)
    o = report.outcome
    status = "completed" if o.completed else f"NOT completed ({o.state})"
    time_str = f"{o.completion_time:.2f}h" if o.completion_time is not None else "n/a"
    print(
        f"outcome: {status}  cost=${o.cost:.4f}  T={time_str}  "
        f"interruptions={o.interruptions}  idle={o.idle_time:.2f}h"
    )
    print(
        f"vs on-demand ${client.ondemand_cost(job):.4f}: "
        f"savings {1 - o.cost / client.ondemand_cost(job):.1%}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import run_sweep

    history = trace_io.read_csv(args.history)
    futures = [trace_io.read_csv(path) for path in args.futures]
    job = JobSpec(
        execution_time=args.hours,
        recovery_time=seconds(args.recovery_seconds),
        slot_length=history.slot_length,
    )
    strategy = Strategy(args.strategy)
    if strategy.sweepable:
        low = args.low if args.low is not None else float(history.prices.min())
        high = args.high if args.high is not None else float(history.prices.max())
        if not high >= low:
            raise ReproError(f"--high ({high:g}) must be >= --low ({low:g})")
        bids = np.linspace(low, high, args.bids)
    else:
        # Selection strategies pick one price from the history, which is
        # then scored on the futures as a persistent request.
        ondemand = _resolve_ondemand(args.ondemand, history.instance_type)
        client = BiddingClient(history, ondemand_price=ondemand)
        response = client.respond(
            DecisionRequest(
                job=job,
                strategy=strategy,
                max_variance=args.max_variance,
                cvar_alpha=args.cvar_alpha,
            )
        )
        _print_decision(str(strategy), response.decision)
        bids = np.asarray([response.decision.price])
        strategy = Strategy.PERSISTENT
    report = run_sweep(
        futures,
        bids,
        job,
        strategy=strategy,
        start_slots=args.start_slot,
        max_workers=args.workers,
    )
    print(
        f"sweep: {report.counters.n_traces} trace(s) x "
        f"{report.counters.n_bids} bids ({report.counters.cells} cells), "
        f"{report.counters.slots_simulated} slots in "
        f"{report.counters.kernel_seconds * 1e3:.1f} ms"
    )
    print(f"{'bid $/h':>9s} {'done':>6s} {'mean $':>9s} {'mean intr':>9s}")
    rates = report.completion_rate()
    for j, bid in enumerate(report.bids):
        print(
            f"{bid:9.4f} {rates[j]:6.2f} {report.mean_cost()[j]:9.4f} "
            f"{report.interruptions[:, j].mean():9.2f}"
        )
    best = report.best_bid_index()
    print(f"best bid: ${report.bids[best]:.4f}/h "
          f"(mean cost ${report.mean_cost()[best]:.4f}, "
          f"completion rate {rates[best]:.0%})")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import experiments

    modules = {
        "fig3": experiments.fig3_price_pdf,
        "fig4": experiments.fig4_job_timeline,
        "table3": experiments.table3_bid_prices,
        "fig5": experiments.fig5_onetime_costs,
        "fig6": experiments.fig6_persistent_vs_onetime,
        "table4": experiments.table4_mapreduce_plans,
        "fig7": experiments.fig7_mapreduce_costs,
        "prop12": experiments.queue_stability,
    }
    config = experiments.FAST_CONFIG if args.fast else experiments.FULL_CONFIG
    if args.name == "all":
        from .experiments.report import generate_report

        report = generate_report(config)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(report)
            print(f"wrote report to {args.out}")
        else:
            print(report)
        return 0
    result = modules[args.name].run(config)
    if hasattr(result, "table"):
        print(result.table())
    if args.name == "fig4":
        print(
            f"bid={result.bid_price:.4f} interruptions="
            f"{result.outcome.interruptions}"
        )
        print(result.ascii_timeline())
    return 0


def _cmd_mapreduce(args: argparse.Namespace) -> int:
    from .core.mapreduce import plan_master_slave
    from .core.types import MapReduceJobSpec
    from .mapreduce.runner import ondemand_baseline
    from .traces.generator import generate_equilibrium_history

    master_t = get_instance_type(args.master)
    slave_t = get_instance_type(args.slave)
    rng = np.random.default_rng(args.seed)
    master_hist = generate_equilibrium_history(master_t, days=60, rng=rng)
    slave_hist = generate_equilibrium_history(slave_t, days=60, rng=rng)
    job = MapReduceJobSpec(
        execution_time=args.hours,
        num_slaves=args.slaves,
        overhead_time=seconds(args.overhead_seconds),
        recovery_time=seconds(args.recovery_seconds),
    )
    plan = plan_master_slave(
        master_hist.to_distribution(), slave_hist.to_distribution(), job,
        master_ondemand=master_t.on_demand_price,
        slave_ondemand=slave_t.on_demand_price,
    )
    baseline = ondemand_baseline(
        job, master_t.on_demand_price, slave_t.on_demand_price
    )
    print(f"job: t_s={args.hours:g}h M={args.slaves} "
          f"t_r={args.recovery_seconds:g}s t_o={args.overhead_seconds:g}s")
    print(f"master ({master_t.name}):  one-time bid ${plan.master_bid.price:.4f}/h")
    print(f"slaves ({slave_t.name}): persistent bid ${plan.slave_bid.price:.4f}/h")
    print(f"minimum viable slaves (eq. 20): {plan.min_slaves}")
    print(f"expected spot cost:  ${plan.total_expected_cost:.3f}")
    print(f"on-demand baseline:  ${baseline.total_cost:.3f} "
          f"({1 - plan.total_expected_cost / baseline.total_cost:.1%} cheaper)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .resilience import run_chaos

    trace = trace_io.read_csv(args.trace)
    ondemand = _resolve_ondemand(args.ondemand, trace.instance_type)
    if not args.split < 1.0:
        raise ReproError(
            f"--split must be below 1 to leave a future to stress, "
            f"got {args.split:g}"
        )
    if args.slave_trace is not None and not args.mapreduce:
        raise ReproError("--slave-trace requires --mapreduce")
    if args.kill_workers and args.mapreduce:
        raise ReproError("--kill-workers and --mapreduce are exclusive")
    split_slot = max(1, min(trace.n_slots - 1, int(trace.n_slots * args.split)))
    history = trace.slice_slots(0, split_slot)
    future = trace.slice_slots(split_slot, trace.n_slots)
    if args.mapreduce:
        return _chaos_mapreduce(args, trace, history, future, ondemand)
    job = JobSpec(
        execution_time=args.hours,
        recovery_time=seconds(args.recovery_seconds),
        slot_length=trace.slot_length,
    )
    if args.kill_workers:
        return _chaos_workers(args, history, future, job, ondemand)
    report = run_chaos(
        history,
        future,
        job,
        ondemand_price=ondemand,
        strategy=Strategy(args.strategy),
        seed=args.seed,
        intensity=args.intensity,
        n_starts=args.starts,
        classes=args.classes,
    )
    print(
        f"chaos: {len(report.results)} fault class(es) on "
        f"{future.n_slots} future slots (seed {args.seed}, "
        f"intensity {args.intensity:g})"
    )
    print(report.table())
    return 0


def _chaos_workers(args, history, future, job, ondemand):
    from .resilience import run_worker_chaos

    report = run_worker_chaos(
        history,
        future,
        job,
        ondemand_price=ondemand,
        strategy=Strategy(args.strategy),
        seed=args.seed,
        n_starts=args.starts,
        max_workers=args.workers,
    )
    print(report.table())
    return 0 if report.bitwise_identical else 1


def _chaos_mapreduce(args, master_trace, master_history, master_future, ondemand):
    from .core.mapreduce import plan_master_slave
    from .core.types import MapReduceJobSpec
    from .resilience import run_mapreduce_chaos

    if args.slave_trace is not None:
        slave_trace = trace_io.read_csv(args.slave_trace)
        if slave_trace.slot_length != master_trace.slot_length:
            raise ReproError(
                "--slave-trace must share the master trace's slot length"
            )
        slave_ondemand = _resolve_ondemand(
            args.ondemand, slave_trace.instance_type
        )
        split = max(
            1,
            min(
                slave_trace.n_slots - 1,
                int(slave_trace.n_slots * args.split),
            ),
        )
        slave_history = slave_trace.slice_slots(0, split)
        slave_future = slave_trace.slice_slots(split, slave_trace.n_slots)
    else:
        slave_ondemand = ondemand
        slave_history, slave_future = master_history, master_future

    job = MapReduceJobSpec(
        execution_time=args.hours,
        num_slaves=args.slaves,
        recovery_time=seconds(args.recovery_seconds),
        slot_length=master_trace.slot_length,
    )
    plan = plan_master_slave(
        master_history.to_distribution(),
        slave_history.to_distribution(),
        job,
        master_ondemand=ondemand,
        slave_ondemand=slave_ondemand,
    )
    report = run_mapreduce_chaos(
        plan,
        master_future,
        slave_future,
        reference_price=max(ondemand, slave_ondemand),
        seed=args.seed,
        intensity=args.intensity,
        n_starts=args.starts,
        classes=args.classes,
    )
    print(
        f"mapreduce chaos: {len(report.results)} fault class(es) on "
        f"{master_future.n_slots} future slots (seed {args.seed}, "
        f"intensity {args.intensity:g})"
    )
    print(report.table())
    return 0


def _cmd_options(args: argparse.Namespace) -> int:
    from .extensions.spot_blocks import compare_purchasing_options

    history = trace_io.read_csv(args.trace)
    ondemand = _resolve_ondemand(args.ondemand, history.instance_type)
    job = JobSpec(
        execution_time=args.hours,
        recovery_time=seconds(args.recovery_seconds),
        slot_length=history.slot_length,
    )
    options = compare_purchasing_options(
        history.to_distribution(), job, ondemand
    )
    print(f"job: t_s={args.hours:g}h t_r={args.recovery_seconds:g}s  "
          f"on-demand=${ondemand:.4f}/h")
    print(f"{'option':12s} {'price $/h':>10s} {'expected $':>11s} "
          f"{'T (h)':>7s} {'P(done)':>8s}")
    for option in options:
        print(
            f"{option.name:12s} {option.price:10.4f} "
            f"{option.expected_cost:11.4f} "
            f"{option.expected_completion_time:7.2f} "
            f"{option.completion_probability:8.2f}"
        )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from .analysis.trace_stats import describe_history

    history = trace_io.read_csv(args.trace)
    label = history.instance_type or "unlabeled trace"
    print(f"{label} — {args.trace}")
    print(describe_history(history).render())
    return 0


def _cmd_catalog(_args: argparse.Namespace) -> int:
    print(f"{'type':12s} {'vCPU':>4s} {'mem GiB':>8s} {'on-demand':>10s} {'floor':>8s}")
    for name in sorted(CATALOG):
        it = CATALOG[name]
        print(
            f"{it.name:12s} {it.vcpus:4d} {it.memory_gib:8.1f} "
            f"{it.on_demand_price:10.4f} {it.market.pi_min:8.4f}"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .bench import (
        CASES,
        compare_reports,
        quick_case_names,
        run_benchmarks,
    )
    from .bench.compare import DEFAULT_TOLERANCE

    if args.list_cases:
        quick = set(quick_case_names())
        for case in CASES:
            tag = " (quick)" if case.name in quick else ""
            print(
                f"{case.name:20s} {case.label:10s} "
                f"{case.n_traces}x{case.n_slots}x{case.n_bids}{tag}"
            )
        return 0

    if args.cases and args.filter_pattern:
        raise ReproError("--cases and --filter are mutually exclusive")

    try:
        report = run_benchmarks(
            cases=args.cases,
            quick=args.quick,
            pattern=args.filter_pattern,
            repeats=args.repeats,
            progress=print,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")

    broken = [row["name"] for row in report["cases"] if not row["bitwise_equal"]]
    if broken:
        print(
            f"error: event kernels diverged from their oracles on: "
            f"{', '.join(broken)}",
            file=sys.stderr,
        )
        return 1

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        tolerance = (
            args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        )
        try:
            regressions = compare_reports(
                report, baseline, tolerance=tolerance
            )
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        if regressions:
            for regression in regressions:
                print(f"regression: {regression}", file=sys.stderr)
            return 1
        print(
            f"no regressions vs {args.baseline} "
            f"(tolerance {tolerance:.0%})"
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks.cli import run_check

    return run_check(args)


def _print_load_report(report, *, hist_out: Optional[str] = None) -> None:
    import json

    print(
        f"requests={report.n_requests} errors={report.errors} "
        f"qps={report.qps:.0f} p50={report.p50_ms:.3f}ms "
        f"p99={report.p99_ms:.3f}ms over {report.duration_s:.2f}s"
    )
    if hist_out:
        with open(hist_out, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {hist_out}")


def _build_serve_service(args: argparse.Namespace):
    """Shared setup of the serve command: market state + service."""
    from .core.distcache import cached_distribution
    from .market.price_sources import IIDPriceSource, TracePriceSource
    from .serve import BidService, DecisionCache, MarketState, default_grid
    from .serve.cache import DEFAULT_CAPACITY
    from .serve.tables import DEFAULT_GRID_SHAPE

    history = trace_io.read_csv(args.trace)
    ondemand = _resolve_ondemand(args.ondemand, history.instance_type)
    if args.source == "replay":
        boot_slots = int(history.n_slots * min(args.split, 1.0))
        if not 2 <= boot_slots < history.n_slots:
            raise ReproError(
                f"--split {args.split!r} leaves no bootstrap window or no "
                f"future to replay in a {history.n_slots}-slot trace"
            )
        boot = history.slice_slots(0, boot_slots)
        source = TracePriceSource(history, start_slot=boot_slots)
    else:
        boot = history
        source = IIDPriceSource(
            cached_distribution(history), np.random.default_rng(args.seed)
        )
    grid = default_grid(
        shape=DEFAULT_GRID_SHAPE if args.grid is None else args.grid,
        slot_length=boot.slot_length,
    )
    state = MarketState(
        source,
        initial_history=boot,
        ondemand_price=ondemand,
        grid=grid,
        rebuild_every=args.rebuild_every,
    )
    cache = DecisionCache(
        capacity=DEFAULT_CAPACITY if args.cache_size is None else args.cache_size,
        directory=args.cache_dir,
    )
    service = BidService(state, cache=cache, stale_after=args.stale_slots)
    return service, state, grid


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import IngestLoop, build_requests, run_loadgen, start_server

    service, state, grid = _build_serve_service(args)

    if args.smoke is not None:

        async def _smoke() -> int:
            server = await start_server(service, host=args.host, port=0)
            port = server.sockets[0].getsockname()[1]
            requests = build_requests(
                args.smoke,
                grid=grid,
                slot_length=state.history().slot_length,
                rng=np.random.default_rng(args.seed),
            )
            # Warm the tables/cache path before the measured run.
            warm = requests[: min(len(requests), 100)]
            await run_loadgen(
                args.host, port, warm,
                connections=1, pipeline=args.smoke_pipeline,
            )
            report = await run_loadgen(
                args.host, port, requests,
                connections=args.smoke_connections,
                pipeline=args.smoke_pipeline,
            )
            server.close()
            await server.wait_closed()
            _print_load_report(report, hist_out=args.hist_out)
            if report.errors:
                print(f"error: {report.errors} failed requests", file=sys.stderr)
                return 1
            if report.p99_ms > args.p99_ms:
                print(
                    f"error: p99 {report.p99_ms:.3f}ms exceeds the "
                    f"{args.p99_ms:g}ms bound",
                    file=sys.stderr,
                )
                return 1
            return 0

        return asyncio.run(_smoke())

    async def _run() -> None:
        server = await start_server(
            service,
            host=args.host,
            port=args.port,
            ingest=IngestLoop(state, interval=args.interval),
            max_ingest_slots=args.max_slots,
        )
        bound = server.sockets[0].getsockname()[1]
        print(
            f"serving {state.instance_type or 'trace'} on "
            f"{args.host}:{bound}  table={state.tables.version}  "
            f"grid={grid.shape[0]}x{grid.shape[1]}"
        )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import build_requests, default_grid, run_loadgen
    from .serve.tables import DEFAULT_GRID_SHAPE

    history = trace_io.read_csv(args.trace)
    grid = default_grid(
        shape=DEFAULT_GRID_SHAPE if args.grid is None else args.grid,
        slot_length=history.slot_length,
    )
    on_grid = args.on_grid_fraction
    if on_grid > 1.0:
        raise ReproError(
            f"--on-grid-fraction must be within [0, 1], got {on_grid!r}"
        )
    requests = build_requests(
        args.requests,
        grid=grid,
        slot_length=history.slot_length,
        rng=np.random.default_rng(args.seed),
        on_grid_fraction=on_grid,
    )
    report = asyncio.run(
        run_loadgen(
            args.host,
            args.port,
            requests,
            connections=args.connections,
            pipeline=args.pipeline,
        )
    )
    _print_load_report(report, hist_out=args.hist_out)
    return 1 if report.errors else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "trace": _cmd_trace,
        "bid": _cmd_bid,
        "fit": _cmd_fit,
        "backtest": _cmd_backtest,
        "sweep": _cmd_sweep,
        "experiment": _cmd_experiment,
        "describe": _cmd_describe,
        "options": _cmd_options,
        "mapreduce": _cmd_mapreduce,
        "chaos": _cmd_chaos,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "check": _cmd_check,
        "catalog": _cmd_catalog,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
