"""Batched evaluation kernels for the Section 8 extensions.

Every extension module used to evaluate its candidate grid with a scalar
Python loop.  This module batches those loops over bid-grid ×
job/trace stacks, mirroring the ``repro.sweep.kernels`` /
``repro.mapreduce.kernels`` pattern: each kernel has a retained scalar
``*_reference`` oracle that reproduces the original per-candidate
arithmetic operation for operation, and the randomized equivalence suite
(``tests/test_ext_kernels.py``) asserts bitwise equality between the two
on every output array.  The extensions always call the vectorized
kernels; the oracles run only where the two are compared — the tests
and ``repro-bid bench``, which finds each pair in :data:`_EXT_KERNELS`.

The vectorized kernels reach bitwise equality by evaluating the *same*
float64 operations in the *same* order as the scalar code, elementwise:
``cdf_array``/``partial_expectation_array``/``partial_second_moment_array``
are elementwise-identical to their scalar counterparts on the empirical
distribution, numpy's ``sqrt`` and scipy's ``norm.sf`` ufuncs match the
scalar calls, and tie-breaks use ``argmin``/``argmax`` first-occurrence
semantics which coincide with the scalar strict-inequality scans.
``log1p`` is the one exception — numpy's ufunc differs from
``math.log1p`` in the last ulp on some platforms — so the collective
kernel keeps the scalar transcendental in both lanes and vectorizes only
the mixture-fraction accumulation.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from ..core.distributions import PriceDistribution
from ..core.types import JobSpec
from ..errors import DistributionError, PlanError

__all__ = [
    "risk_scan_kernel",
    "risk_scan_kernel_reference",
    "deadline_scan_kernel",
    "deadline_scan_kernel_reference",
    "checkpoint_grid_kernel",
    "checkpoint_grid_kernel_reference",
    "persistence_grid_kernel",
    "persistence_grid_kernel_reference",
    "block_grid_kernel",
    "block_grid_kernel_reference",
    "collective_slot_kernel",
    "collective_slot_kernel_reference",
    "dag_grid_kernel",
    "dag_grid_kernel_reference",
    "portfolio_grid_kernel",
    "portfolio_grid_kernel_reference",
    "extension_kernel_pair",
]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def _require_progress(job: JobSpec) -> None:
    """Same guard (and message) as :func:`repro.core.costs.
    persistent_running_time`: the job must outlast one recovery."""
    if job.execution_time <= job.recovery_time:
        raise ValueError(
            f"persistent model needs execution_time > recovery_time, got "
            f"t_s={job.execution_time} <= t_r={job.recovery_time}"
        )


def _accept_values(dist: PriceDistribution, prices: np.ndarray) -> np.ndarray:
    """``F(p)`` per candidate — vectorized when the distribution offers
    ``cdf_array`` (elementwise-identical to ``cdf``), scalar otherwise."""
    fn = getattr(dist, "cdf_array", None)
    if fn is not None:
        return np.asarray(fn(prices), dtype=np.float64)
    return np.array([dist.cdf(float(p)) for p in prices], dtype=np.float64)


def _below_values(dist: PriceDistribution, prices: np.ndarray) -> np.ndarray:
    """``S(p) = E[π·1(π≤p)]`` per candidate."""
    fn = getattr(dist, "partial_expectation_array", None)
    if fn is not None:
        return np.asarray(fn(prices), dtype=np.float64)
    return np.array(
        [dist.partial_expectation(float(p)) for p in prices], dtype=np.float64
    )


def _second_below(dist: PriceDistribution, price: float) -> float:
    """Scalar unconditioned second moment below ``price`` — the same
    computation :func:`repro.extensions.risk.conditional_price_variance`
    performs (numeric integration when the distribution lacks
    ``partial_second_moment``)."""
    fn = getattr(dist, "partial_second_moment", None)
    if fn is not None:
        return fn(price)
    from scipy import integrate

    hi = min(price, dist.upper)
    raw, _err = integrate.quad(
        lambda x: x * x * dist.pdf(x), dist.lower, hi, limit=200
    )
    return raw


def _second_values(dist: PriceDistribution, prices: np.ndarray) -> np.ndarray:
    """``E[π²·1(π≤p)]`` per candidate."""
    fn = getattr(dist, "partial_second_moment_array", None)
    if fn is not None:
        return np.asarray(fn(prices), dtype=np.float64)
    return np.array([_second_below(dist, float(p)) for p in prices], dtype=np.float64)


# ----------------------------------------------------------------------
# Risk: variance-bounded persistent scan (risk.variance_bounded_bid)
# ----------------------------------------------------------------------

def risk_scan_kernel_reference(
    dist: PriceDistribution, candidates: np.ndarray, job: JobSpec
) -> Dict[str, np.ndarray]:
    """Scalar oracle: per-candidate acceptance, eq. 15 cost, and
    conditional price variance, with ``inf`` marking infeasible cells
    (``F(p) = 0`` or eq. 14 violated)."""
    _require_progress(job)
    n = len(candidates)
    accept = np.empty(n)
    cost = np.empty(n)
    variance = np.empty(n)
    r = job.recovery_time / job.slot_length
    for i, p in enumerate(candidates):
        p = float(p)
        a = dist.cdf(p)
        accept[i] = a
        if a <= 0.0:
            cost[i] = math.inf
            variance[i] = math.inf
            continue
        below = dist.partial_expectation(p)
        mean = below / a
        second = _second_below(dist, p) / a
        variance[i] = max(0.0, second - mean * mean)
        denom = 1.0 - r * (1.0 - a)
        if denom <= 0.0:
            cost[i] = math.inf
        else:
            running = (job.execution_time - job.recovery_time) / denom
            cost[i] = running * below / a
    return {"accept": accept, "cost": cost, "variance": variance}


def risk_scan_kernel(
    dist: PriceDistribution, candidates: np.ndarray, job: JobSpec
) -> Dict[str, np.ndarray]:
    """Vectorized risk scan — one pass over the candidate grid."""
    _require_progress(job)
    prices = np.asarray(candidates, dtype=np.float64)
    accept = _accept_values(dist, prices)
    below = _below_values(dist, prices)
    second_raw = _second_values(dist, prices)
    r = job.recovery_time / job.slot_length
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = below / accept
        second = second_raw / accept
        variance = np.maximum(0.0, second - mean * mean)
        denom = 1.0 - r * (1.0 - accept)
        running = (job.execution_time - job.recovery_time) / denom
        cost = running * below / accept
    infeasible = accept <= 0.0
    cost = np.where(infeasible | (denom <= 0.0), np.inf, cost)
    variance = np.where(infeasible, np.inf, variance)
    return {"accept": accept, "cost": cost, "variance": variance}


# ----------------------------------------------------------------------
# Risk: deadline chance constraint (risk.deadline_chance_bid)
# ----------------------------------------------------------------------

def deadline_scan_kernel_reference(
    dist: PriceDistribution,
    candidates: np.ndarray,
    job: JobSpec,
    deadline: float,
) -> Dict[str, np.ndarray]:
    """Scalar oracle: per-candidate miss probability under the normal
    approximation of :func:`repro.extensions.risk.
    deadline_miss_probability`."""
    if deadline <= 0:
        raise ValueError(f"deadline must be positive, got {deadline!r}")
    _require_progress(job)
    n_cand = len(candidates)
    accept = np.empty(n_cand)
    miss = np.empty(n_cand)
    r = job.recovery_time / job.slot_length
    n = deadline / job.slot_length
    for i, p in enumerate(candidates):
        p = float(p)
        a = dist.cdf(p)
        accept[i] = a
        if a <= 0.0:
            miss[i] = 1.0
            continue
        denom = 1.0 - r * (1.0 - a)
        if denom <= 0.0:
            miss[i] = 1.0
            continue
        needed_running = (job.execution_time - job.recovery_time) / denom
        needed_slots = needed_running / job.slot_length
        mean = n * a
        var = n * a * (1.0 - a)
        if var <= 0.0:
            miss[i] = 0.0 if mean >= needed_slots else 1.0
        else:
            miss[i] = float(stats.norm.sf((mean - needed_slots) / math.sqrt(var)))
    return {"accept": accept, "miss": miss}


def deadline_scan_kernel(
    dist: PriceDistribution,
    candidates: np.ndarray,
    job: JobSpec,
    deadline: float,
) -> Dict[str, np.ndarray]:
    """Vectorized deadline-miss scan: one batched ``norm.sf`` call."""
    if deadline <= 0:
        raise ValueError(f"deadline must be positive, got {deadline!r}")
    _require_progress(job)
    prices = np.asarray(candidates, dtype=np.float64)
    accept = _accept_values(dist, prices)
    r = job.recovery_time / job.slot_length
    n = deadline / job.slot_length
    denom = 1.0 - r * (1.0 - accept)
    mean = n * accept
    var = n * accept * (1.0 - accept)
    with np.errstate(divide="ignore", invalid="ignore"):
        running = (job.execution_time - job.recovery_time) / denom
        needed_slots = running / job.slot_length
        z = (mean - needed_slots) / np.sqrt(var)
        sf = stats.norm.sf(z)
    degenerate = np.where(mean >= needed_slots, 0.0, 1.0)
    miss = np.where(var <= 0.0, degenerate, sf)
    miss = np.where((accept <= 0.0) | (denom <= 0.0), 1.0, miss)
    return {"accept": accept, "miss": miss}


# ----------------------------------------------------------------------
# Checkpointing: conservative-cost grid (checkpointing.best_capped_bid /
# optimize_checkpoint_interval)
# ----------------------------------------------------------------------

def checkpoint_grid_kernel_reference(
    dist: PriceDistribution,
    candidates: np.ndarray,
    jobs: Sequence[JobSpec],
) -> Dict[str, np.ndarray]:
    """Scalar oracle: the conservative cost (eq. 15 with a
    non-negative recovery count — numerator ``t_s``, see
    :func:`repro.extensions.checkpointing.conservative_cost`) for every
    (effective job, candidate bid) cell."""
    cost = np.empty((len(jobs), len(candidates)))
    for i, job in enumerate(jobs):
        r = job.recovery_time / job.slot_length
        for j, p in enumerate(candidates):
            p = float(p)
            a = dist.cdf(p)
            if a <= 0.0:
                cost[i, j] = math.inf
                continue
            denom = 1.0 - r * (1.0 - a)
            if denom <= 0.0:
                cost[i, j] = math.inf
                continue
            running = job.execution_time / denom
            cost[i, j] = running * dist.partial_expectation(p) / a
    return {"cost": cost}


def checkpoint_grid_kernel(
    dist: PriceDistribution,
    candidates: np.ndarray,
    jobs: Sequence[JobSpec],
) -> Dict[str, np.ndarray]:
    """Vectorized conservative-cost grid: the candidate moments are
    computed once and reused across every checkpoint interval's
    effective job."""
    prices = np.asarray(candidates, dtype=np.float64)
    accept = _accept_values(dist, prices)
    below = _below_values(dist, prices)
    cost = np.empty((len(jobs), prices.size))
    for i, job in enumerate(jobs):
        r = job.recovery_time / job.slot_length
        denom = 1.0 - r * (1.0 - accept)
        with np.errstate(divide="ignore", invalid="ignore"):
            running = job.execution_time / denom
            row = running * below / accept
        cost[i] = np.where((accept <= 0.0) | (denom <= 0.0), np.inf, row)
    return {"cost": cost}


# ----------------------------------------------------------------------
# Correlated prices: lag-1 acceptance persistence over trace stacks
# (correlated.lag1_price_persistence)
# ----------------------------------------------------------------------

def persistence_grid_kernel_reference(
    prices: np.ndarray,
    bids: np.ndarray,
    n_valid: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Scalar oracle: :func:`repro.extensions.correlated.
    lag1_price_persistence` applied per (trace, bid) on the valid slice
    of each (possibly ragged, ``inf``-padded) trace row."""
    matrix = np.asarray(prices, dtype=np.float64)
    counts = _valid_counts(matrix, n_valid)
    rho = np.empty((matrix.shape[0], len(bids)))
    for t in range(matrix.shape[0]):
        arr = matrix[t, : counts[t]]
        for j, bid in enumerate(bids):
            accepted = arr <= float(bid)
            prior = accepted[:-1]
            if not prior.any():
                rho[t, j] = 0.0
            else:
                rho[t, j] = float(np.mean(accepted[1:][prior]))
    return {"rho": rho}


def persistence_grid_kernel(
    prices: np.ndarray,
    bids: np.ndarray,
    n_valid: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Vectorized persistence grid: per bid level, one boolean matrix
    pass counts joint and prior acceptances across all traces at once.
    Exact-integer counts divide to the same float64 the per-slice
    ``np.mean`` produces."""
    matrix = np.asarray(prices, dtype=np.float64)
    counts = _valid_counts(matrix, n_valid)
    n_traces, n_slots = matrix.shape
    cols = np.arange(n_slots - 1)
    prior_mask = cols[None, :] < (counts[:, None] - 1)
    rho = np.empty((n_traces, len(bids)))
    for j, bid in enumerate(bids):
        acc = matrix <= float(bid)
        prior = acc[:, :-1] & prior_mask
        joint = (prior & acc[:, 1:]).sum(axis=1)
        prior_count = prior.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = joint / prior_count
        rho[:, j] = np.where(prior_count > 0, ratio, 0.0)
    return {"rho": rho}


def _valid_counts(
    matrix: np.ndarray, n_valid: Optional[np.ndarray]
) -> np.ndarray:
    if matrix.ndim != 2:
        raise DistributionError("need a 2-D (trace, slot) price matrix")
    if n_valid is None:
        counts = np.full(matrix.shape[0], matrix.shape[1], dtype=np.int64)
    else:
        counts = np.asarray(n_valid, dtype=np.int64)
    if counts.shape != (matrix.shape[0],) or (counts > matrix.shape[1]).any():
        raise DistributionError("n_valid must give one count <= n_slots per trace")
    if (counts < 2).any():
        raise DistributionError("need a 1-D series with at least two prices")
    return counts


# ----------------------------------------------------------------------
# Spot blocks: block pricing over a job grid (spot_blocks.block_price /
# compare_purchasing_options)
# ----------------------------------------------------------------------

def _validate_block_inputs(
    ondemand_price: float, durations: Sequence[float]
) -> None:
    if ondemand_price <= 0:
        raise PlanError(f"ondemand_price must be positive, got {ondemand_price!r}")
    if len(durations) == 0:
        raise PlanError("need at least one block duration")
    for d in durations:
        if d <= 0:
            raise PlanError(f"duration must be positive, got {d!r}")


def _block_price_scalar(
    mean_spot: float,
    ondemand_price: float,
    duration: float,
    base_premium: float,
    premium_per_hour: float,
) -> float:
    premium_fraction = min(1.0, base_premium + premium_per_hour * duration)
    return min(
        ondemand_price,
        mean_spot + premium_fraction * (ondemand_price - mean_spot),
    )


def block_grid_kernel_reference(
    mean_spot: float,
    ondemand_price: float,
    durations: Sequence[float],
    execution_times: np.ndarray,
    *,
    base_premium: float = 0.05,
    premium_per_hour: float = 0.02,
) -> Dict[str, np.ndarray]:
    """Scalar oracle: per execution time, the chained spot-block cost and
    effective hourly price — the covering/chaining rule of
    :func:`repro.extensions.spot_blocks.compare_purchasing_options`."""
    _validate_block_inputs(ondemand_price, durations)
    durations = [float(d) for d in durations]
    n = len(execution_times)
    cost = np.empty(n)
    price = np.empty(n)
    for k, t in enumerate(execution_times):
        t = float(t)
        covering = [d for d in durations if d >= t]
        if covering:
            duration = min(covering)
            pr = _block_price_scalar(
                mean_spot, ondemand_price, duration, base_premium, premium_per_hour
            )
            c = pr * t
        else:
            longest = max(durations)
            n_full, remainder = divmod(t, longest)
            c = n_full * longest * _block_price_scalar(
                mean_spot, ondemand_price, longest, base_premium, premium_per_hour
            )
            if remainder > 1e-12:
                covering = [d for d in durations if d >= remainder]
                tail = min(covering) if covering else longest
                c += remainder * _block_price_scalar(
                    mean_spot, ondemand_price, tail, base_premium, premium_per_hour
                )
            pr = c / t
        cost[k] = c
        price[k] = pr
    return {"cost": cost, "price": price}


def block_grid_kernel(
    mean_spot: float,
    ondemand_price: float,
    durations: Sequence[float],
    execution_times: np.ndarray,
    *,
    base_premium: float = 0.05,
    premium_per_hour: float = 0.02,
) -> Dict[str, np.ndarray]:
    """Vectorized block grid: all duration premiums priced in one pass,
    covering durations found by ``searchsorted``.  Only the (rare) rows
    requiring block chaining keep the scalar ``divmod``, whose numpy
    counterpart is not guaranteed bit-identical."""
    _validate_block_inputs(ondemand_price, durations)
    d = np.sort(np.asarray(durations, dtype=np.float64))
    t = np.asarray(execution_times, dtype=np.float64)
    bp = np.minimum(
        ondemand_price,
        mean_spot
        + np.minimum(1.0, base_premium + premium_per_hour * d)
        * (ondemand_price - mean_spot),
    )
    idx = np.searchsorted(d, t, side="left")
    covered = idx < d.size
    cost = np.empty_like(t)
    price = np.empty_like(t)
    safe_idx = np.where(covered, idx, 0)
    covering_price = bp[safe_idx]
    price[covered] = covering_price[covered]
    cost[covered] = (covering_price * t)[covered]
    longest = float(d[-1])
    longest_price = float(bp[-1])
    for k in np.nonzero(~covered)[0]:
        tv = float(t[k])
        n_full, remainder = divmod(tv, longest)
        c = n_full * longest * longest_price
        if remainder > 1e-12:
            j = int(np.searchsorted(d, remainder, side="left"))
            tail_price = float(bp[j]) if j < d.size else longest_price
            c += remainder * tail_price
        cost[k] = c
        price[k] = c / tv
    return {"cost": cost, "price": price}


# ----------------------------------------------------------------------
# Collective bidding: per-slot provider price optimization
# (collective._simulate_prices)
# ----------------------------------------------------------------------

def collective_slot_kernel_reference(
    candidates: np.ndarray,
    strategic_bids: Sequence[float],
    weights: Sequence[float],
    background_weight: float,
    demand: float,
    *,
    beta: float,
    pi_bar: float,
    pi_min: float,
) -> Dict[str, np.ndarray]:
    """Scalar oracle: the provider's per-slot objective and accepted
    fraction at every candidate price, exactly as the original
    ``_accepted_fraction`` inner loop computed them."""
    n = len(candidates)
    objective = np.empty(n)
    fraction = np.empty(n)
    for i, p in enumerate(candidates):
        p = float(p)
        frac = background_weight * min(
            max((pi_bar - p) / (pi_bar - pi_min), 0.0), 1.0
        )
        for bid, w in zip(strategic_bids, weights):
            if bid >= p:
                frac += w
        count = demand * frac
        objective[i] = beta * math.log1p(count) + p * count
        fraction[i] = frac
    return {"objective": objective, "fraction": fraction}


def collective_slot_kernel(
    candidates: np.ndarray,
    strategic_bids: Sequence[float],
    weights: Sequence[float],
    background_weight: float,
    demand: float,
    *,
    beta: float,
    pi_bar: float,
    pi_min: float,
) -> Dict[str, np.ndarray]:
    """Vectorized slot objective: the background clip and each strategic
    atom accumulate elementwise in the same left-to-right order as the
    scalar loop.  ``log1p`` stays scalar in both lanes (numpy's ufunc is
    not bit-identical to ``math.log1p`` everywhere)."""
    cand = np.asarray(candidates, dtype=np.float64)
    frac = background_weight * np.minimum(
        np.maximum((pi_bar - cand) / (pi_bar - pi_min), 0.0), 1.0
    )
    for bid, w in zip(strategic_bids, weights):
        frac = frac + np.where(bid >= cand, w, 0.0)
    count = demand * frac
    log_term = np.array([math.log1p(float(v)) for v in count])
    objective = beta * log_term + cand * count
    return {"objective": objective, "fraction": frac}


# ----------------------------------------------------------------------
# DAG bidding: eq. 15 cost grid over (task spec, candidate) cells
# (dag.plan_dag)
# ----------------------------------------------------------------------

def dag_grid_kernel_reference(
    dist: PriceDistribution,
    candidates: np.ndarray,
    jobs: Sequence[JobSpec],
) -> Dict[str, np.ndarray]:
    """Scalar oracle: :func:`repro.core.costs.persistent_cost` per
    (task spec, candidate bid) cell."""
    cost = np.empty((len(jobs), len(candidates)))
    for i, job in enumerate(jobs):
        _require_progress(job)
        r = job.recovery_time / job.slot_length
        for j, p in enumerate(candidates):
            p = float(p)
            a = dist.cdf(p)
            if a <= 0.0:
                cost[i, j] = math.inf
                continue
            denom = 1.0 - r * (1.0 - a)
            if denom <= 0.0:
                cost[i, j] = math.inf
                continue
            running = (job.execution_time - job.recovery_time) / denom
            cost[i, j] = running * dist.partial_expectation(p) / a
    return {"cost": cost}


def dag_grid_kernel(
    dist: PriceDistribution,
    candidates: np.ndarray,
    jobs: Sequence[JobSpec],
) -> Dict[str, np.ndarray]:
    """Vectorized eq. 15 grid: candidate moments computed once, shared
    by every task's row — the per-task scan of ``plan_dag`` becomes one
    matrix evaluation."""
    prices = np.asarray(candidates, dtype=np.float64)
    accept = _accept_values(dist, prices)
    below = _below_values(dist, prices)
    cost = np.empty((len(jobs), prices.size))
    for i, job in enumerate(jobs):
        _require_progress(job)
        r = job.recovery_time / job.slot_length
        denom = 1.0 - r * (1.0 - accept)
        with np.errstate(divide="ignore", invalid="ignore"):
            running = (job.execution_time - job.recovery_time) / denom
            row = running * below / accept
        cost[i] = np.where((accept <= 0.0) | (denom <= 0.0), np.inf, row)
    return {"cost": cost}


# ----------------------------------------------------------------------
# Portfolio contracts: on-demand + spot mixture grid
# (portfolio.optimal_portfolio_bid)
# ----------------------------------------------------------------------

def portfolio_grid_kernel_reference(
    dist: PriceDistribution,
    candidates: np.ndarray,
    job: JobSpec,
    *,
    ondemand_price: float,
    ondemand_fractions: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Scalar oracle for the portfolio mixture grid.

    Cell ``(w, p)`` runs fraction ``w`` of the execution time on an
    on-demand instance at ``π̄`` and bids ``p`` persistently for the
    rest.  Cost is ``w·t_s·π̄ + Φ_sp(p)`` of the spot leg; the variance
    is the per-paid-hour price variance of the mixture, weighting the
    deterministic on-demand price by its share of expected running
    hours.  Spot legs that cannot outlast one recovery are ``inf``;
    ``w = 1`` (pure on-demand) is always feasible with zero variance.
    """
    if ondemand_price <= 0:
        raise PlanError(f"ondemand_price must be positive, got {ondemand_price!r}")
    n_w = len(ondemand_fractions)
    n_p = len(candidates)
    cost = np.empty((n_w, n_p))
    variance = np.empty((n_w, n_p))
    t_s = job.execution_time
    t_r = job.recovery_time
    r = t_r / job.slot_length
    for wi, w in enumerate(ondemand_fractions):
        w = float(w)
        if w >= 1.0:
            for pj in range(n_p):
                cost[wi, pj] = w * t_s * ondemand_price
                variance[wi, pj] = 0.0
            continue
        spot_work = (1.0 - w) * t_s
        if spot_work <= t_r:
            cost[wi, :] = math.inf
            variance[wi, :] = math.inf
            continue
        for pj, p in enumerate(candidates):
            p = float(p)
            a = dist.cdf(p)
            if a <= 0.0:
                cost[wi, pj] = math.inf
                variance[wi, pj] = math.inf
                continue
            denom = 1.0 - r * (1.0 - a)
            if denom <= 0.0:
                cost[wi, pj] = math.inf
                variance[wi, pj] = math.inf
                continue
            running = (spot_work - t_r) / denom
            below = dist.partial_expectation(p)
            spot_cost = running * below / a
            cost[wi, pj] = w * t_s * ondemand_price + spot_cost
            od_hours = w * t_s
            lam = od_hours / (od_hours + running)
            m1 = below / a
            m2 = _second_below(dist, p) / a
            ex = lam * ondemand_price + (1.0 - lam) * m1
            ex2 = lam * (ondemand_price * ondemand_price) + (1.0 - lam) * m2
            variance[wi, pj] = max(0.0, ex2 - ex * ex)
    return {"cost": cost, "variance": variance}


def portfolio_grid_kernel(
    dist: PriceDistribution,
    candidates: np.ndarray,
    job: JobSpec,
    *,
    ondemand_price: float,
    ondemand_fractions: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Vectorized portfolio grid: candidate moments once, each mixture
    fraction a vector row."""
    if ondemand_price <= 0:
        raise PlanError(f"ondemand_price must be positive, got {ondemand_price!r}")
    prices = np.asarray(candidates, dtype=np.float64)
    accept = _accept_values(dist, prices)
    below = _below_values(dist, prices)
    second_raw = _second_values(dist, prices)
    fractions = np.asarray(ondemand_fractions, dtype=np.float64)
    t_s = job.execution_time
    t_r = job.recovery_time
    r = t_r / job.slot_length
    cost = np.empty((fractions.size, prices.size))
    variance = np.empty((fractions.size, prices.size))
    bad = accept <= 0.0
    denom = 1.0 - r * (1.0 - accept)
    infeasible = bad | (denom <= 0.0)
    for wi, w in enumerate(fractions):
        w = float(w)
        if w >= 1.0:
            cost[wi, :] = w * t_s * ondemand_price
            variance[wi, :] = 0.0
            continue
        spot_work = (1.0 - w) * t_s
        if spot_work <= t_r:
            cost[wi, :] = math.inf
            variance[wi, :] = math.inf
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            running = (spot_work - t_r) / denom
            spot_cost = running * below / accept
            row_cost = w * t_s * ondemand_price + spot_cost
            od_hours = w * t_s
            lam = od_hours / (od_hours + running)
            m1 = below / accept
            m2 = second_raw / accept
            ex = lam * ondemand_price + (1.0 - lam) * m1
            ex2 = lam * (ondemand_price * ondemand_price) + (1.0 - lam) * m2
            row_var = np.maximum(0.0, ex2 - ex * ex)
        cost[wi] = np.where(infeasible, np.inf, row_cost)
        variance[wi] = np.where(infeasible, np.inf, row_var)
    return {"cost": cost, "variance": variance}


# ----------------------------------------------------------------------
# Kernel ⇄ oracle pairs
# ----------------------------------------------------------------------

#: Pair table: key → (vectorized kernel, scalar oracle).  Parsed
#: statically by the RB201 kernel-parity rule — every entry must keep
#: its ``*_reference`` oracle, a randomized equivalence test, and bench
#: coverage.
_EXT_KERNELS: Dict[str, Tuple[Callable[..., dict], Callable[..., dict]]] = {
    "risk_scan": (risk_scan_kernel, risk_scan_kernel_reference),
    "deadline_scan": (deadline_scan_kernel, deadline_scan_kernel_reference),
    "checkpoint_grid": (checkpoint_grid_kernel, checkpoint_grid_kernel_reference),
    "persistence_grid": (persistence_grid_kernel, persistence_grid_kernel_reference),
    "block_grid": (block_grid_kernel, block_grid_kernel_reference),
    "collective_slot": (collective_slot_kernel, collective_slot_kernel_reference),
    "dag_grid": (dag_grid_kernel, dag_grid_kernel_reference),
    "portfolio_grid": (portfolio_grid_kernel, portfolio_grid_kernel_reference),
}


def extension_kernel_pair(
    name: str,
) -> Tuple[Callable[..., dict], Callable[..., dict]]:
    """The (vectorized, oracle) pair for a pair-table key — used by the
    bench runner to time both lanes on identical inputs."""
    return _EXT_KERNELS[name]

