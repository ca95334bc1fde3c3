"""Batched extension kernels vs their scalar oracles.

Same contract as ``tests/test_sweep_kernels_equivalence.py``: every
vectorized kernel in :mod:`repro.extensions.kernels` must be *bitwise*
equal to its retained ``*_reference`` oracle on every output array —
including ``inf`` placement for infeasible cells — across seeded
randomized workloads and degenerate grids.  The RB201 kernel-parity
rule requires this file to reference each kernel/oracle pair by name.
"""

import math

import numpy as np
import pytest

from repro.core.distributions import EmpiricalPriceDistribution
from repro.core.types import JobSpec
from repro.errors import PlanError
from repro.extensions.kernels import (
    _EXT_KERNELS,
    checkpoint_grid_kernel,
    checkpoint_grid_kernel_reference,
    collective_slot_kernel,
    collective_slot_kernel_reference,
    dag_grid_kernel,
    dag_grid_kernel_reference,
    deadline_scan_kernel,
    deadline_scan_kernel_reference,
    extension_kernel_pair,
    portfolio_grid_kernel,
    portfolio_grid_kernel_reference,
    risk_scan_kernel,
    risk_scan_kernel_reference,
)

SEEDS = [1509, 2015, 4242]


def assert_bitwise(actual, expected):
    assert set(actual) == set(expected)
    for key in expected:
        a = np.asarray(actual[key])
        e = np.asarray(expected[key])
        assert a.shape == e.shape, f"{key}: shape {a.shape} != {e.shape}"
        assert np.array_equal(a, e, equal_nan=True), f"{key} diverged"


def random_distribution(rng):
    """A spiky empirical price trace like the paper's Section 4 data."""
    n = int(rng.integers(5, 400))
    floor = float(rng.uniform(0.01, 0.05))
    prices = floor + rng.exponential(0.02, size=n)
    spikes = rng.random(n) < 0.08
    prices[spikes] *= rng.uniform(5.0, 30.0, size=int(spikes.sum()))
    if n > 2 and rng.random() < 0.5:
        prices[1] = prices[0]  # tie mass on one atom
    return EmpiricalPriceDistribution(prices)


def random_job(rng):
    work = float(rng.choice([0.05, 0.5, 2.0, 8.0, 40.0]))
    recovery = float(rng.choice([0.0, 0.01, 0.1, 0.25]))
    slot = float(rng.choice([1.0 / 12.0, 0.5, 1.0]))
    if work <= recovery:
        work = recovery + 1.0
    return JobSpec(execution_time=work, recovery_time=recovery, slot_length=slot)


def random_candidates(rng, dist):
    """A grid that straddles the support, including sub-``lower`` bids
    that make ``F(p) = 0`` (infeasible rows) and exact atom hits."""
    n = int(rng.integers(1, 40))
    lo = dist.lower * float(rng.choice([0.0, 0.5, 1.0]))
    hi = dist.upper * float(rng.uniform(1.0, 1.5))
    cand = np.sort(rng.uniform(lo, hi, size=n))
    if n > 1 and rng.random() < 0.5:
        cand[0] = dist.lower * 0.5  # guaranteed F(p) = 0 cell
    if rng.random() < 0.5:
        cand[int(rng.integers(n))] = dist.ppf(float(rng.random()))
    return cand


class TestRiskKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_risk_scan_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            dist = random_distribution(rng)
            job = random_job(rng)
            cand = random_candidates(rng, dist)
            assert_bitwise(
                risk_scan_kernel(dist, cand, job),
                risk_scan_kernel_reference(dist, cand, job),
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_deadline_scan_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            dist = random_distribution(rng)
            job = random_job(rng)
            cand = random_candidates(rng, dist)
            deadline = float(rng.uniform(0.5, 4.0)) * job.execution_time
            assert_bitwise(
                deadline_scan_kernel(dist, cand, job, deadline),
                deadline_scan_kernel_reference(dist, cand, job, deadline),
            )

    def test_infeasible_rows_are_inf_in_both_lanes(self):
        dist = EmpiricalPriceDistribution([0.1, 0.2, 0.3])
        job = JobSpec(execution_time=2.0, recovery_time=0.5, slot_length=0.5)
        cand = np.array([0.01, 0.05])  # below the support: F(p) = 0
        ref = risk_scan_kernel_reference(dist, cand, job)
        event = risk_scan_kernel(dist, cand, job)
        assert_bitwise(event, ref)
        assert np.isinf(ref["cost"]).all()
        assert np.isinf(ref["variance"]).all()
        miss = deadline_scan_kernel(dist, cand, job, 10.0)["miss"]
        assert (miss == 1.0).all()

    def test_zero_length_candidate_grid(self):
        dist = EmpiricalPriceDistribution([0.1, 0.2])
        job = JobSpec(execution_time=1.0, recovery_time=0.1, slot_length=1.0)
        empty = np.array([])
        for kernel, ref in (
            (risk_scan_kernel, risk_scan_kernel_reference),
            (deadline_scan_kernel, deadline_scan_kernel_reference),
        ):
            args = (dist, empty, job) if kernel is risk_scan_kernel else (
                dist, empty, job, 5.0
            )
            out = kernel(*args)
            assert_bitwise(out, ref(*args))
            for arr in out.values():
                assert arr.size == 0

    def test_job_must_outlast_recovery(self):
        dist = EmpiricalPriceDistribution([0.1, 0.2])
        job = JobSpec(execution_time=0.1, recovery_time=0.2, slot_length=1.0)
        cand = np.array([0.15])
        for fn in (risk_scan_kernel, risk_scan_kernel_reference):
            with pytest.raises(ValueError, match="execution_time > recovery"):
                fn(dist, cand, job)
        for fn in (deadline_scan_kernel, deadline_scan_kernel_reference):
            with pytest.raises(ValueError):
                fn(dist, cand, job, 5.0)
            with pytest.raises(ValueError, match="deadline"):
                fn(dist, cand, JobSpec(execution_time=1.0), 0.0)


class TestGridKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_checkpoint_grid_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            dist = random_distribution(rng)
            cand = random_candidates(rng, dist)
            jobs = [random_job(rng) for _ in range(int(rng.integers(1, 6)))]
            assert_bitwise(
                checkpoint_grid_kernel(dist, cand, jobs),
                checkpoint_grid_kernel_reference(dist, cand, jobs),
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dag_grid_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            dist = random_distribution(rng)
            cand = random_candidates(rng, dist)
            jobs = [random_job(rng) for _ in range(int(rng.integers(1, 6)))]
            assert_bitwise(
                dag_grid_kernel(dist, cand, jobs),
                dag_grid_kernel_reference(dist, cand, jobs),
            )

    def test_empty_job_stack_yields_empty_matrix(self):
        dist = EmpiricalPriceDistribution([0.1, 0.2])
        cand = np.array([0.15, 0.25])
        for kernel, ref in (
            (checkpoint_grid_kernel, checkpoint_grid_kernel_reference),
            (dag_grid_kernel, dag_grid_kernel_reference),
        ):
            out = kernel(dist, cand, [])
            assert_bitwise(out, ref(dist, cand, []))
            assert out["cost"].shape == (0, 2)


class TestCollectiveSlot:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_collective_slot_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            pi_min = float(rng.uniform(0.01, 0.1))
            pi_bar = pi_min * float(rng.uniform(2.0, 10.0))
            n_cand = int(rng.integers(1, 60))
            candidates = np.sort(rng.uniform(pi_min, pi_bar, size=n_cand))
            n_strat = int(rng.integers(0, 5))
            strategic = rng.uniform(pi_min, pi_bar, size=n_strat).tolist()
            weights = rng.uniform(0.01, 0.3, size=n_strat).tolist()
            background = float(rng.uniform(0.1, 1.0))
            demand = float(rng.uniform(1.0, 200.0))
            beta = float(rng.uniform(0.1, 5.0))
            assert_bitwise(
                collective_slot_kernel(
                    candidates, strategic, weights, background, demand,
                    beta=beta, pi_bar=pi_bar, pi_min=pi_min,
                ),
                collective_slot_kernel_reference(
                    candidates, strategic, weights, background, demand,
                    beta=beta, pi_bar=pi_bar, pi_min=pi_min,
                ),
            )

    def test_same_randomized_inputs_both_lanes(self):
        # The parametrized test draws fresh demand/beta per lane; this one
        # pins a single workload and checks the dict fields exactly.
        rng = np.random.default_rng(7)
        candidates = np.sort(rng.uniform(0.02, 0.2, size=15))
        kwargs = dict(beta=1.5, pi_bar=0.2, pi_min=0.02)
        out = collective_slot_kernel(
            candidates, [0.05, 0.1], [0.2, 0.1], 0.5, 40.0, **kwargs
        )
        ref = collective_slot_kernel_reference(
            candidates, [0.05, 0.1], [0.2, 0.1], 0.5, 40.0, **kwargs
        )
        assert_bitwise(out, ref)
        assert (out["fraction"] >= 0.0).all()


class TestPortfolioGrid:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_portfolio_grid_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(15):
            dist = random_distribution(rng)
            job = random_job(rng)
            cand = random_candidates(rng, dist)
            ondemand = dist.upper * float(rng.uniform(1.0, 2.0))
            n_w = int(rng.integers(1, 20))
            fractions = np.linspace(0.0, 1.0, n_w)
            assert_bitwise(
                portfolio_grid_kernel(
                    dist, cand, job,
                    ondemand_price=ondemand, ondemand_fractions=fractions,
                ),
                portfolio_grid_kernel_reference(
                    dist, cand, job,
                    ondemand_price=ondemand, ondemand_fractions=fractions,
                ),
            )

    def test_pure_ondemand_row_always_feasible(self):
        dist = EmpiricalPriceDistribution([0.1, 0.2, 0.3])
        job = JobSpec(execution_time=2.0, recovery_time=0.5, slot_length=0.5)
        fractions = np.array([0.0, 0.9, 1.0])
        cand = np.array([0.01])  # F(p)=0: every spot leg infeasible
        out = portfolio_grid_kernel(
            dist, cand, job, ondemand_price=0.5, ondemand_fractions=fractions
        )
        ref = portfolio_grid_kernel_reference(
            dist, cand, job, ondemand_price=0.5, ondemand_fractions=fractions
        )
        assert_bitwise(out, ref)
        assert np.isinf(out["cost"][:2]).all()
        assert out["cost"][2, 0] == 2.0 * 0.5
        assert out["variance"][2, 0] == 0.0

    def test_spot_leg_shorter_than_recovery_is_inf(self):
        dist = EmpiricalPriceDistribution([0.1, 0.2])
        job = JobSpec(execution_time=1.0, recovery_time=0.4, slot_length=0.5)
        # w=0.7 leaves 0.3h of spot work < 0.4h recovery → infeasible
        out = portfolio_grid_kernel(
            dist, np.array([0.25]), job,
            ondemand_price=0.5, ondemand_fractions=np.array([0.7]),
        )
        ref = portfolio_grid_kernel_reference(
            dist, np.array([0.25]), job,
            ondemand_price=0.5, ondemand_fractions=np.array([0.7]),
        )
        assert_bitwise(out, ref)
        assert math.isinf(out["cost"][0, 0])

    def test_invalid_ondemand_price_rejected(self):
        dist = EmpiricalPriceDistribution([0.1, 0.2])
        job = JobSpec(execution_time=1.0)
        for fn in (portfolio_grid_kernel, portfolio_grid_kernel_reference):
            with pytest.raises(PlanError, match="ondemand_price"):
                fn(dist, np.array([0.15]), job,
                   ondemand_price=-1.0, ondemand_fractions=np.array([0.5]))


class TestDispatch:
    def test_pairs_each_kernel_with_its_oracle(self):
        assert extension_kernel_pair("risk_scan") == (
            risk_scan_kernel, risk_scan_kernel_reference,
        )
        for kernel, oracle in _EXT_KERNELS.values():
            assert oracle.__name__ == kernel.__name__ + "_reference"

    def test_unknown_kernel_name_raises(self):
        with pytest.raises(KeyError):
            extension_kernel_pair("no_such_kernel")
