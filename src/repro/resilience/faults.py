"""Seeded, declarative fault injection for spot-price traces.

A :class:`FaultSpec` declares one perturbation of a price series —
*what* goes wrong, parameterized but with no randomness of its own.  A
:class:`FaultInjector` owns the randomness: it derives one child
generator per spec from a single seed, so a given ``(specs, seed)`` pair
always produces the same degraded market, which keeps chaos experiments
reproducible.

Faults enter a market one way: :meth:`FaultInjector.perturb_prices` (or
:meth:`~FaultInjector.perturb_history`, which keeps the trace's
metadata) rewrites the prices, applying the specs in sequence so each
sees the previous spec's output.  A backtest sweeps or runs the
perturbed trace; a live feed replays it, as
``TracePriceSource(injector.perturb_history(trace))``, so the feed and
the backtest see the same prices.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import FaultError
from ..traces.history import SpotPriceHistory

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "PriceSpike",
    "PricePlateau",
    "SlotDropout",
    "SlotDuplication",
    "RevocationStorm",
    "TraceTruncation",
    "FaultInjector",
    "WorkerFaultPlan",
    "WorkerFaults",
]


@dataclass(frozen=True)
class FaultPlan:
    """A spec's fully-sampled decision for an ``n_slots``-long series.

    Plans are pure data: per-slot multiplicative factors, per-slot
    absolute overrides (NaN means "leave the price alone"), per-slot
    emission counts (0 drops a slot, 2 duplicates it), and an optional
    cap on how many slots are emitted at all.
    """

    multiplier: Optional[np.ndarray] = None
    override: Optional[np.ndarray] = None
    emit_counts: Optional[np.ndarray] = None
    max_emitted: Optional[int] = None

    def apply(self, prices: np.ndarray) -> np.ndarray:
        out = np.asarray(prices, dtype=float)
        if self.multiplier is not None:
            out = out * self.multiplier
        if self.override is not None:
            out = np.where(np.isnan(self.override), out, self.override)
        if self.emit_counts is not None:
            out = np.repeat(out, self.emit_counts)
        if self.max_emitted is not None:
            out = out[: self.max_emitted]
        if out.size == 0:
            raise FaultError("fault plan removed every slot of the trace")
        return out


class FaultSpec(abc.ABC):
    """One declarative perturbation of a price series.

    Subclasses are frozen dataclasses; all randomness comes from the
    generator handed to :meth:`plan`, never from the spec itself.
    """

    @property
    def kind(self) -> str:
        """Short machine-readable name (the class name, kebab-cased)."""
        name = type(self).__name__
        return "".join(
            ("-" + c.lower()) if c.isupper() else c for c in name
        ).lstrip("-")

    @abc.abstractmethod
    def plan(self, rng: np.random.Generator, n_slots: int) -> FaultPlan:
        """Sample this spec's concrete decisions for an ``n_slots`` series."""


def _check_rate(rate: float, name: str) -> None:
    if not 0.0 <= rate <= 1.0:
        raise FaultError(f"{name} must be in [0, 1], got {rate!r}")


def _check_positive(value: float, name: str) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise FaultError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PriceSpike(FaultSpec):
    """Multiply the price by ``magnitude`` at randomly chosen slots.

    Roughly ``rate``-fraction of slots start a spike ``width`` slots
    long — the abrupt price dynamics that feedback-control bidders react
    to (arXiv:1708.01391).
    """

    rate: float = 0.01
    magnitude: float = 10.0
    width: int = 1

    def __post_init__(self) -> None:
        _check_rate(self.rate, "rate")
        _check_positive(self.magnitude, "magnitude")
        if self.width < 1:
            raise FaultError(f"width must be >= 1, got {self.width!r}")

    def plan(self, rng: np.random.Generator, n_slots: int) -> FaultPlan:
        n_spikes = min(n_slots, int(round(self.rate * n_slots)))
        multiplier = np.ones(n_slots)
        if n_spikes:
            starts = rng.choice(n_slots, size=n_spikes, replace=False)
            for start in np.sort(starts):
                multiplier[start : start + self.width] *= self.magnitude
        return FaultPlan(multiplier=multiplier)


@dataclass(frozen=True)
class PricePlateau(FaultSpec):
    """Hold the price at ``level`` for ``duration_slots`` consecutive slots.

    With ``level`` above the bid this starves the job for the whole
    window — the sustained-outage case one-time requests cannot survive.
    ``start_slot=None`` picks the window uniformly at random.
    """

    level: float
    duration_slots: int
    start_slot: Optional[int] = None

    def __post_init__(self) -> None:
        _check_positive(self.level, "level")
        if self.duration_slots < 1:
            raise FaultError(
                f"duration_slots must be >= 1, got {self.duration_slots!r}"
            )
        if self.start_slot is not None and self.start_slot < 0:
            raise FaultError(
                f"start_slot must be non-negative, got {self.start_slot!r}"
            )

    def plan(self, rng: np.random.Generator, n_slots: int) -> FaultPlan:
        duration = min(self.duration_slots, n_slots)
        if self.start_slot is None:
            start = int(rng.integers(0, n_slots - duration + 1))
        else:
            start = min(self.start_slot, n_slots - 1)
        override = np.full(n_slots, np.nan)
        override[start : start + duration] = self.level
        return FaultPlan(override=override)


@dataclass(frozen=True)
class SlotDropout(FaultSpec):
    """Drop ~``rate``-fraction of slots — missing observations in the feed."""

    rate: float = 0.05

    def __post_init__(self) -> None:
        _check_rate(self.rate, "rate")

    def plan(self, rng: np.random.Generator, n_slots: int) -> FaultPlan:
        counts = np.ones(n_slots, dtype=np.int64)
        counts[rng.random(n_slots) < self.rate] = 0
        if counts.sum() == 0:
            counts[0] = 1  # never delete the whole trace
        return FaultPlan(emit_counts=counts)


@dataclass(frozen=True)
class SlotDuplication(FaultSpec):
    """Emit ~``rate``-fraction of slots twice — a stuttering price feed."""

    rate: float = 0.05

    def __post_init__(self) -> None:
        _check_rate(self.rate, "rate")

    def plan(self, rng: np.random.Generator, n_slots: int) -> FaultPlan:
        counts = np.ones(n_slots, dtype=np.int64)
        counts[rng.random(n_slots) < self.rate] = 2
        return FaultPlan(emit_counts=counts)


@dataclass(frozen=True)
class RevocationStorm(FaultSpec):
    """``bursts`` windows where the price jumps to ``level``.

    With ``level`` above every sane bid each burst revokes all running
    spot instances at once — the correlated-revocation scenario that
    portfolio contracts hedge against (arXiv:1811.12901).
    """

    level: float
    bursts: int = 3
    burst_slots: int = 6

    def __post_init__(self) -> None:
        _check_positive(self.level, "level")
        if self.bursts < 1:
            raise FaultError(f"bursts must be >= 1, got {self.bursts!r}")
        if self.burst_slots < 1:
            raise FaultError(
                f"burst_slots must be >= 1, got {self.burst_slots!r}"
            )

    def plan(self, rng: np.random.Generator, n_slots: int) -> FaultPlan:
        override = np.full(n_slots, np.nan)
        n_bursts = min(self.bursts, n_slots)
        starts = rng.choice(n_slots, size=n_bursts, replace=False)
        for start in np.sort(starts):
            override[start : start + self.burst_slots] = self.level
        return FaultPlan(override=override)


@dataclass(frozen=True)
class TraceTruncation(FaultSpec):
    """Keep only the leading ``fraction`` of the trace.

    Models a feed that dies mid-backtest; downstream code must cope with
    jobs that run out of future instead of completing.
    """

    fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise FaultError(
                f"fraction must be in (0, 1], got {self.fraction!r}"
            )

    def plan(self, rng: np.random.Generator, n_slots: int) -> FaultPlan:
        return FaultPlan(max_emitted=max(1, int(n_slots * self.fraction)))


class FaultInjector:
    """Applies a sequence of :class:`FaultSpec` s reproducibly.

    Parameters
    ----------
    specs:
        The perturbations, applied in order.
    seed:
        Root seed, non-negative.  Spec ``i`` draws from
        ``np.random.default_rng([seed, i])``, so adding or reordering
        specs never silently reshuffles another spec's randomness.
    """

    def __init__(self, specs: Sequence[FaultSpec], *, seed: int = 0):
        specs = tuple(specs)
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise FaultError(f"not a FaultSpec: {spec!r}")
        if not specs:
            raise FaultError("need at least one FaultSpec")
        if seed < 0:
            raise FaultError(f"seed must be non-negative, got {seed!r}")
        self.specs: Tuple[FaultSpec, ...] = specs
        self.seed = int(seed)
        self._prefix: Tuple[int, ...] = (self.seed,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(spec.kind for spec in self.specs)
        return f"FaultInjector([{kinds}], seed={self.seed})"

    def derive(self, index: int) -> "FaultInjector":
        """An injector with the same specs but an independent seed stream.

        Used to give each trace of a sweep (or each class of a chaos
        run) its own randomness while staying a pure function of the
        root seed.
        """
        if index < 0:
            raise FaultError(f"index must be non-negative, got {index!r}")
        child = FaultInjector(self.specs, seed=self.seed)
        child._prefix = self._prefix + (int(index),)
        return child

    def spec_rng(self, index: int) -> np.random.Generator:
        """The dedicated generator for spec ``index``."""
        return np.random.default_rng([*self._prefix, index])

    # -- recorded traces --------------------------------------------------
    def perturb_prices(self, prices: np.ndarray) -> np.ndarray:
        """Apply every spec in sequence to a 1-D price array."""
        out = np.asarray(prices, dtype=float)
        if out.ndim != 1 or out.size == 0:
            raise FaultError("prices must be a non-empty 1-D array")
        for i, spec in enumerate(self.specs):
            out = spec.plan(self.spec_rng(i), out.size).apply(out)
        return out

    def perturb_history(self, history: SpotPriceHistory) -> SpotPriceHistory:
        """A new history with the same metadata and perturbed prices."""
        return SpotPriceHistory(
            prices=self.perturb_prices(history.prices),
            slot_length=history.slot_length,
            start_hour=history.start_hour,
            instance_type=history.instance_type,
        )


@dataclass(frozen=True)
class WorkerFaultPlan:
    """One worker epoch's fully-sampled process faults — pure data.

    The coordinator samples a plan per ``(worker_id, epoch)`` and ships
    it to the worker; the worker only ever reads plain floats and ints,
    so plans cross the process boundary trivially.  Shard positions are
    *worker-local sequence numbers* (the k-th shard this worker pulls),
    which keeps plans meaningful under dynamic assignment.
    """

    slow_start_seconds: float = 0.0
    #: Worker-local shard sequence at which the worker ``os._exit``\ s
    #: before running it (``None`` = never).
    kill_on_shard: Optional[int] = None
    #: Worker-local shard sequence before which the worker stalls.
    stall_on_shard: Optional[int] = None
    stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        for name in ("slow_start_seconds", "stall_seconds"):
            value = getattr(self, name)
            if value < 0:
                raise FaultError(f"{name} must be >= 0, got {value!r}")
        for name in ("kill_on_shard", "stall_on_shard"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise FaultError(f"{name} must be >= 0, got {value!r}")

    @property
    def benign(self) -> bool:
        return (
            self.slow_start_seconds == 0.0
            and self.kill_on_shard is None
            and (self.stall_on_shard is None or self.stall_seconds == 0.0)
        )


BENIGN_WORKER_PLAN = WorkerFaultPlan()


@dataclass(frozen=True)
class WorkerFaults:
    """Seeded process-level chaos for the work-stealing scheduler.

    Worker ``w`` at respawn ``epoch`` draws its plan from
    ``np.random.default_rng([seed, w, epoch])`` — the same prefix-tuple
    derivation as :class:`FaultInjector` — so a chaos run is a pure
    function of ``seed`` *given* the dispatch order.  Epochs at or
    beyond ``max_chaos_epochs`` always get the benign plan, which
    bounds the chaos and guarantees the pool eventually drains even
    with ``kill_rate=1.0``.
    """

    kill_rate: float = 0.5
    stall_rate: float = 0.0
    stall_seconds: float = 0.5
    slow_start_rate: float = 0.0
    slow_start_seconds: float = 0.2
    seed: int = 0
    #: First-few-shards window chaos positions are drawn from.
    first_shards: int = 3
    max_chaos_epochs: int = 2
    #: Restrict chaos to these pool slots (``None`` = all workers) —
    #: e.g. ``(0,)`` makes exactly one worker the straggler.
    only_workers: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_rate(self.kill_rate, "kill_rate")
        _check_rate(self.stall_rate, "stall_rate")
        _check_rate(self.slow_start_rate, "slow_start_rate")
        if self.stall_seconds < 0:
            raise FaultError(
                f"stall_seconds must be non-negative, got {self.stall_seconds!r}"
            )
        if self.slow_start_seconds < 0:
            raise FaultError(
                f"slow_start_seconds must be non-negative, "
                f"got {self.slow_start_seconds!r}"
            )
        if self.first_shards < 1:
            raise FaultError(
                f"first_shards must be >= 1, got {self.first_shards!r}"
            )
        if self.max_chaos_epochs < 0:
            raise FaultError(
                f"max_chaos_epochs must be >= 0, got {self.max_chaos_epochs!r}"
            )

    def plan(self, worker_id: int, epoch: int) -> WorkerFaultPlan:
        """The sampled plan for one worker epoch (benign past the cap)."""
        if epoch >= self.max_chaos_epochs:
            return BENIGN_WORKER_PLAN
        if self.only_workers is not None and worker_id not in self.only_workers:
            return BENIGN_WORKER_PLAN
        rng = np.random.default_rng([self.seed, int(worker_id), int(epoch)])
        # One draw per knob, always, so enabling a knob never reshuffles
        # the randomness another knob sees.
        kill_u, kill_pos = rng.random(), int(rng.integers(0, self.first_shards))
        stall_u, stall_pos = rng.random(), int(rng.integers(0, self.first_shards))
        slow_u = rng.random()
        return WorkerFaultPlan(
            slow_start_seconds=(
                self.slow_start_seconds if slow_u < self.slow_start_rate else 0.0
            ),
            kill_on_shard=kill_pos if kill_u < self.kill_rate else None,
            stall_on_shard=stall_pos if stall_u < self.stall_rate else None,
            stall_seconds=self.stall_seconds,
        )
