"""Synthetic spot-price trace generation.

The paper's experiments consume two months of per-type EC2 spot-price
history.  That data source no longer exists, so we generate statistically
equivalent traces from the paper's own Section 4 model (see DESIGN.md §2
for the substitution argument).  Three generators are provided:

* :func:`generate_equilibrium_history` — i.i.d. draws from the Prop. 2/3
  equilibrium price distribution (the paper's standing assumption);
  :func:`skip_equilibrium_history` advances a generator past one such
  history without drawing it.
* :func:`generate_provider_history` — prices from the *closed-loop*
  provider simulation (eq. 3 pricing + eq. 4 queueing); includes the
  transient dynamics the equilibrium model abstracts away.
* :func:`generate_correlated_history` — a Gaussian-copula AR(1) variant
  with the same marginal distribution but positive temporal correlation,
  implementing the Section 8 "temporal correlations" discussion.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..constants import DEFAULT_SLOT_HOURS, SLOTS_PER_DAY
from ..errors import TraceError
from ..provider.equilibrium import EquilibriumPriceModel, pareto_model_with_atom
from ..provider.queue import ProviderSimulation
from .catalog import InstanceType, get_instance_type
from .history import SpotPriceHistory

__all__ = [
    "market_model_for",
    "generate_equilibrium_history",
    "skip_equilibrium_history",
    "generate_provider_history",
    "generate_correlated_history",
    "generate_renewal_history",
    "generate_regime_shift_history",
]


def _resolve(instance_type: Union[str, InstanceType]) -> InstanceType:
    if isinstance(instance_type, InstanceType):
        return instance_type
    return get_instance_type(instance_type)


def market_model_for(
    instance_type: Union[str, InstanceType]
) -> EquilibriumPriceModel:
    """The Pareto equilibrium price model for a catalog instance type.

    Includes the type's price-floor atom (see
    :func:`repro.provider.equilibrium.pareto_model_with_atom`).
    """
    itype = _resolve(instance_type)
    m = itype.market
    return pareto_model_with_atom(
        beta=m.beta,
        theta=m.theta,
        alpha=m.alpha,
        pi_bar=itype.on_demand_price,
        pi_min=m.pi_min,
        floor_mass=m.floor_mass,
    )


def _n_slots(days: float, slot_length: float) -> int:
    if days <= 0:
        raise TraceError(f"days must be positive, got {days!r}")
    n = int(round(days * 24.0 / slot_length))
    if n < 1:
        raise TraceError(f"window of {days!r} days is shorter than one slot")
    return n


def generate_equilibrium_history(
    instance_type: Union[str, InstanceType],
    *,
    days: float = 60.0,
    rng: np.random.Generator,
    slot_length: float = DEFAULT_SLOT_HOURS,
    start_hour: float = 0.0,
) -> SpotPriceHistory:
    """Draw an i.i.d. trace from the equilibrium price distribution.

    This is the generative counterpart of the Section 5 assumption that
    "the spot prices π(t) ... are i.i.d. as in Proposition 2".  A 60-day
    window matches the history Amazon exposed.
    """
    itype = _resolve(instance_type)
    model = market_model_for(itype)
    n = _n_slots(days, slot_length)
    prices = model.sample(n, rng)
    return SpotPriceHistory(
        prices=prices,
        slot_length=slot_length,
        start_hour=start_hour,
        instance_type=itype.name,
    )


def skip_equilibrium_history(
    rng: np.random.Generator,
    *,
    days: float = 60.0,
    slot_length: float = DEFAULT_SLOT_HOURS,
) -> None:
    """Leave ``rng`` where :func:`generate_equilibrium_history` would.

    The equilibrium sampler draws exactly one double per slot
    (:meth:`~repro.provider.arrivals.ParetoArrivals.sample`), so jumping
    the bit generator ahead by the slot count lands on the same state
    without drawing, transforming or validating a price — O(1) for the
    PCG64 generators :func:`numpy.random.default_rng` builds.  Use it
    when only the draws that follow a history on a substream are wanted.
    """
    rng.bit_generator.advance(_n_slots(days, slot_length))


def generate_provider_history(
    instance_type: Union[str, InstanceType],
    *,
    days: float = 60.0,
    rng: np.random.Generator,
    slot_length: float = DEFAULT_SLOT_HOURS,
    start_hour: float = 0.0,
    warmup_slots: Optional[int] = None,
) -> SpotPriceHistory:
    """Run the closed-loop Section 4 provider and record its prices.

    Unlike the equilibrium sampler, consecutive prices here are coupled
    through the bid queue (eq. 4), so this trace exhibits the mild
    autocorrelation the paper mentions observing in real data.
    """
    itype = _resolve(instance_type)
    model = market_model_for(itype)
    n = _n_slots(days, slot_length)
    warmup = SLOTS_PER_DAY if warmup_slots is None else warmup_slots
    if warmup < 0:
        raise TraceError(f"warmup_slots must be non-negative, got {warmup!r}")
    sim = ProviderSimulation(
        arrivals=model.arrivals,
        beta=model.beta,
        theta=model.theta,
        pi_bar=model.pi_bar,
        pi_min=model.lower,
    )
    trace = sim.run(n + warmup, rng)
    prices = trace.price[warmup:]
    return SpotPriceHistory(
        prices=prices,
        slot_length=slot_length,
        start_hour=start_hour,
        instance_type=itype.name,
    )


def generate_correlated_history(
    instance_type: Union[str, InstanceType],
    *,
    days: float = 60.0,
    rng: np.random.Generator,
    correlation: float = 0.8,
    slot_length: float = DEFAULT_SLOT_HOURS,
    start_hour: float = 0.0,
) -> SpotPriceHistory:
    """Generate a trace with AR(1) temporal correlation (Section 8).

    A Gaussian copula drives the slot-to-slot dependence: a stationary
    AR(1) series ``z_t = ρ·z_{t−1} + √(1−ρ²)·w_t`` is mapped through the
    equilibrium quantile function, so the *marginal* distribution matches
    :func:`generate_equilibrium_history` exactly while consecutive prices
    correlate with coefficient ≈ ρ.
    """
    from scipy import stats

    if not -1.0 < correlation < 1.0:
        raise TraceError(f"correlation must be in (-1, 1), got {correlation!r}")
    itype = _resolve(instance_type)
    model = market_model_for(itype)
    n = _n_slots(days, slot_length)
    innovations = rng.standard_normal(n)
    z = np.empty(n)
    z[0] = innovations[0]
    scale = np.sqrt(1.0 - correlation * correlation)
    for i in range(1, n):
        z[i] = correlation * z[i - 1] + scale * innovations[i]
    quantiles = stats.norm.cdf(z)
    # Clip away exact 0/1 to keep the Pareto quantile finite.
    quantiles = np.clip(quantiles, 1e-12, 1.0 - 1e-12)
    prices = np.asarray([model.ppf(float(q)) for q in quantiles])
    return SpotPriceHistory(
        prices=prices,
        slot_length=slot_length,
        start_hour=start_hour,
        instance_type=itype.name,
    )


def generate_renewal_history(
    instance_type: Union[str, InstanceType],
    *,
    days: float = 60.0,
    rng: np.random.Generator,
    floor_episode_hours: float = 24.0,
    tail_episode_hours: float = 3.0,
    slot_length: float = DEFAULT_SLOT_HOURS,
    start_hour: float = 0.0,
) -> SpotPriceHistory:
    """Generate a *sticky* trace: long floor episodes, rare tail spikes.

    This is the most faithful model of 2014 EC2 spot behaviour: the price
    parks at the floor for long stretches (hours to days) and occasionally
    jumps into the heavy tail for a few hours before returning.  The
    process alternates geometric-length episodes:

    * **floor** episodes at ``π_min``, mean length ``floor_episode_hours``;
    * **tail** episodes at a level drawn from the equilibrium model's
      continuum above the floor, mean length ``tail_episode_hours``.

    Episode-type probabilities are chosen so the *stationary marginal*
    matches the equilibrium model exactly (time at the floor = the
    catalog's ``floor_mass``), so bids computed from a renewal trace and
    from an i.i.d. trace agree; only the temporal texture differs.  This
    is the recommended generator for *execution* (future) traces: it
    reproduces the paper's observation that correctly sized one-time bids
    essentially never get interrupted (Section 7.1).
    """
    itype = _resolve(instance_type)
    model = market_model_for(itype)
    q = model.floor_mass
    if not 0.0 < q < 1.0:
        raise TraceError(
            f"renewal generator needs a price-floor atom; {itype.name} has "
            f"floor_mass={q!r}"
        )
    if floor_episode_hours <= 0 or tail_episode_hours <= 0:
        raise TraceError("episode lengths must be positive")
    n = _n_slots(days, slot_length)
    # Episode-type probability preserving the marginal floor mass:
    # time-at-floor = w·D_f / (w·D_f + (1−w)·D_t) = q.
    rate = (q / floor_episode_hours) / (
        q / floor_episode_hours + (1.0 - q) / tail_episode_hours
    )
    # Geometric episode lengths with the requested means, >= 1 slot.
    p_floor = min(1.0, slot_length / floor_episode_hours)
    p_tail = min(1.0, slot_length / tail_episode_hours)
    floor = model.lower
    tail_mass = 1.0 - q
    ppf = model.ppf
    # ``random()`` draws the double ``uniform(0, 1)`` would, from the same
    # stream position, at a quarter of the per-call cost; seeded traces
    # and the draws that follow them depend on that equality.
    random = rng.random
    geometric = rng.geometric
    levels = []
    lengths = []
    i = 0
    while i < n:
        is_floor = random() < rate
        length = min(int(geometric(p_floor if is_floor else p_tail)), n - i)
        if is_floor:
            levels.append(floor)
        else:
            # A draw from the continuum above the floor.
            levels.append(ppf(q + random() * tail_mass))
        lengths.append(length)
        i += length
    prices = np.repeat(np.asarray(levels, dtype=float), lengths)
    return SpotPriceHistory(
        prices=prices,
        slot_length=slot_length,
        start_hour=start_hour,
        instance_type=itype.name,
    )


def generate_regime_shift_history(
    instance_type: Union[str, InstanceType],
    *,
    days: float = 60.0,
    rng: np.random.Generator,
    shift_hour: float,
    floor_multiplier: float = 2.0,
    floor_episode_hours: float = 36.0,
    tail_episode_hours: float = 2.5,
    slot_length: float = DEFAULT_SLOT_HOURS,
    start_hour: float = 0.0,
) -> SpotPriceHistory:
    """A sticky trace whose price regime shifts at ``shift_hour``.

    Before the shift, prices follow the catalog model; after it, the
    price floor (and the whole distribution above it) is scaled by
    ``floor_multiplier`` — the kind of structural change real spot
    markets exhibited when capacity tightened, and the scenario where
    a static bid computed pre-shift fails while an adaptive client
    (:class:`repro.core.adaptive.AdaptiveBiddingClient`) recovers.
    """
    itype = _resolve(instance_type)
    if not 0.0 < shift_hour < days * 24.0:
        raise TraceError(
            f"shift_hour {shift_hour!r} must fall strictly inside the "
            f"{days * 24.0:g}h trace"
        )
    if floor_multiplier <= 0:
        raise TraceError(
            f"floor_multiplier must be positive, got {floor_multiplier!r}"
        )
    before_days = shift_hour / 24.0
    after_days = days - before_days
    before = generate_renewal_history(
        itype,
        days=before_days,
        rng=rng,
        floor_episode_hours=floor_episode_hours,
        tail_episode_hours=tail_episode_hours,
        slot_length=slot_length,
        start_hour=start_hour,
    )
    after = generate_renewal_history(
        itype,
        days=after_days,
        rng=rng,
        floor_episode_hours=floor_episode_hours,
        tail_episode_hours=tail_episode_hours,
        slot_length=slot_length,
    )
    # The scaled regime keeps the same shape: every price (floor and
    # excursions alike) is multiplied, capped at the on-demand price.
    shifted = np.minimum(
        after.prices * floor_multiplier, itype.on_demand_price
    )
    prices = np.concatenate([before.prices, shifted])
    return SpotPriceHistory(
        prices=prices,
        slot_length=slot_length,
        start_hour=start_hour,
        instance_type=itype.name,
    )
