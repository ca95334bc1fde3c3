"""Batched bid sweeps: grids of bids × stacks of traces in one shot.

This package is the scaling substrate over the scalar
:mod:`repro.market.fastpath` oracle:

* :mod:`repro.sweep.kernels` — slot-batched NumPy kernels, bitwise
  identical to the oracle, vectorized over the bid (and trace) axes.
* :mod:`repro.sweep.engine` — :func:`run_sweep` front door with ragged
  trace stacking, per-trace start slots, paired bids, and fan-out
  through :func:`repro.scheduler.run_shards` (serial, threads or the
  process pool).
* :mod:`repro.sweep.report` — :class:`SweepReport` per-cell arrays plus
  :class:`SweepCounters` (slots simulated, fan-out seconds, cache hits).
"""

from .engine import run_sweep
from .kernels import (
    onetime_sweep_kernel,
    onetime_sweep_kernel_reference,
    persistent_sweep_kernel,
    persistent_sweep_kernel_reference,
)
from .report import SweepCounters, SweepReport
from .shm import SharedPriceStack, StackDescriptor

__all__ = [
    "run_sweep",
    "onetime_sweep_kernel",
    "onetime_sweep_kernel_reference",
    "persistent_sweep_kernel",
    "persistent_sweep_kernel_reference",
    "SharedPriceStack",
    "StackDescriptor",
    "SweepCounters",
    "SweepReport",
]
