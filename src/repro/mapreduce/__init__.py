"""MapReduce substrate: workloads, master-side scheduling, the
dual-market runner used by the Section 7.2 experiments, and the batched
plan-grid kernel that evaluates whole plan × run grids in one pass."""

from .grid import MapReduceGridResult, run_plan_grid
from .job import MapReduceWorkload, WordCountWorkload
from .kernels import TERMINATION_CODES, mapreduce_grid_kernel_event
from .runner import (
    MapReduceRunResult,
    TerminationReason,
    ondemand_baseline,
    run_plan_on_traces,
)
from .scheduler import MapReduceScheduler, SubJob
from .tasks import TaskPool, TaskPoolRunResult, run_task_pool_on_trace

__all__ = [
    "MapReduceWorkload",
    "WordCountWorkload",
    "MapReduceRunResult",
    "TerminationReason",
    "TERMINATION_CODES",
    "MapReduceGridResult",
    "run_plan_grid",
    "mapreduce_grid_kernel_event",
    "ondemand_baseline",
    "run_plan_on_traces",
    "MapReduceScheduler",
    "SubJob",
    "TaskPool",
    "TaskPoolRunResult",
    "run_task_pool_on_trace",
]
