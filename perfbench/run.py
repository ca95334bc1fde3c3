"""Benchmark entry point.

    python3 perfbench/run.py --workload paper|sweep|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` prints its per-layer
metrics.  The last line of standard output is the result object; the
line before it holds ungated diagnostics (environment, drift, tails).
The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from pathlib import Path

# Import the benchmark as a package from the checkout root, never its
# own directory as a top-level path.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import harness, tracing  # noqa: E402

WORKLOADS = ("paper", "sweep", "serve")


def main(argv: list) -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.OUT_DIR.mkdir(exist_ok=True)
    for stale in harness.OUT_DIR.glob("spans-*.jsonl"):
        stale.unlink()
    workload = importlib.import_module(f"perfbench.{args.workload}")
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(outcome.metrics))
    if not args.trace and missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # A layer off this workload's path did no work here: it reads zero.
    # A layer on it whose function the program no longer has was not
    # measured: it reads NaN, so a rename cannot pass for a speed-up.
    unresolved = tracing.unresolved_layers() if args.trace else {}
    unmeasured = sorted(
        name
        for name in outcome.metrics
        if any(span in unresolved for span in tracing.spans_of(name))
    )
    metrics = {
        name: (
            math.nan if name in unmeasured else outcome.metrics.get(name, 0.0),
            unit,
        )
        for name, unit in units.items()
    }
    outcome.diagnostics.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=harness.machine_info(),
        off_path_layers=missing if args.trace else [],
        unwrapped=unresolved,
        unmeasured_layers=unmeasured,
        problems=outcome.problems,
    )
    harness.emit(
        correct=not outcome.problems,
        attempted=outcome.attempted,
        failed=outcome.failed,
        metrics=metrics,
        diagnostics=outcome.diagnostics,
    )
    return 1 if outcome.problems else 0


if __name__ == "__main__":
    harness.ensure_clean_env([os.path.abspath(__file__), *sys.argv[1:]])
    sys.exit(main(sys.argv[1:]))
