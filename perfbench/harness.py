"""Shared plumbing of the benchmark: environment hygiene, clocks read from
outside the program (``/proc``, fresh interpreters), statistics, the
drift reading and the result line.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: Root of the checkout: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space inside the checkout (inputs, logs, spans); git-ignored.
OUT_DIR = ROOT / ".perfbench_out"

#: Inherited variables kept in every process the benchmark runs.  All
#: others go: ``REPRO_*`` would switch program behaviour (for example
#: ``REPRO_SWEEP_KERNEL=reference`` measures the dense oracle), and
#: ``PYTHON*``, BLAS and OpenMP settings change the interpreter or numpy.
_KEPT = ("PATH", "HOME", "LANG", "LC_ALL", "LC_CTYPE", "TZ", "USER")

#: The benchmark's default seed (``ExperimentConfig``'s root seed); the
#: output checks pin digests at it.
DEFAULT_SEED = 20140814

#: Latency limit of one served decision, the bound ``repro-bid serve
#: --smoke --p99-ms`` already uses.
SLO_MS = 50.0


def clean_env() -> Dict[str, str]:
    """The environment of every process the benchmark runs or starts."""
    env = {key: os.environ[key] for key in _KEPT if key in os.environ}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def ensure_clean_env(argv: Sequence[str]) -> None:
    """Re-execute this interpreter under :func:`clean_env` unless it
    already runs under it (``PYTHONHASHSEED`` only acts at start-up)."""
    env = clean_env()
    if dict(os.environ) != env:
        os.execve(sys.executable, [sys.executable, *argv], env)


# -- statistics ---------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: Iterable[float], q: float) -> float:
    """Linearly interpolated percentile; ``inf`` entries (failed
    requests) sort last and yield ``inf`` once the rank reaches them."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if pos == lo:
        return xs[lo]
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest of 90, 99, 99.9, ... with at least ten of ``n``
    samples beyond it (0 when even p90 has fewer)."""
    best = 0.0
    q = 90.0
    while n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
        best = q
        q = 100.0 - (100.0 - q) / 10.0
    return best


# -- /proc readings -----------------------------------------------------------
def peak_rss_mb(pid: "int | str" = "self") -> float:
    """``VmHWM`` (peak resident set size) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident size,
    so that a later :func:`peak_rss_mb` covers only what runs after."""
    Path("/proc/self/clear_refs").write_text("5")


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process (all its threads), in seconds."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def machine_info() -> Dict[str, object]:
    """What a reader needs to compare two results: environment, cores,
    CPU, library versions and the multiprocessing start method."""
    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "env": {k: v for k, v in sorted(os.environ.items()) if k != "PATH"},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
    }


# -- drift --------------------------------------------------------------------
#: Calibration time taken as the host's nominal speed.  The host behind
#: the committed numbers ran the loop in 3.5-7 ms, and its ops in
#: proportion: a paper pass took 1.4 s at 3.8 ms and 2.8 s at 6.6 ms.
NOMINAL_CALIB_MS = 5.0


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python and numpy loop, a reading of how
    fast the host runs right now."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += (i * i) % 7
    values = np.sin(np.arange(100_000, dtype=float)) * acc
    np.sort(values)
    return (time.perf_counter() - start) * 1e3


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine since boot."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def at_nominal_speed(op_ms: float, calib_ms: float) -> float:
    """An op time rescaled from the host speed a calibration reading
    taken next to it shows to :data:`NOMINAL_CALIB_MS`."""
    return op_ms * NOMINAL_CALIB_MS / calib_ms


class Drift:
    """Calibration readings taken between ops, and steal time meanwhile."""

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.steal0 = steal_seconds()

    def sample(self) -> float:
        """Take three readings; return their median."""
        taken = [calibration_ms() for _ in range(3)]
        self.readings.extend(taken)
        return median(taken)

    def summary(self) -> Dict[str, float]:
        return {
            "calib_median_ms": median(self.readings),
            "calib_min_ms": min(self.readings),
            "calib_max_ms": max(self.readings),
            "n": len(self.readings),
            "steal_s": steal_seconds() - self.steal0,
        }


# -- fresh interpreters -------------------------------------------------------
def time_to_line(
    argv: Sequence[str],
    marker: str,
    *,
    log: Path,
    timeout: float = 60.0,
) -> Tuple[float, subprocess.Popen, str]:
    """Start ``argv`` and time it until a stdout line contains ``marker``.

    Returns the seconds taken, the still-running process (the caller
    stops it) and the line.  Raises ``RuntimeError`` if the process
    ends, or stays silent for ``timeout`` seconds, before the line.
    """
    with open(log, "ab") as err:
        start = time.perf_counter()
        # Unbuffered, so select() sees every line not yet read.
        proc = subprocess.Popen(
            list(argv),
            bufsize=0,
            stdout=subprocess.PIPE,
            stderr=err,
            env=clean_env(),
            cwd=str(ROOT),
        )
    assert proc.stdout is not None
    while True:
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if ready else b""
        if marker.encode() in line:
            return time.perf_counter() - start, proc, line.decode()
        if not line:
            stop(proc, timeout=5.0)
            raise RuntimeError(
                f"{' '.join(argv[1:3])} ended or went silent before "
                f"printing {marker!r}; see {log}"
            )


def stop(proc: subprocess.Popen, *, interrupt: bool = False, timeout: float = 30.0) -> int:
    """Let a child end (after SIGINT when asked), killing it if it has
    not ended within ``timeout``; returns once it has ended."""
    if proc.poll() is None:
        if interrupt:
            proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
    code = proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    return code


def import_seconds(modules: str) -> float:
    """Seconds from spawning a fresh interpreter until ``import <modules>``
    has finished."""
    code = f"import {modules}; print('ready', flush=True)"
    seconds, proc, _line = time_to_line(
        [sys.executable, "-c", code], "ready", log=OUT_DIR / "setup.log"
    )
    stop(proc, timeout=30.0)
    return seconds


#: Timed fresh starts behind ``setup_s``.  On the measuring host one
#: start takes up to half again as long as another a few seconds
#: earlier, and no calibration reading taken beside it (compute loop,
#: page faults, system calls, a scipy-only start) tracks that, so a run
#: takes several starts spread across it and reports their median.
SETUP_STARTS = 7


class Setup:
    """Fresh starts spread over a run, after one untimed start that warms
    the OS page cache.  ``start()`` runs one start and returns its
    seconds."""

    def __init__(self, start: Callable[[], float], n: int = SETUP_STARTS):
        self.start = start
        self.n = n
        self.seconds: List[float] = []
        start()

    def due(self, progress: float) -> bool:
        """Whether a start is due once ``progress`` (0 to 1) of the run
        has passed: start ``k`` falls due at ``k / n``."""
        return len(self.seconds) < self.n and len(self.seconds) <= progress * self.n

    def take(self) -> None:
        self.seconds.append(self.start())

    def finish(self) -> float:
        """Take the starts not yet taken; return the median."""
        while len(self.seconds) < self.n:
            self.take()
        return median(self.seconds)


# -- result ---------------------------------------------------------------------
def emit(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
    diagnostics: Dict[str, object],
) -> None:
    """Print the diagnostics line, then the result as the last line."""
    print("perfbench-diagnostics " + json.dumps(diagnostics, sort_keys=True, default=float))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
