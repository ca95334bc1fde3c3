"""The ``serve`` workload: the online bidder against the shipped daemon.

One op is one bidding round: ``ROUND`` decisions due at the same instant,
sent pipelined over two connections to ``repro-bid serve`` (iid source),
which runs in its own process, started through ``perfbench/daemon.py``.
Rounds fall due on a fixed schedule whether or not earlier ones have
finished (open loop), from pre-encoded lines; a round's latency runs
from its due time to its last answer.  Ingest is paced so the tables
rebuild every few seconds, adding writes (and cache invalidation)
beside the reads.  After the window, single decisions are sent open
loop up a rate ladder for the printed per-decision percentiles and the
highest rate that meets the 50-ms limit.

Every round holds the same mix.  Its table part is the repository's own
serving load, ``repro.serve.loadgen.build_requests`` at its defaults:
``PERSISTENT``/``ONE_TIME`` jobs, half of them on a grid point (512
keys, which fit the 4096-entry cache and repeat), half drawn between
grid points (unique keys, which churn it).  On top, by assumption, one
decision in a hundred goes to the compute tier, one ``PERCENTILE`` and
one ``PORTFOLIO`` request per round; the traced run prints the share of
round time each kind of request takes.

Output checks: no protocol errors, no degraded response, and every
response stamped with the bootstrap table version equals
``BidTableSet.decide`` of a local ``build_table_set`` on the same
bootstrap trace.
"""

from __future__ import annotations

import gc
import json
import math
import re
import selectors
import socket
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import harness, inputs
from perfbench.tracing import SpanTable, load_spans
from perfbench.workload import Outcome

#: One op is a bidding round: ROUND decisions due at the same instant,
#: pipelined over the connections; ROUNDS_PER_S rounds are due each
#: second (2,000 decisions/s), whether or not earlier rounds finished.
#: A fleet of feedback-control bidders re-decides at every slot boundary,
#: so its decisions fall due together; the fleet size and the compressed
#: slot clock are assumptions.  A round takes tens of milliseconds of
#: daemon work, so a host stall of a few milliseconds moves its latency
#: little; the latency of a single sub-millisecond decision on a shared
#: two-vCPU VM swings several-fold between quiet and busy host periods.
ROUND = 200
ROUNDS_PER_S = 10.0
#: Requests per round of each kind: on-grid and off-grid table jobs in
#: the loadgen's default split (``on_grid_fraction=0.5``), and one
#: PERCENTILE and one PORTFOLIO request (assumed 1% compute tier).  Every
#: round holds the same mix, so rounds cost alike.
ROUND_MIX = (99, 99, 1, 1)
KIND_NAMES = ("on_grid", "off_grid", "percentile", "portfolio")
CONNECTIONS = 2
#: Untimed lead-in of rounds: warms the cache and the code paths.
WARMUP_S = 1.5
#: Seconds the generator waits for stragglers once the last request is sent.
GRACE_S = 2.0
#: Between rounds, with nothing in flight and the next round at least
#: this far off, the generator takes a host-speed reading.
CALIB_GAP_S = 0.03
#: Ingest pacing: one slot per interval, a rebuild every REBUILD_EVERY
#: slots (6.6 s), so two rebuilds in an 18-second window.  A rebuild makes
#: every cached key stale, which slows the round or two after it.
INGEST_INTERVAL = 0.55
REBUILD_EVERY = 12
GRID = (32, 8)
HISTORY_DAYS = 60
#: Single decisions sent open loop at these rates, LADDER_STEP_S each,
#: give the ungated per-decision percentiles (first rung) and the
#: highest rate that meets the latency limit.
LADDER = (2000, 4000, 6000, 8000, 10000, 12000)
LADDER_STEP_S = 0.5


# -- inputs ---------------------------------------------------------------------
def round_kinds(rng: np.random.Generator, n_rounds: int) -> np.ndarray:
    """Request kinds of ``n_rounds`` rounds, each a shuffled ROUND_MIX."""
    one = np.repeat(np.arange(len(ROUND_MIX)), ROUND_MIX)
    return np.concatenate([rng.permutation(one) for _ in range(n_rounds)])


def stream_kinds(rng: np.random.Generator, n: int) -> np.ndarray:
    """Request kinds of a stream of single decisions, in ROUND_MIX shares."""
    return rng.choice(len(ROUND_MIX), size=n, p=np.asarray(ROUND_MIX) / ROUND)


def requests(
    rng: np.random.Generator, kinds: np.ndarray, grid: Any, slot: float
) -> List[Dict[str, Any]]:
    """Seeded decide requests in wire form, one per entry of ``kinds``
    (indices into :data:`KIND_NAMES`).  Jobs are drawn the way
    ``repro.serve.loadgen.build_requests`` draws them: on-grid ones at a
    uniformly chosen grid point, the others uniformly within the gridded
    ranges; table jobs pick ``PERSISTENT`` or ``ONE_TIME`` evenly."""
    n = len(kinds)
    ts_axis, tr_axis = grid.execution_times, grid.recovery_times
    ts_pick = rng.integers(0, len(ts_axis), size=n)
    tr_pick = rng.integers(0, len(tr_axis), size=n)
    ts_draw = rng.uniform(ts_axis[0], ts_axis[-1], size=n)
    tr_draw = rng.uniform(tr_axis[0], tr_axis[-1], size=n)
    coin = rng.random(size=n) < 0.5
    out = []
    for i, kind in enumerate(kinds):
        if kind == 0:
            ts, tr = ts_axis[ts_pick[i]], tr_axis[tr_pick[i]]
        else:
            ts, tr = float(ts_draw[i]), float(tr_draw[i])
        if kind < 2:
            strategy = "persistent" if coin[i] else "one-time"
        else:
            strategy = KIND_NAMES[kind]
        out.append(
            {
                "op": "decide",
                "job": {"execution_time": ts, "recovery_time": tr, "slot_length": slot},
                "strategy": strategy,
            }
        )
    return out


#: Kinds of request as the traced daemon tells them apart: the low two
#: bits of a traced request's op id (see perfbench/daemon.py).
DAEMON_KINDS = ("table", "percentile", "portfolio")


def request_kind(line: bytes) -> int:
    """The :data:`DAEMON_KINDS` index of one request line."""
    for kind, strategy in enumerate(DAEMON_KINDS[1:], 1):
        if f'"{strategy}"'.encode() in line:
            return kind
    return 0


def encode(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def round_offsets(n_rounds: int) -> List[float]:
    return [r / ROUNDS_PER_S for r in range(n_rounds) for _ in range(ROUND)]


def stream_offsets(n: int, rate: float) -> List[float]:
    return [i / rate for i in range(n)]


# -- open-loop generator -----------------------------------------------------------
class OpenLoop:
    """Sends pre-encoded lines on a fixed schedule over a few connections.

    The daemon answers each connection in order, so answers match
    requests first in, first out per connection.
    """

    def __init__(self, port: int, connections: int = CONNECTIONS):
        self.port = port
        self.connections = connections
        self._connect()

    def _connect(self) -> None:
        self.socks = [
            socket.create_connection(("127.0.0.1", self.port))
            for _ in range(self.connections)
        ]
        # select(2) sleeps with microsecond resolution; epoll rounds to 1 ms.
        self.selector = selectors.SelectSelector()
        for index, sock in enumerate(self.socks):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.selector.register(sock, selectors.EVENT_READ, index)

    def close(self) -> None:
        self.selector.close()
        for sock in self.socks:
            sock.close()

    def drive(
        self, lines: Sequence[bytes], offsets: Sequence[float], calibrate: bool = False
    ) -> Dict[str, Any]:
        """Send line ``i`` when ``offsets[i]`` seconds have passed; return
        per-request latency (seconds from due time; ``inf`` if
        unanswered), lateness of the generator and the answer lines.
        With ``calibrate``, each gap with nothing in flight and the next
        send at least ``CALIB_GAP_S`` away also yields a host-speed
        reading, as ``(seconds from start, calibration ms)``.

        The cyclic garbage collector is off meanwhile: a full collection
        over the pre-built inputs stalls the generator for milliseconds.
        """
        gc.disable()
        try:
            return self._drive(lines, offsets, calibrate)
        finally:
            gc.enable()

    def _drive(
        self, lines: Sequence[bytes], offsets: Sequence[float], calibrate: bool
    ) -> Dict[str, Any]:
        n, k = len(lines), len(self.socks)
        outbox = [bytearray() for _ in range(k)]
        pending: List[deque] = [deque() for _ in range(k)]
        partial = [b""] * k
        latency = [math.inf] * n
        lateness = [0.0] * n
        answers: List[Optional[bytes]] = [None] * n
        readings: List[Tuple[float, float]] = []
        t0 = time.perf_counter() + 0.005
        sent = answered = 0
        give_up = math.inf
        idle_since = -1
        while answered < n:
            now = time.perf_counter()
            if (
                calibrate
                and answered == sent
                and sent > idle_since
                and sent < n
                and t0 + offsets[sent] - now > CALIB_GAP_S
            ):
                idle_since = sent
                readings.append((now - t0, harness.calibration_ms()))
                continue
            while sent < n and t0 + offsets[sent] <= now:
                conn = sent % k
                outbox[conn] += lines[sent]
                pending[conn].append(sent)
                lateness[sent] = now - (t0 + offsets[sent])
                sent += 1
            for conn, box in enumerate(outbox):
                if box:
                    try:
                        del box[: self.socks[conn].send(box)]
                    except BlockingIOError:
                        pass
            if sent == n and give_up == math.inf:
                give_up = now + GRACE_S
            if now > give_up:
                break
            wait = (t0 + offsets[sent] - now) if sent < n else give_up - now
            if any(outbox):
                wait = min(wait, 0.0005)
            for key, _mask in self.selector.select(max(0.0, wait)):
                conn = key.data
                data = self.socks[conn].recv(1 << 18)
                if not data:
                    raise RuntimeError("the daemon closed a connection")
                at = time.perf_counter()
                *complete, partial[conn] = (partial[conn] + data).split(b"\n")
                for line in complete:
                    index = pending[conn].popleft()
                    latency[index] = at - (t0 + offsets[index])
                    answers[index] = line
                    answered += 1
        if answered < n:
            # Late answers would pair with the next requests: start over.
            self.close()
            self._connect()
        return {
            "latency": latency,
            "lateness": lateness,
            "answers": answers,
            "readings": readings,
        }

    def ask(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One synchronous request on the first connection (after drive)."""
        sock = self.socks[0]
        sock.setblocking(True)
        try:
            sock.sendall(encode(payload))
            data = b""
            while not data.endswith(b"\n"):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise RuntimeError("the daemon closed a connection")
                data += chunk
        finally:
            sock.setblocking(False)
        return json.loads(data)


# -- daemon ----------------------------------------------------------------------
class Daemon:
    """One daemon process started through ``perfbench/daemon.py``."""

    def __init__(self, csv: Path, seed: int, trace_out: Optional[Path] = None):
        argv = [sys.executable, str(harness.ROOT / "perfbench" / "daemon.py")]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        argv += [
            "--", str(csv), "--port", "0", "--ondemand", repr(inputs.ONDEMAND),
            "--grid", f"{GRID[0]}x{GRID[1]}", "--source", "iid", "--seed", str(seed),
            "--interval", repr(INGEST_INTERVAL), "--rebuild-every", str(REBUILD_EVERY),
        ]
        self.start_s, self.proc, line = harness.time_to_line(
            argv, "serving ", log=harness.OUT_DIR / "daemon.log"
        )
        found = re.search(r" on [^ ]*:(\d+) +table=(\S+)", line)
        if found is None:
            self.stop()
            raise RuntimeError(f"unexpected daemon banner {line!r}")
        self.port = int(found.group(1))
        self.version = found.group(2)

    def stop(self) -> int:
        return harness.stop(self.proc, interrupt=True)


def _start_stop(csv: Path, seed: int) -> float:
    """Seconds one fresh daemon takes to start serving."""
    daemon = Daemon(csv, seed)
    daemon.stop()
    return daemon.start_s


# -- the run -----------------------------------------------------------------------
def _checks(
    outcome: Outcome,
    payloads: Sequence[Dict[str, Any]],
    answers: Sequence[Optional[bytes]],
    bootstrap: Any,
) -> Dict[str, int]:
    """Check every answer; return counts of errors, degraded and
    oracle-checked responses."""
    from repro.serve.protocol import decision_to_wire, request_from_wire

    counts = {"answers": 0, "errors": 0, "degraded": 0, "checked": 0, "mismatched": 0}
    for payload, raw in zip(payloads, answers):
        if raw is None:
            continue
        counts["answers"] += 1
        answer = json.loads(raw)
        if not answer.get("ok"):
            counts["errors"] += 1
            continue
        if answer["degradation_reason"] is not None or answer["decision"]["degraded"]:
            counts["degraded"] += 1
        if answer["table_version"] == bootstrap.version:
            counts["checked"] += 1
            expected = bootstrap.decide(request_from_wire(payload)).decision
            if answer["decision"] != decision_to_wire(expected):
                counts["mismatched"] += 1
    outcome.check(counts["errors"] == 0, f"serve: {counts['errors']} protocol errors")
    outcome.check(counts["degraded"] == 0, f"serve: {counts['degraded']} degraded responses")
    outcome.check(
        counts["mismatched"] == 0,
        f"serve: {counts['mismatched']} bootstrap-version responses differ from "
        "the local tables",
    )
    return counts


def _summary(ms: Sequence[float]) -> Dict[str, Any]:
    """Median, p90, p99 and the highest percentile with at least ten
    samples beyond it, each with its sample count."""
    n = len(ms)
    tail = harness.tail_percentile(n)
    return {
        "n": n,
        "p50_ms": harness.percentile(ms, 50.0),
        "p90_ms": harness.percentile(ms, 90.0),
        "p99_ms": harness.percentile(ms, 99.0),
        "p99_beyond": int(n * 0.01),
        "tail_q": tail,
        "tail_ms": harness.percentile(ms, tail) if tail else None,
        "tail_beyond": int(n * (100.0 - tail) / 100.0) if tail else 0,
    }


def _failed_inf(got: Dict[str, Any]) -> List[float]:
    """Latencies in ms, with errors and unanswered requests as ``inf``."""
    return [
        lat * 1e3 if raw is not None and json.loads(raw).get("ok") else math.inf
        for lat, raw in zip(got["latency"], got["answers"])
    ]


def _nominal_p50(rounds: Sequence[float], readings: Sequence[Tuple[float, float]]) -> float:
    """Median round latency at the host's nominal speed: each round is
    rescaled by the median of the readings taken within half a second of
    its due time."""
    scaled = []
    for r, ms in enumerate(rounds):
        due = r / ROUNDS_PER_S
        near = [c for at, c in readings if abs(at - due) <= 0.5]
        calib = harness.median(near or [c for _, c in readings])
        scaled.append(harness.at_nominal_speed(ms, calib))
    return harness.median(scaled)


def _ladder(loop: OpenLoop, payloads: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Single decisions open loop at each ladder rate.  The first rung's
    percentiles describe one decision; the result also names the highest
    rate whose p99 meets the limit with nothing failed, a generator that
    kept up and no backlog growing through the step."""
    lines = [encode(p) for p in payloads]
    best = 0.0
    steps = []
    first: Dict[str, Any] = {}
    answers: List[Optional[bytes]] = []
    pos = 0
    for rate in LADDER:
        n = int(rate * LADDER_STEP_S)
        got = loop.drive(lines[pos : pos + n], stream_offsets(n, rate))
        answers += got["answers"]
        pos += n
        ms = _failed_inf(got)
        fifth = max(1, n // 5)
        growing = harness.median(ms[-fifth:]) > 2 * harness.median(ms[:fifth]) + 1.0
        late = harness.percentile(got["lateness"], 99.0) * 1e3
        p99 = harness.percentile(ms, 99.0)
        steps.append(
            {"rate": rate, "p99_ms": p99, "lateness_p99_ms": late, "backlog_growing": growing}
        )
        if not first:
            first = _summary(ms)
            first.update(
                rate=rate,
                slo_share=sum(1 for x in ms if x <= harness.SLO_MS) / n,
                lateness_p50_ms=harness.percentile(got["lateness"], 50.0) * 1e3,
                lateness_max_ms=max(got["lateness"]) * 1e3,
            )
        if not (p99 <= harness.SLO_MS and not growing and late <= 5.0):
            break
        best = float(rate)
    return {
        "decision": first,
        "max_rate_per_s": best,
        "steps": steps,
        "answers": answers,
        "n": pos,
    }


def _measure(
    daemon: Daemon,
    lines: List[bytes],
    payloads: List[Dict[str, Any]],
    seconds: float,
    bootstrap: Any,
    outcome: Outcome,
    ladder: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Warm up, measure one window of rounds, read the daemon's counters
    and, when given ladder requests, climb the rate ladder."""
    n_warm = int(WARMUP_S * ROUNDS_PER_S)
    n_main = int(seconds * ROUNDS_PER_S)
    loop = OpenLoop(daemon.port)
    try:
        warm = loop.drive(lines[: n_warm * ROUND], round_offsets(n_warm))
        pid = daemon.proc.pid
        cpu0 = harness.cpu_seconds(pid)
        t_start = time.perf_counter_ns()
        main = loop.drive(
            lines[n_warm * ROUND : (n_warm + n_main) * ROUND],
            round_offsets(n_main),
            calibrate=True,
        )
        t_end = time.perf_counter_ns()
        # Rounds that never leave an idle gap fall back to one reading.
        readings = main["readings"] or [(0.0, harness.calibration_ms())]
        cpu = harness.cpu_seconds(pid) - cpu0
        rss = harness.peak_rss_mb(pid)
        stats = loop.ask({"op": "stats"})
        climbed = _ladder(loop, ladder) if ladder else None
    finally:
        loop.close()
    answers = warm["answers"] + main["answers"]
    checked_payloads = payloads[: len(answers)]
    if climbed is not None:
        answers += climbed.pop("answers")
        checked_payloads += ladder[: climbed["n"]]
    counts = _checks(outcome, checked_payloads, answers, bootstrap)
    outcome.check(counts["checked"] > 0, "serve: no response carried the bootstrap version")
    outcome.check(
        daemon.version == bootstrap.version,
        f"serve: daemon bootstrap table {daemon.version} != local {bootstrap.version}",
    )
    ms = _failed_inf(main)
    rounds = [max(ms[r : r + ROUND]) for r in range(0, len(ms), ROUND)]
    return {
        "rounds_ms": rounds,
        "round": _summary(rounds),
        "round_p50_norm_ms": _nominal_p50(rounds, readings),
        "failed": sum(1 for x in ms if math.isinf(x)),
        "attempted": len(ms),
        "lateness_p99_ms": harness.percentile(main["lateness"], 99.0) * 1e3,
        "cpu_s": cpu,
        "rss_mb": rss,
        "stats": stats,
        "counts": counts,
        "window_ns": (t_start, t_end),
        "ladder": climbed,
    }


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        import_s = harness.Setup(lambda: harness.import_seconds("repro"), n=3).finish()

    from repro.serve import build_table_set, default_grid
    from repro.traces.io import read_csv

    rng = np.random.default_rng(seed)
    csv = harness.OUT_DIR / "serve-bootstrap.csv"
    inputs.write_trace_csv(inputs.spot_prices(rng, HISTORY_DAYS * inputs.SLOTS_PER_DAY), csv)
    history = read_csv(csv)
    grid = default_grid(shape=GRID, slot_length=history.slot_length)
    bootstrap = build_table_set(history, ondemand_price=inputs.ONDEMAND, grid=grid)
    n_rounds = int(WARMUP_S * ROUNDS_PER_S) + int(seconds * ROUNDS_PER_S)
    payloads = requests(rng, round_kinds(rng, n_rounds), grid, history.slot_length)
    lines = [encode(p) for p in payloads]
    ladder = None
    if not trace:
        kinds = stream_kinds(rng, int(sum(LADDER) * LADDER_STEP_S))
        ladder = requests(rng, kinds, grid, history.slot_length)
    drift = harness.Drift()
    drift.sample()

    if not trace:
        setup = harness.Setup(lambda: _start_stop(csv, seed))
        # The measured daemon's start is one of the set-up starts; the
        # others fall before and after the measured window.
        while len(setup.seconds) < setup.n // 2:
            setup.take()
        daemon = Daemon(csv, seed)
        setup.seconds.append(daemon.start_s)
        try:
            got = _measure(daemon, lines, payloads, seconds, bootstrap, outcome, ladder)
        finally:
            code = daemon.stop()
        drift.sample()
        setup_s = setup.finish()
        outcome.check(code == 0, f"serve: daemon exited with code {code}")
        outcome.attempted, outcome.failed = got["attempted"], got["failed"]
        outcome.metrics.update(
            setup_s=setup_s,
            peak_rss_mb=got["rss_mb"],
            op_p50_norm_ms=got["round_p50_norm_ms"],
        )
        climbed = got["ladder"]
        outcome.diagnostics.update(
            setup_runs_s=setup.seconds,
            op_p50_ms=got["round"]["p50_ms"],
            round_ms=got["round"],
            decision_ms=climbed.pop("decision"),
            ladder=climbed,
            lateness_p99_ms=got["lateness_p99_ms"],
            daemon_cpu_us=got["cpu_s"] / got["attempted"] * 1e6,
            daemon_stats=got["stats"],
            checks=got["counts"],
            drift=drift.summary(),
        )
        return outcome

    # Traced run: an untraced daemon, then a traced one, on the same
    # inputs, each for half the run.
    half = seconds / 2
    daemon = Daemon(csv, seed)
    try:
        plain = _measure(daemon, lines, payloads, half, bootstrap, outcome)
    finally:
        daemon.stop()
    drift.sample()
    spans_path = harness.OUT_DIR / "daemon-spans.jsonl"
    daemon = Daemon(csv, seed, trace_out=spans_path)
    try:
        traced = _measure(daemon, lines, payloads, half, bootstrap, outcome)
    finally:
        code = daemon.stop()
    drift.sample()
    outcome.check(code == 0, f"serve: traced daemon exited with code {code}")
    outcome.attempted = plain["attempted"] + traced["attempted"]
    outcome.failed = plain["failed"] + traced["failed"]
    spans = load_spans(spans_path)
    outcome.metrics.update(_layer_metrics(spans, traced, plain))
    outcome.metrics["setup.import_s"] = import_s
    kinds = _kind_shares(spans, traced)
    outcome.metrics["serve.compute_round_share"] = sum(
        kinds[k]["round_share"] for k in ("percentile", "portfolio")
    )
    outcome.diagnostics.update(
        request_kinds=kinds,
        untraced_round_ms=plain["round"],
        traced_round_ms=traced["round"],
        daemon_stats=traced["stats"],
        checks=traced["counts"],
        drift=drift.summary(),
    )
    return outcome


def _kind_shares(spans: List[Any], traced: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per kind of request in the traced window: requests and
    ``BidService.handle`` time (compute included) per round, the mean
    per request, and that time as a share of the median round latency."""
    t_start, t_end = traced["window_ns"]
    window = SpanTable(s for s in spans if t_start <= s[2] <= t_end)
    rounds = traced["round"]["n"]
    round_ms = traced["round"]["p50_ms"]
    out = {}
    for kind, name in enumerate(DAEMON_KINDS):
        ms = [(s[3] - s[2]) / 1e6 for s in window.outermost("serve.handle") if s[5] & 3 == kind]
        per_round_ms = sum(ms) / rounds
        out[name] = {
            "per_round": len(ms) / rounds,
            "handle_us": sum(ms) / len(ms) * 1e3 if ms else 0.0,
            "handle_ms_per_round": per_round_ms,
            "round_share": per_round_ms / round_ms,
        }
    return out


def _layer_metrics(
    spans: List[Any], traced: Dict[str, Any], plain: Dict[str, Any]
) -> Dict[str, float]:
    t_start, t_end = traced["window_ns"]
    rebuilds = sorted((s for s in spans if s[1] == "serve.rebuild"), key=lambda s: s[2])
    initial = rebuilds[0] if rebuilds else None
    window = SpanTable(s for s in spans if t_start <= s[2] <= t_end)
    decisions = traced["attempted"]

    def per_call_us(name: str) -> float:
        calls = window.of(name)
        return window.self_seconds(name) / len(calls) * 1e6 if calls else 0.0

    def per_decision_us(name: str) -> float:
        return window.self_seconds(name) / decisions * 1e6

    stats = traced["stats"]
    service, cache = stats["service"], stats["cache"]
    lookups = cache["memory_hits"] + cache["file_hits"] + cache["misses"] + cache["stale"]
    compute = [s[3] - s[2] for s in window.under("core.decide", "serve.table_decide")]
    in_window = [s for s in rebuilds if s is not initial and t_start <= s[2] <= t_end]
    cpu_us = traced["cpu_s"] / decisions * 1e6
    in_process_us = (
        window.self_seconds("serve.decode")
        + window.total_seconds("serve.handle")
        + window.self_seconds("serve.encode")
        + window.total_seconds("serve.rebuild")
    ) / decisions * 1e6
    return {
        "serve.decode_us": per_decision_us("serve.decode"),
        "serve.handle_us": per_call_us("serve.handle"),
        "serve.cache_get_us": per_call_us("serve.cache_get"),
        "serve.cache_put_us": per_call_us("serve.cache_put"),
        "serve.cache_hit_ratio": (cache["memory_hits"] + cache["file_hits"]) / lookups
        if lookups
        else 0.0,
        "serve.table_decide_us": per_call_us("serve.table_decide"),
        "serve.compute_share": service["by_tier"].get("compute", 0) / service["requests"],
        "serve.compute_us": sum(compute) / len(compute) / 1e3 if compute else 0.0,
        "serve.encode_us": per_decision_us("serve.encode"),
        "serve.daemon_cpu_us": cpu_us,
        "serve.transport_us": cpu_us - in_process_us,
        "serve.rebuild_ms": sum(s[3] - s[2] for s in in_window) / len(in_window) / 1e6
        if in_window
        else 0.0,
        "serve.rebuilds": float(len(in_window)),
        "serve.degraded_share": traced["counts"]["degraded"] / traced["counts"]["answers"],
        "core.decide_s": window.self_seconds("core.decide"),
        "core.decide_calls": float(window.calls("core.decide")),
        "setup.tables_s": (initial[3] - initial[2]) / 1e9 if initial else 0.0,
        "trace.overhead_share": traced["round"]["p50_ms"] / plain["round"]["p50_ms"] - 1.0,
    }
