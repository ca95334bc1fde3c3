"""The decision daemon: guard → tables, or guard → cache → inline
computation, and the TCP transport."""

import asyncio
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serve.service as service_module
from repro.constants import DEFAULT_SLOT_HOURS, seconds
from repro.core.types import (
    BidDecision,
    CvarDecision,
    DecisionRequest,
    DegradedDecision,
    JobSpec,
    PortfolioDecision,
    Strategy,
)
from repro.errors import MarketError, ServeError
from repro.market.price_sources import TracePriceSource
from repro.serve.cache import DecisionCache
from repro.serve.ingest import IngestLoop, MarketState
from repro.serve.loadgen import build_requests, run_loadgen
from repro.serve.protocol import (
    decode_line,
    encode_line,
    error_to_wire,
    request_to_wire,
    response_to_wire,
)
from repro.serve.service import BidService, start_server

ONDEMAND = 0.35


@pytest.fixture
def state(serve_history, serve_grid):
    return MarketState(
        TracePriceSource(serve_history),
        initial_history=serve_history,
        ondemand_price=ONDEMAND,
        grid=serve_grid,
        rebuild_every=6,
    )


@pytest.fixture
def service(state):
    return BidService(
        state, cache=DecisionCache(capacity=64), stale_after=50
    )


@pytest.fixture
def grid_request(serve_history, serve_grid):
    return DecisionRequest(
        job=JobSpec(
            execution_time=serve_grid.execution_times[1],
            recovery_time=serve_grid.recovery_times[1],
            slot_length=serve_history.slot_length,
        ),
        strategy=Strategy.PERSISTENT,
    )


class _CacheReached(Exception):
    pass


class _RaisingCache(DecisionCache):
    """A cache that fails the test the moment the service consults it."""

    def get(self, request, table_version):
        raise _CacheReached(request)

    def put(self, request, response):
        raise _CacheReached(request)


class TestHandle:
    def test_tier_progression_table_always_compute_then_memory(
        self, service, grid_request
    ):
        first = service.handle(grid_request)
        second = service.handle(grid_request)
        assert first.cache_tier == second.cache_tier == "table"
        assert second.decision == first.decision
        assert all(v == 0 for v in service.cache.stats().as_dict().values())
        inline = replace(grid_request, strategy=Strategy.PERCENTILE)
        computed = service.handle(inline)
        cached = service.handle(inline)
        assert computed.cache_tier == "compute"
        assert cached.cache_tier == "memory"
        assert cached.decision == computed.decision
        assert service.stats.requests == 4
        assert service.stats.by_tier == {"table": 2, "compute": 1, "memory": 1}

    def test_tabled_requests_are_the_tables_answers_and_skip_the_cache(
        self, state, serve_history, serve_grid
    ):
        service = BidService(state, cache=_RaisingCache(), stale_after=50)
        requests = build_requests(
            200,
            grid=serve_grid,
            slot_length=serve_history.slot_length,
            rng=np.random.default_rng(20140814),
        )
        on_grid = {
            (t_s, t_r)
            for t_s in serve_grid.execution_times
            for t_r in serve_grid.recovery_times
        }
        placed = {
            (r.job.execution_time, r.job.recovery_time) in on_grid
            for r in requests
        }
        assert placed == {True, False}  # both on-grid and off-grid jobs
        for request in requests:
            served = service.handle(request)
            assert served == state.tables.decide(request)  # floats bit for bit
            assert served.cache_tier == "table"

    @pytest.mark.parametrize(
        "strategy,execution_time",
        [
            (Strategy.PERCENTILE, 1.0),
            (Strategy.PORTFOLIO, 1.0),
            (Strategy.PERSISTENT, 100.0),  # outside the grid
            (Strategy.ONE_TIME, 0.25),  # outside the grid
        ],
    )
    def test_inline_requests_go_through_the_cache(
        self, state, serve_history, strategy, execution_time
    ):
        service = BidService(state, cache=_RaisingCache(), stale_after=50)
        request = DecisionRequest(
            job=JobSpec(
                execution_time=execution_time,
                slot_length=serve_history.slot_length,
            ),
            strategy=strategy,
        )
        with pytest.raises(_CacheReached):
            service.handle(request)

    def test_stale_tables_degrade(self, state, service, grid_request):
        # Push the ingest counter past the TTL without rebuilding.
        state._rebuild_every = 10**9
        state.advance(service.stale_after + 1)
        response = service.handle(grid_request)
        assert "stale" in response.degradation_reason
        assert response.decision.degraded
        assert response.decision.price == ONDEMAND
        assert service.stats.degraded == 1
        assert service.health()["status"] == "degraded"

    def test_faulted_market_degrades(self, state, service, grid_request):
        state.faulted = True
        state.fault_reason = "injected"
        response = service.handle(grid_request)
        assert "market faulted: injected" in response.degradation_reason
        assert service.health()["faulted"] is True

    def test_healthy_service_reports_serving(self, service):
        payload = service.health()
        assert payload["ok"] and payload["status"] == "serving"
        assert payload["generation"] == 0
        assert payload["instance_type"] == "r3.xlarge"

    def test_stats_payload_reflects_traffic(self, service, grid_request):
        service.handle(grid_request)
        payload = service.stats_payload()
        assert payload["service"]["requests"] == 1
        assert payload["service"]["by_tier"] == {"table": 1}
        assert all(v == 0 for v in payload["cache"].values())
        service.handle(replace(grid_request, strategy=Strategy.PERCENTILE))
        payload = service.stats_payload()
        assert payload["service"]["requests"] == 2
        assert payload["cache"]["misses"] == 1
        assert payload["table_version"] == service.state.tables.version

    @pytest.mark.parametrize("slot_length", [0.0833, 1e300])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_another_slot_length_is_an_error_line(
        self, service, grid_request, strategy, slot_length
    ):
        job = replace(grid_request.job, slot_length=slot_length)
        payload = request_to_wire(replace(grid_request, job=job, strategy=strategy))
        answer = service.handle_wire(payload)
        assert answer["ok"] is False
        assert repr(slot_length) in answer["error"]
        assert repr(DEFAULT_SLOT_HOURS) in answer["error"]
        assert service.stats.errors == 1
        assert service.stats.requests == 0
        assert all(v == 0 for v in service.cache.stats().as_dict().values())

    def test_the_guard_answers_any_slot_length(self, state, service, grid_request):
        state.faulted = True
        state.fault_reason = "injected"
        job = replace(grid_request.job, slot_length=0.0833)
        response = service.handle(replace(grid_request, job=job))
        assert response.decision.degraded
        assert response.decision.price == ONDEMAND


class TestInstanceType:
    """One daemon serves one market: a decide naming another is refused."""

    def test_another_type_is_one_error_line_naming_both(self, service, grid_request):
        payload = request_to_wire(replace(grid_request, instance_type="c4.large"))
        answer = service.handle_wire(payload)
        assert answer == {
            "ok": False,
            "error": "request names instance type 'c4.large', but this "
            "daemon serves 'r3.xlarge'",
        }
        assert service.stats.errors == 1
        assert service.stats.requests == 0
        assert all(v == 0 for v in service.cache.stats().as_dict().values())

    @pytest.mark.parametrize("faulted", [False, True], ids=["serving", "faulted"])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_refused_for_every_strategy_and_by_a_degraded_market(
        self, state, service, grid_request, strategy, faulted
    ):
        # The on-demand fallback is the served market's price, so a
        # degraded daemon has no answer for another market either.
        state.faulted = faulted
        state.fault_reason = "injected" if faulted else None
        request = replace(grid_request, strategy=strategy, instance_type="c4.large")
        with pytest.raises(ServeError, match=r"'c4\.large'.*'r3\.xlarge'"):
            service.handle(request)
        assert service.stats.requests == 0

    @pytest.mark.parametrize("named", [None, "r3.xlarge"], ids=["unnamed", "served"])
    def test_a_request_for_the_served_market_is_answered(
        self, service, grid_request, named
    ):
        plain = service.handle_wire(request_to_wire(grid_request))
        answer = service.handle_wire(
            request_to_wire(replace(grid_request, instance_type=named))
        )
        assert answer["ok"] and answer["cache_tier"] == "table"
        assert answer["decision"] == plain["decision"]
        assert service.stats.errors == 0

    def test_a_daemon_whose_trace_names_no_type_answers_any(
        self, serve_history, serve_grid, grid_request
    ):
        unnamed = replace(serve_history, instance_type=None)
        state = MarketState(
            TracePriceSource(unnamed),
            initial_history=unnamed,
            ondemand_price=ONDEMAND,
            grid=serve_grid,
            rebuild_every=6,
        )
        service = BidService(state, cache=DecisionCache(capacity=64), stale_after=50)
        assert state.instance_type is None
        answer = service.handle_wire(
            request_to_wire(replace(grid_request, instance_type="c4.large"))
        )
        assert answer["ok"] and answer["cache_tier"] == "table"
        assert service.stats.errors == 0


class TestWireDispatch:
    def test_decide_roundtrip(self, service, grid_request):
        answer = service.handle_wire(request_to_wire(grid_request))
        assert answer["ok"]
        assert answer["cache_tier"] == "table"
        assert answer["decision"]["price"] == pytest.approx(
            service.handle(grid_request).price
        )

    def test_unknown_op_is_a_structured_error(self, service):
        answer = service.handle_wire({"op": "explode"})
        assert answer == {"ok": False, "error": "unknown op 'explode'"}
        assert service.stats.errors == 1

    def test_invalid_decide_payload_is_a_structured_error(self, service):
        answer = service.handle_wire({"op": "decide", "job": {}})
        assert not answer["ok"]
        assert "invalid decide request" in answer["error"]

    @pytest.mark.parametrize("field", ["execution_time", "percentile"])
    def test_an_integer_too_large_for_a_float_is_a_structured_error(
        self, service, grid_request, field
    ):
        payload = request_to_wire(replace(grid_request, strategy=Strategy.PERCENTILE))
        target = payload["job"] if field in payload["job"] else payload
        target[field] = 10**400
        answer = service.handle_wire(payload)
        assert answer["ok"] is False
        assert field in answer["error"] and "too large" in answer["error"]
        assert service.stats.errors == 1

    def test_a_decide_that_raises_is_a_structured_error(
        self, service, grid_request, monkeypatch
    ):
        def refuse(request):
            raise MarketError("compute tier refused")

        monkeypatch.setattr(service.state.tables.client, "respond", refuse)
        payload = request_to_wire(replace(grid_request, strategy=Strategy.PERCENTILE))
        answer = service.handle_wire(payload)
        assert answer == {"ok": False, "error": "compute tier refused"}
        assert service.stats.errors == 1
        assert service.stats.requests == 0


async def _roundtrip_lines(service, lines):
    """Boot the server on an ephemeral port and exchange raw lines."""
    server = await start_server(service, port=0)
    port = server.sockets[0].getsockname()[1]
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        answers = []
        for line in lines:
            writer.write(line)
            await writer.drain()
            answers.append(json.loads(await reader.readline()))
        writer.close()
        await writer.wait_closed()
    finally:
        server.close()
        await server.wait_closed()
    return answers


class TestTcpTransport:
    def test_decide_health_stats_over_the_socket(self, service, grid_request):
        local = service.handle(grid_request)  # also warms the cache
        wire = json.dumps(request_to_wire(grid_request)).encode() + b"\n"
        decide, health, stats = asyncio.run(
            _roundtrip_lines(
                service, [wire, b'{"op":"health"}\n', b'{"op":"stats"}\n']
            )
        )
        assert decide["ok"]
        # JSON floats round-trip exactly: the wire answer equals the
        # in-process one bit for bit.
        assert decide["decision"]["price"] == local.price
        assert decide["decision"]["expected_cost"] == local.expected_cost
        assert decide["table_version"] == local.table_version
        assert health["status"] == "serving"
        assert stats["service"]["requests"] >= 2

    def test_malformed_line_keeps_the_connection_alive(
        self, service, grid_request
    ):
        wire = json.dumps(request_to_wire(grid_request)).encode() + b"\n"
        bad, good = asyncio.run(
            _roundtrip_lines(service, [b"this is not json\n", wire])
        )
        assert not bad["ok"] and "malformed" in bad["error"]
        assert good["ok"]
        assert service.stats.errors == 1

    def test_a_decide_that_raises_keeps_the_rest_of_the_burst(self, service):
        """A CVAR decide at another slot length, between two ops sent in
        one write, gets an error line; the ops around it are answered
        and the connection survives."""

        async def burst():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            server = await start_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(HEALTH + BAD_CVAR + b'{"op":"stats"}\n')
                await writer.drain()
                lines = [await reader.readline() for _ in range(3)]
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
            return lines, unhandled

        lines, unhandled = asyncio.run(burst())
        health, decide, stats = [json.loads(line) for line in lines]
        assert health["status"] == "serving"
        assert decide["ok"] is False and "slot length" in decide["error"]
        assert stats["ok"] and stats["service"]["errors"] == 1
        assert not unhandled

    def test_server_runs_the_ingest_loop(self, state, service):
        async def serve_and_ingest():
            ingest = IngestLoop(state)
            server = await start_server(
                service, port=0, ingest=ingest, max_ingest_slots=8
            )
            try:
                await server._repro_ingest_task
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(serve_and_ingest())
        assert state.slots_ingested == 8
        assert state.tables.generation == 1  # rebuild_every=6 fired once


class TestLoadgenEndToEnd:
    def test_small_run_reports_zero_errors(
        self, service, serve_history, serve_grid, rng
    ):
        requests = build_requests(
            40,
            grid=serve_grid,
            slot_length=serve_history.slot_length,
            rng=rng,
        )

        async def drive():
            server = await start_server(service, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await run_loadgen(
                    "127.0.0.1", port, requests, connections=2, pipeline=4
                )
            finally:
                server.close()
                await server.wait_closed()

        report = asyncio.run(drive())
        assert report.n_requests == 40
        assert report.errors == 0
        assert len(report.latencies_ms) == 40
        assert report.qps > 0
        assert sum(report.histogram().values()) == 40
        payload = report.as_dict()
        assert payload["p50_ms"] <= payload["p99_ms"]
        assert service.stats.requests == 40


class TestSharedEncoder:
    def test_bytes_equal_json_dumps(self, state, service, grid_request):
        """The wire and the file cache tier share ``encode_line``: its
        bytes are exactly those of ``json.dumps`` with compact
        separators, for every payload the daemon sends."""
        responses = [
            service.handle(replace(grid_request, strategy=strategy))
            for strategy in (Strategy.PERSISTENT, Strategy.PORTFOLIO, Strategy.CVAR)
        ]
        state.faulted = True
        state.fault_reason = "injected \u00fc"
        responses.append(service.handle(grid_request))
        assert [type(r.decision) for r in responses] == [
            BidDecision,
            PortfolioDecision,
            CvarDecision,
            DegradedDecision,
        ]
        payloads = [response_to_wire(r) for r in responses] + [
            error_to_wire("unknown op '\u00fc'"),
            service.health(),
            service.stats_payload(),
        ]
        for payload in payloads:
            expected = json.dumps(payload, separators=(",", ":")) + "\n"
            assert encode_line(payload) == expected.encode()


# -- the reader: framing, and one write per read -----------------------------


class _CountingReader(asyncio.StreamReader):
    """An in-memory StreamReader that counts the reads made of it."""

    reads = 0

    async def read(self, n=-1):
        self.reads += 1
        return await super().read(n)


class _RecordingWriter:
    """The StreamWriter calls ``handle_connection`` makes, recorded."""

    def __init__(self):
        self.writes = []
        self.closed = False

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        pass

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass


async def _feed(service, chunks, *, eof=True):
    """Run ``service.handle_connection`` on an in-memory reader fed
    ``chunks`` one at a time, each once the handler has consumed the
    one before.  Returns the reader, the writer and every context that
    reached the loop's exception handler."""
    unhandled = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: unhandled.append(context)
    )
    reader = _CountingReader()
    writer = _RecordingWriter()
    task = asyncio.create_task(service.handle_connection(reader, writer))

    async def consumed(reads):
        # The handler yields only to wait for data: once it has asked
        # for another read, it has answered all it was given.
        for _ in range(100):
            if task.done() or reader.reads > reads:
                return
            await asyncio.sleep(0)

    await consumed(0)
    for chunk in chunks:
        if task.done():
            break
        reads = reader.reads
        reader.feed_data(chunk)
        await consumed(reads)
    if eof and not task.done():
        reader.feed_eof()
    await asyncio.wait_for(task, timeout=10)
    return reader, writer, unhandled


def _line_by_line(service, data):
    """The answers ``service`` gives to ``data`` taken one line at a
    time, the way ``readline()`` framed it."""
    answers = []
    for line in data.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            payload = decode_line(line)
        except ServeError as exc:
            service.stats.errors += 1
            answer = error_to_wire(str(exc))
        else:
            answer = service.handle_wire(payload)
        answers.append(encode_line(answer))
    return answers


def _decide_line(
    strategy, execution_time=1.0, slot_length=DEFAULT_SLOT_HOURS, **fields
):
    job = {
        "execution_time": execution_time,
        "recovery_time": seconds(30),
        "slot_length": slot_length,
    }
    payload = {"op": "decide", "job": job, "strategy": strategy, **fields}
    return json.dumps(payload, ensure_ascii=False).encode() + b"\n"


HEALTH = b'{"op":"health"}\n'
#: A decide the daemon rejects after decoding it: a job at a slot length
#: other than the market's.
BAD_CVAR = _decide_line("cvar", slot_length=0.0833)

#: Frames the fuzzer strings together: a valid decide of every kind (one
#: off the table grid), the introspection ops, three malformed lines,
#: three decides the daemon rejects (one at another slot length, one with
#: an integer too large for a float, and one whose ``instance_type``,
#: raw multi-byte UTF-8 for a cut to split, names another market than
#: the served r3.xlarge), a blank and a CRLF line.
FRAMES = [
    *(_decide_line(strategy.value) for strategy in Strategy),
    _decide_line("persistent", execution_time=1.5),
    _decide_line("one-time", instance_type="r3.xlarge-\u00e9\u6f22"),
    HEALTH,
    b'{"op":"stats"}\n',
    b'{"op": "decide", "job": \n',
    b'{"op":"decide","job":{"execution_time":NaN,"slot_length":0.08}}\n',
    b"[1, 2]\n",
    BAD_CVAR,
    _decide_line("persistent", execution_time=10**400),
    b"\n",
    b'{"op":"health"}\r\n',
]


@st.composite
def _cut_streams(draw):
    """Frames joined into one byte stream, cut at arbitrary offsets into
    the chunks that reach the reader; half the time the last newline is
    dropped, so EOF falls inside the last line."""
    data = b"".join(draw(st.lists(st.sampled_from(FRAMES), max_size=12)))
    if data.endswith(b"\n") and draw(st.booleans()):
        data = data[:-1]
    cuts = draw(st.lists(st.integers(0, len(data)), max_size=16))
    bounds = [0, *sorted(set(cuts)), len(data)]
    return data, [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


class TestReader:
    @settings(
        deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(stream=_cut_streams())
    def test_answers_equal_a_line_by_line_twin(self, state, stream):
        data, chunks = stream
        served = BidService(state, cache=DecisionCache(capacity=64), stale_after=50)
        twin = BidService(state, cache=DecisionCache(capacity=64), stale_after=50)
        reader, writer, unhandled = asyncio.run(_feed(served, chunks))
        assert b"".join(writer.writes) == b"".join(_line_by_line(twin, data))
        assert len(writer.writes) <= reader.reads
        assert served.stats.as_dict() == twin.stats.as_dict()
        assert writer.closed and not unhandled

    def test_a_burst_in_one_read_is_answered_with_one_write(
        self, service, serve_grid
    ):
        burst = b"".join(
            _decide_line(
                ("persistent", "one-time")[i % 2],
                execution_time=serve_grid.execution_times[i % 4],
            )
            for i in range(200)
        )
        assert len(burst) < 2**16  # one read's worth
        _, writer, _ = asyncio.run(_feed(service, [burst]))
        assert len(writer.writes) == 1
        answers = [json.loads(a) for a in writer.writes[0].splitlines()]
        assert len(answers) == 200
        assert all(a["ok"] and not a["decision"]["degraded"] for a in answers)

    @pytest.mark.parametrize(
        "rest", [b"x" * 30_000 + b"\n" + HEALTH, b"x" * 30_000], ids=["line", "tail"]
    )
    def test_oversized_frame_gets_one_error_then_the_connection_closes(
        self, service, rest
    ):
        """A frame over 65,536 bytes, whether its newline came or not,
        is answered once with an error after the lines before it, and
        nothing after it is answered; the loop sees no exception."""
        chunks = [HEALTH + b"x" * 40_000, rest]
        _, writer, unhandled = asyncio.run(_feed(service, chunks, eof=False))
        answers = [json.loads(a) for a in b"".join(writer.writes).splitlines()]
        assert len(answers) == 2
        assert answers[0]["status"] == "serving"
        assert answers[1]["ok"] is False and "65536" in answers[1]["error"]
        assert service.stats.errors == 1
        assert writer.closed and not unhandled

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b""], ids=["lf", "crlf", "eof"])
    @pytest.mark.parametrize("size", [2**16, 2**16 + 1])
    def test_the_line_bound_is_the_one_readline_had(self, service, size, eol):
        """At most 65,536 bytes may come before the newline, a CR among
        them: the bound ``readline()`` enforced.  A last line that EOF
        cuts off has the same bound."""
        body = size - len(eol.rstrip(b"\n"))
        head, end = b'{"op":"health","pad":"', b'"}'
        frame = head + b"x" * (body - len(head) - len(end)) + end
        chunks = [frame[:40_000], frame[40_000:] + eol]
        _, writer, unhandled = asyncio.run(_feed(service, chunks))
        (answer,) = [json.loads(a) for a in b"".join(writer.writes).splitlines()]
        assert answer["ok"] is (size == 2**16)
        assert writer.closed and not unhandled

    def test_a_frame_trickled_one_byte_per_read_is_answered(
        self, service, grid_request
    ):
        frame = json.dumps(request_to_wire(grid_request)).encode() + b"\n"
        chunks = [frame[i : i + 1] for i in range(len(frame))]
        reader, writer, _ = asyncio.run(_feed(service, chunks))
        assert reader.reads > len(frame)
        assert len(writer.writes) == 1
        assert json.loads(writer.writes[0])["ok"]

    def test_decode_line_is_looked_up_on_the_module_once_per_line(
        self, service, monkeypatch
    ):
        """perfbench's traced daemon replaces
        ``repro.serve.service.decode_line`` to start one op per request
        line, so the reader calls it by that name for each line."""
        real = service_module.decode_line
        calls = []

        def counting(line):
            calls.append(line)
            return real(line)

        monkeypatch.setattr(service_module, "decode_line", counting)
        data = HEALTH + b"\n  \r\n" + b'{"op":"stats"}\r\n' + b"not json\n"
        asyncio.run(_feed(service, [data[:20], data[20:]]))
        assert calls == [b'{"op":"health"}', b'{"op":"stats"}', b"not json"]
