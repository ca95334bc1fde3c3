"""The decision daemon: guard → cache → tables, and the TCP transport."""

import asyncio
import json
from dataclasses import replace

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
from repro.errors import ServeError
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


class TestHandle:
    def test_tier_progression_table_then_memory(self, service, grid_request):
        first = service.handle(grid_request)
        second = service.handle(grid_request)
        assert first.cache_tier == "table"
        assert second.cache_tier == "memory"
        assert second.decision == first.decision
        assert service.stats.requests == 2
        assert service.stats.by_tier == {"table": 1, "memory": 1}

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
        assert payload["cache"]["misses"] == 1
        assert payload["table_version"] == service.state.tables.version


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


def _decide_line(strategy, execution_time=1.0, **fields):
    job = {
        "execution_time": execution_time,
        "recovery_time": seconds(30),
        "slot_length": DEFAULT_SLOT_HOURS,
    }
    payload = {"op": "decide", "job": job, "strategy": strategy, **fields}
    return json.dumps(payload, ensure_ascii=False).encode() + b"\n"


HEALTH = b'{"op":"health"}\n'

#: Frames the fuzzer strings together: a valid decide of every kind (one
#: off the table grid), the introspection ops, three malformed lines, a
#: blank and a CRLF line, and raw multi-byte UTF-8 for a cut to split.
FRAMES = [
    *(_decide_line(strategy.value) for strategy in Strategy),
    _decide_line("persistent", execution_time=1.5),
    _decide_line("one-time", instance_type="r3.xlarge-\u00e9\u6f22"),
    HEALTH,
    b'{"op":"stats"}\n',
    b'{"op": "decide", "job": \n',
    b'{"op":"decide","job":{"execution_time":NaN,"slot_length":0.08}}\n',
    b"[1, 2]\n",
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
