"""The request/response decision API and its wire encoding."""

import json

import pytest

from repro.core.types import (
    BidDecision,
    BidKind,
    DecisionRequest,
    DecisionResponse,
    DegradedDecision,
    JobSpec,
    Strategy,
)
from repro.errors import ServeError
from repro.serve.protocol import (
    decode_line,
    encode_line,
    error_to_wire,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)


@pytest.fixture
def job():
    return JobSpec(execution_time=2.0, recovery_time=0.01)


@pytest.fixture
def decision():
    return BidDecision(
        price=0.0567,
        kind=BidKind.PERSISTENT,
        expected_cost=0.081,
        expected_completion_time=2.25,
        expected_running_time=2.1,
        expected_interruptions=0.5,
        acceptance_probability=0.97,
    )


class TestDecisionRequest:
    def test_defaults(self, job):
        request = DecisionRequest(job=job)
        assert request.strategy is Strategy.PERSISTENT
        assert request.percentile == 90.0
        assert request.degrade is False
        assert request.instance_type is None

    def test_percentile_must_be_in_range(self, job):
        with pytest.raises(ValueError):
            DecisionRequest(job=job, percentile=101.0)
        with pytest.raises(ValueError):
            DecisionRequest(job=job, percentile=-1.0)

    def test_legacy_strategy_strings_warn_and_normalize(self, job):
        # A string strategy is rejected; only the member is accepted.
        with pytest.raises(ValueError, match="unknown strategy"):
            DecisionRequest(job=job, strategy="persistent")
        request = DecisionRequest(job=job, strategy=Strategy.PERSISTENT)
        assert request.strategy is Strategy.PERSISTENT

    def test_unknown_strategy_rejected(self, job):
        with pytest.raises(ValueError):
            DecisionRequest(job=job, strategy="yolo")


class TestDecisionResponse:
    def test_metric_passthrough(self, job, decision):
        response = DecisionResponse(decision=decision, request=DecisionRequest(job=job))
        assert response.price == decision.price
        assert response.kind is decision.kind
        assert response.expected_cost == decision.expected_cost
        assert response.acceptance_probability == decision.acceptance_probability
        assert response.degraded is False
        assert response.strategy is Strategy.PERSISTENT

    def test_with_serving_stamps_provenance(self, job, decision):
        response = DecisionResponse(decision=decision, request=DecisionRequest(job=job))
        stamped = response.with_serving(
            table_version="abc.g7", cache_tier="table", degradation_reason=None
        )
        assert stamped.table_version == "abc.g7"
        assert stamped.cache_tier == "table"
        assert stamped.decision is decision  # the decision itself is shared
        assert response.table_version is None  # original is untouched

    def test_degraded_decision_surfaces_its_reason(self, job):
        degraded = DegradedDecision(
            price=0.35,
            kind=BidKind.PERSISTENT,
            expected_cost=0.7,
            expected_completion_time=2.0,
            expected_running_time=2.0,
            expected_interruptions=0.0,
            acceptance_probability=1.0,
            reason="infeasible",
        )
        response = DecisionResponse(
            decision=degraded,
            request=DecisionRequest(job=job),
            degradation_reason=degraded.reason,
        )
        assert response.degraded is True
        assert response.degradation_reason == "infeasible"


class TestWireFormat:
    def test_request_roundtrip_is_exact(self, job):
        request = DecisionRequest(
            job=job,
            strategy=Strategy.ONE_TIME,
            percentile=87.5,
            degrade=True,
            instance_type="r3.xlarge",
        )
        again = request_from_wire(
            json.loads(json.dumps(request_to_wire(request)))
        )
        assert again == request

    def test_wire_requests_default_to_degrade(self, job):
        payload = request_to_wire(DecisionRequest(job=job))
        del payload["degrade"]
        assert request_from_wire(payload).degrade is True

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_degrade_must_be_a_boolean(self, job, flag):
        payload = request_to_wire(DecisionRequest(job=job))
        payload["degrade"] = flag
        with pytest.raises(ServeError, match="degrade"):
            request_from_wire(payload)
        payload["degrade"] = False
        assert request_from_wire(payload).degrade is False

    @pytest.mark.parametrize(
        "field,value",
        [
            ("execution_time", True),
            ("recovery_time", "0.01"),
            ("slot_length", True),
            ("percentile", True),
            ("max_variance", True),
            ("cvar_alpha", "0.95"),
        ],
    )
    def test_numeric_fields_must_be_json_numbers(self, job, field, value):
        payload = request_to_wire(DecisionRequest(job=job))
        target = payload["job"] if field in payload["job"] else payload
        target[field] = value
        with pytest.raises(ServeError, match=field):
            request_from_wire(payload)

    @pytest.mark.parametrize("instance_type", [7, 1.5, ["r3.xlarge"], True])
    def test_instance_type_must_be_a_string_or_null(self, job, instance_type):
        payload = request_to_wire(DecisionRequest(job=job))
        payload["instance_type"] = instance_type
        with pytest.raises(ServeError, match="instance_type"):
            request_from_wire(payload)
        payload["instance_type"] = None
        assert request_from_wire(payload).instance_type is None

    def test_missing_job_fields_raise_serve_error(self):
        with pytest.raises(ServeError):
            request_from_wire({"op": "decide", "job": {"execution_time": 1.0}})

    def test_response_roundtrip_is_exact(self, job, decision):
        request = DecisionRequest(job=job)
        response = DecisionResponse(
            decision=decision,
            request=request,
            table_version="abc.g3",
            cache_tier="table",
        )
        wire = json.loads(json.dumps(response_to_wire(response)))
        again = response_from_wire(wire, request)
        # Bitwise: dataclass equality compares floats with ``==``.
        assert again.decision == decision
        assert again.table_version == "abc.g3"
        assert again.cache_tier == "table"

    def test_error_payloads_raise_on_decode(self, job):
        with pytest.raises(ServeError, match="boom"):
            response_from_wire(
                error_to_wire("boom"), DecisionRequest(job=job)
            )

    def test_line_codec_rejects_garbage(self):
        assert decode_line(encode_line({"op": "health"})) == {"op": "health"}
        with pytest.raises(ServeError):
            decode_line(b"\xff\xfe not utf8 json")
        with pytest.raises(ServeError):
            decode_line(b'["a", "list"]')

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_line_codec_rejects_non_finite_literals(self, literal):
        line = (
            '{"op": "decide", "job": {"execution_time": %s, '
            '"slot_length": 0.08}}' % literal
        ).encode()
        with pytest.raises(ServeError, match=literal.lstrip("-")):
            decode_line(line)
