"""Wire format of the decision service: JSON lines over TCP.

One request per line, one response per line, UTF-8 JSON with no framing
beyond the newline — trivially scriptable (``nc`` + ``jq`` suffice) and
safe for pipelining.  Python's ``json`` round-trips floats through
``repr`` exactly, so a decision that crosses the wire (or the file cache,
which reuses these encoders) compares bitwise-equal to the in-process
object — the serving layer's equivalence guarantee survives transport.

Requests are objects with an ``op`` field:

* ``{"op": "decide", "job": {...}, "strategy": "persistent", ...}``
* ``{"op": "health"}``
* ``{"op": "stats"}``

Responses echo ``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``.

Decoding checks types, never coerces them: a line carrying the
non-standard ``NaN`` / ``Infinity`` / ``-Infinity`` literals, a
``degrade`` that is not a boolean, a numeric field that is not a JSON
number (``true`` is not 1.0), or a non-string ``instance_type`` is
answered with :class:`~repro.errors.ServeError`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..core.types import (
    BidDecision,
    BidKind,
    CvarDecision,
    DecisionRequest,
    DecisionResponse,
    DegradedDecision,
    JobSpec,
    PortfolioDecision,
    Strategy,
)
from ..errors import ServeError

__all__ = [
    "decode_line",
    "encode_line",
    "request_to_wire",
    "request_from_wire",
    "decision_to_wire",
    "decision_from_wire",
    "response_to_wire",
    "response_from_wire",
    "error_to_wire",
]


def encode_line(payload: Dict[str, Any]) -> bytes:
    """Serialize one protocol object to a newline-terminated JSON line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def _reject_constant(name: str) -> Any:
    raise ServeError(f"malformed wire line: {name} is not a JSON number")


#: One shared decoder: ``json.loads(..., parse_constant=...)`` would
#: build a new decoder on every call, and decoding is on the hot path.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises :class:`ServeError` on malformed input,
    including the ``NaN`` and ``Infinity`` literals."""
    try:
        payload = _DECODER.decode(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"malformed wire line: {exc}") from None
    if not isinstance(payload, dict):
        raise ServeError(
            f"wire line must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def request_to_wire(request: DecisionRequest) -> Dict[str, Any]:
    """Encode a decide request (the loadgen/client side)."""
    return {
        "op": "decide",
        "job": {
            "execution_time": request.job.execution_time,
            "recovery_time": request.job.recovery_time,
            "slot_length": request.job.slot_length,
        },
        "strategy": request.strategy.value,
        "percentile": request.percentile,
        "max_variance": request.max_variance,
        "cvar_alpha": request.cvar_alpha,
        "degrade": request.degrade,
        "instance_type": request.instance_type,
    }


def _number(value: Any, field: str) -> float:
    """A JSON number as a float.  Exact type tests: ``bool`` is an
    ``int`` subclass, and ``true`` is not a number on the wire."""
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise ServeError(
        f"invalid decide request: {field} must be a number, got {value!r}"
    )


def request_from_wire(payload: Dict[str, Any]) -> DecisionRequest:
    """Decode a decide request (the service side).

    Raises :class:`ServeError` on missing fields and on fields of the
    wrong JSON type, so the service can answer with a structured error
    instead of dying or guessing.
    """
    degrade = payload.get("degrade", True)
    if not isinstance(degrade, bool):
        raise ServeError(
            f"invalid decide request: degrade must be true or false, "
            f"got {degrade!r}"
        )
    instance_type = payload.get("instance_type")
    if instance_type is not None and not isinstance(instance_type, str):
        raise ServeError(
            f"invalid decide request: instance_type must be a string or "
            f"null, got {instance_type!r}"
        )
    max_variance = payload.get("max_variance")
    try:
        job_fields = payload["job"]
        job = JobSpec(
            execution_time=_number(
                job_fields["execution_time"], "execution_time"
            ),
            recovery_time=_number(
                job_fields.get("recovery_time", 0.0), "recovery_time"
            ),
            slot_length=_number(job_fields["slot_length"], "slot_length"),
        )
        strategy = Strategy(payload.get("strategy", Strategy.PERSISTENT.value))
        return DecisionRequest(
            job=job,
            strategy=strategy,
            percentile=_number(payload.get("percentile", 90.0), "percentile"),
            max_variance=(
                None
                if max_variance is None
                else _number(max_variance, "max_variance")
            ),
            cvar_alpha=_number(payload.get("cvar_alpha", 0.95), "cvar_alpha"),
            degrade=degrade,
            instance_type=instance_type,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"invalid decide request: {exc}") from None


def decision_to_wire(decision: BidDecision) -> Dict[str, Any]:
    """Encode a decision payload; floats survive the round trip exactly."""
    wire: Dict[str, Any] = {
        "price": decision.price,
        "kind": decision.kind.value,
        "expected_cost": decision.expected_cost,
        "expected_completion_time": decision.expected_completion_time,
        "expected_running_time": decision.expected_running_time,
        "expected_interruptions": decision.expected_interruptions,
        "acceptance_probability": decision.acceptance_probability,
        "degraded": decision.degraded,
    }
    if isinstance(decision, DegradedDecision):
        wire["reason"] = decision.reason
    elif isinstance(decision, PortfolioDecision):
        wire["portfolio"] = {
            "spot_fraction": decision.spot_fraction,
            "price_variance": decision.price_variance,
        }
    elif isinstance(decision, CvarDecision):
        wire["cvar"] = {
            "alpha": decision.alpha,
            "cvar": decision.cvar,
            "n_windows": decision.n_windows,
        }
    return wire


def _opt_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


def decision_from_wire(payload: Dict[str, Any]) -> BidDecision:
    """Decode a decision payload back into the dataclass."""
    try:
        common: Dict[str, Any] = dict(
            price=float(payload["price"]),
            kind=BidKind(payload["kind"]),
            expected_cost=float(payload["expected_cost"]),
            expected_completion_time=_opt_float(
                payload.get("expected_completion_time")
            ),
            expected_running_time=_opt_float(payload.get("expected_running_time")),
            expected_interruptions=_opt_float(payload.get("expected_interruptions")),
            acceptance_probability=_opt_float(payload.get("acceptance_probability")),
        )
        if payload.get("degraded"):
            return DegradedDecision(reason=str(payload.get("reason", "")), **common)
        if "portfolio" in payload:
            extra = payload["portfolio"]
            return PortfolioDecision(
                spot_fraction=float(extra["spot_fraction"]),
                price_variance=float(extra["price_variance"]),
                **common,
            )
        if "cvar" in payload:
            extra = payload["cvar"]
            return CvarDecision(
                alpha=float(extra["alpha"]),
                cvar=float(extra["cvar"]),
                n_windows=int(extra["n_windows"]),
                **common,
            )
        return BidDecision(**common)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"invalid decision payload: {exc}") from None


def response_to_wire(response: DecisionResponse) -> Dict[str, Any]:
    """Encode a decide response (provenance included)."""
    return {
        "ok": True,
        "decision": decision_to_wire(response.decision),
        "table_version": response.table_version,
        "cache_tier": response.cache_tier,
        "degradation_reason": response.degradation_reason,
    }


def response_from_wire(
    payload: Dict[str, Any], request: DecisionRequest
) -> DecisionResponse:
    """Decode a decide response, re-attaching the originating request."""
    if not payload.get("ok"):
        raise ServeError(f"service error: {payload.get('error', 'unknown')}")
    try:
        decision = decision_from_wire(payload["decision"])
    except KeyError:
        raise ServeError("decide response is missing the decision") from None
    return DecisionResponse(
        decision=decision,
        request=request,
        table_version=payload.get("table_version"),
        cache_tier=payload.get("cache_tier"),
        degradation_reason=payload.get("degradation_reason"),
    )


def error_to_wire(message: str) -> Dict[str, Any]:
    """The structured error line the service answers bad input with."""
    return {"ok": False, "error": message}
