"""The service's JSON line protocol: framing, envelopes, error codes.

One request per line, one response per line, UTF-8 JSON (no embedded
newlines).  Requests are objects with an ``op`` field plus op-specific
fields and an optional caller-chosen ``id`` echoed back verbatim::

    {"op": "topk", "k": 10, "tau": 2, "metric": "esd", "id": 7}

``topk``, ``score`` and ``watch`` accept an optional ``metric`` field
for the ranking; only ``"esd"`` (the default) is served, and any other
value is answered with ``invalid_argument``.  The other edge rankings
are offline only (``esd topk --metric``).

Responses are either::

    {"ok": true, "result": {...}, "id": 7}
    {"ok": false, "error": {"code": "...", "message": "..."}, "id": 7}

Edges travel as 2-element arrays ``[u, v]`` and scored edges as
3-element arrays ``[u, v, score]``; vertex ids must match the server's
graph exactly (the stand-in datasets use integers).

Error codes
-----------
``bad_request``        malformed JSON, oversized line, or missing ``op``
``unknown_op``         the ``op`` value is not served
``invalid_argument``   a field has the wrong type/value (e.g. ``k < 1``,
                       inserting an edge that already exists)
``not_found``          the referenced edge/watch does not exist
``overloaded``         admission control rejected the request (backpressure)
``internal``           unexpected server-side failure
``read_only``          a mutation was sent to a read replica
``unavailable``        the cluster cannot serve this request right now
                       (writer down, no replica fresh enough, backend
                       timeout) -- safe to retry

Cluster extension: read requests may carry an optional integer
``min_version`` -- a *version token*.  A server honouring tokens only
answers from state whose ``graph_version`` is at least that value (a
replica that is behind answers ``unavailable`` instead).  Every
successful response carries the serving ``graph_version`` in its
result; echoing it back as ``min_version`` gives read-your-writes and
monotonic reads across nodes (see docs/CLUSTER.md).

One non-JSON special case: a request line starting with ``GET `` is
treated as an HTTP scrape of the node's metrics and answered with a
Prometheus text-exposition HTTP response (see
:mod:`repro.obs.promtext`), then the connection is closed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Hard cap on one request line; longer lines are rejected, not buffered.
MAX_LINE_BYTES = 1 << 20

BAD_REQUEST = "bad_request"
UNKNOWN_OP = "unknown_op"
INVALID_ARGUMENT = "invalid_argument"
NOT_FOUND = "not_found"
OVERLOADED = "overloaded"
INTERNAL = "internal"
READ_ONLY = "read_only"
UNAVAILABLE = "unavailable"

ERROR_CODES = frozenset(
    {
        BAD_REQUEST,
        UNKNOWN_OP,
        INVALID_ARGUMENT,
        NOT_FOUND,
        OVERLOADED,
        INTERNAL,
        READ_ONLY,
        UNAVAILABLE,
    }
)


def is_http_get(line: bytes) -> bool:
    """Is this request line the start of an HTTP GET (metrics scrape)?"""
    return line.startswith(b"GET ") or line == b"GET"


class ProtocolError(Exception):
    """A request the server can answer only with a structured error."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code: {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


def encode(message: Dict[str, Any]) -> bytes:
    """Serialize one protocol message to a newline-terminated JSON line."""
    return (
        json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one request line; raise :class:`ProtocolError` when malformed."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            BAD_REQUEST, f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(BAD_REQUEST, f"malformed JSON request: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(BAD_REQUEST, "request must be a JSON object")
    if not isinstance(message.get("op"), str):
        raise ProtocolError(BAD_REQUEST, "request must carry a string 'op'")
    return message


def ok_response(
    result: Any, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": True, "result": result}
    if request_id is not None:
        response["id"] = request_id
    return response


def error_response(
    code: str, message: str, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code: {code!r}")
    response: Dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if request_id is not None:
        response["id"] = request_id
    return response


def int_field(
    message: Dict[str, Any],
    name: str,
    default: Optional[int] = None,
    minimum: int = 1,
) -> int:
    """Extract a required/defaulted integer field, validating its range."""
    value = message.get(name, default)
    if value is None:
        raise ProtocolError(INVALID_ARGUMENT, f"missing required field {name!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            INVALID_ARGUMENT, f"field {name!r} must be an integer, got {value!r}"
        )
    if value < minimum:
        raise ProtocolError(
            INVALID_ARGUMENT, f"field {name!r} must be >= {minimum}, got {value}"
        )
    return value


def metric_field(message: Dict[str, Any]) -> None:
    """Check the optional ``metric`` field: absent or ``"esd"``.

    ``esd`` is the only ranking with a maintained top-k, so it is the
    only one served; anything else is refused here, before the request
    is timed or takes a lock.
    """
    value = message.get("metric", "esd")
    if value != "esd":
        raise ProtocolError(
            INVALID_ARGUMENT,
            f"field 'metric' must be 'esd' (the other rankings are "
            f"offline only: esd topk --metric), got {value!r}",
        )


def vertex_field(message: Dict[str, Any], name: str) -> Any:
    """Extract a vertex id (any JSON scalar except null/bool)."""
    value = message.get(name)
    if value is None or isinstance(value, bool) or isinstance(value, (list, dict)):
        raise ProtocolError(
            INVALID_ARGUMENT,
            f"field {name!r} must be a vertex id (number or string), got {value!r}",
        )
    return value
