"""One op table and one error mapping for every node that serves a
:class:`~repro.service.engine.QueryEngine`.

``esd serve``, the cluster writer and the cluster replicas answer a
decoded request the same way: look its ``op`` up in a table of handlers,
run the handler, and map what it raised to a protocol error code.
:func:`engine_ops` builds the table every engine-backed node starts
from; a node adds or replaces entries for what is specific to it (the
debug ``sleep`` op, ``cluster-info``, a replica's version gates and
``read_only`` refusals).  :func:`respond` runs one request through a
table.

An op missing from the table is answered ``unknown_op`` before anything
is timed, so a client cannot create metric series by inventing ops.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.obs.promtext import render_prometheus
from repro.service import protocol
from repro.service.protocol import ProtocolError

#: Content type of the Prometheus text-exposition format we render.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: A handler takes the decoded request and returns the JSON-ready result.
Handler = Callable[[Dict[str, Any]], Any]


def _k_tau(message: Dict[str, Any]):
    return (
        protocol.int_field(message, "k", default=10),
        protocol.int_field(message, "tau", default=2),
    )


def engine_ops(engine) -> Dict[str, Handler]:
    """The ops answered straight from ``engine``, as a fresh table."""

    def topk(message):
        k, tau = _k_tau(message)
        protocol.metric_field(message)
        return engine.topk(k, tau)

    def score(message):
        u = protocol.vertex_field(message, "u")
        v = protocol.vertex_field(message, "v")
        tau = protocol.int_field(message, "tau", default=2)
        protocol.metric_field(message)
        return engine.score(u, v, tau)

    def update(message):
        action = message.get("action")
        if action not in ("insert", "delete"):
            raise ProtocolError(
                protocol.INVALID_ARGUMENT,
                f"field 'action' must be 'insert' or 'delete', got {action!r}",
            )
        return engine.update(
            action,
            protocol.vertex_field(message, "u"),
            protocol.vertex_field(message, "v"),
        )

    def watch(message):
        k, tau = _k_tau(message)
        protocol.metric_field(message)
        return engine.watch(k, tau)

    return {
        "ping": lambda message: "pong",
        "topk": topk,
        "score": score,
        "stats": lambda message: engine.stats(),
        "update": update,
        "watch": watch,
        "changes": lambda message: engine.changes(
            protocol.int_field(message, "watch_id")
        ),
        "unwatch": lambda message: engine.unwatch(
            protocol.int_field(message, "watch_id")
        ),
        "metrics": lambda message: engine.metrics_snapshot(),
        "metrics-text": lambda message: {
            "content_type": PROMETHEUS_CONTENT_TYPE,
            "text": render_prometheus(engine.metrics_snapshot()),
        },
    }


def respond(
    ops: Dict[str, Handler], message: Dict[str, Any], metrics
) -> Dict[str, Any]:
    """Answer one decoded request from ``ops``; never raises.

    Domain errors map to protocol codes: ``ValueError``/``TypeError`` to
    ``invalid_argument``, ``KeyError`` to ``not_found``.  Anything else
    is an ``internal`` error, counted in ``metrics``.
    """
    request_id = message.get("id")
    op = message["op"]
    try:
        handler = ops.get(op)
        if handler is None:
            raise ProtocolError(protocol.UNKNOWN_OP, f"unknown op: {op!r}")
        return protocol.ok_response(handler(message), request_id)
    except ProtocolError as exc:
        return protocol.error_response(exc.code, exc.message, request_id)
    except (ValueError, TypeError) as exc:
        return protocol.error_response(
            protocol.INVALID_ARGUMENT, str(exc), request_id
        )
    except KeyError as exc:
        detail = exc.args[0] if exc.args else exc
        return protocol.error_response(
            protocol.NOT_FOUND, str(detail), request_id
        )
    except Exception as exc:  # never take a connection or the loop down
        metrics.incr("internal_errors")
        return protocol.error_response(
            protocol.INTERNAL, f"{type(exc).__name__}: {exc}", request_id
        )
