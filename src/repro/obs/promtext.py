"""Prometheus text-exposition rendering of a metrics snapshot.

:func:`render_prometheus` flattens the nested JSON document produced by
:class:`~repro.obs.registry.UnifiedRegistry` into the Prometheus text
format (version 0.0.4), so any node of the serving tier -- a standalone
``esd serve``, a cluster writer, a replica, or the router -- can be
scraped by an external monitor over the same socket it serves queries
on (``metrics-text`` op, or a literal ``GET /metrics`` request line).

Flattening rules:

* nested dict keys join with ``_`` and are sanitized to the metric-name
  alphabet ``[a-zA-Z0-9_]`` (``p50_ms`` stays ``p50_ms``, ``esd
  serve``-style keys become ``esd_serve``);
* numeric leaves render as ``<prefix>_<path> <value>``; booleans render
  as 0/1 gauges; strings and ``None`` are skipped (Prometheus has no
  text samples);
* lists are skipped wholesale -- ring buffers like the slow-query log
  would otherwise mint an unbounded metric-name space;
* one well-known sub-document gets labels instead of name-mangling: the
  per-endpoint latency table renders as
  ``esd_endpoint_requests{endpoint="topk"} 5`` and friends, which is
  the shape dashboards actually want to aggregate across nodes.

Rendering never raises on snapshot content: a malformed source value is
skipped, because a scrape must not take the node down (the same
contract :class:`UnifiedRegistry` itself keeps).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "render_prometheus",
    "http_metrics_response",
    "Sample",
    "parse_prometheus",
    "samples_by_name",
]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")

#: The per-endpoint sub-document rendered with labels rather than
#: flattened names (see module docstring).
_ENDPOINTS_KEY = "endpoints"


def _sanitize(part: str) -> str:
    part = _NAME_OK.sub("_", str(part))
    if not part or part[0].isdigit():
        part = "_" + part
    return part


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return "NaN" if math.isnan(value) else (
                "+Inf" if value > 0 else "-Inf"
            )
        return repr(value)
    return str(value)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, bool))


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_endpoints(
    prefix: str, endpoints: Dict[str, Any], lines: List[str]
) -> None:
    for endpoint in sorted(endpoints):
        stats = endpoints[endpoint]
        if not isinstance(stats, dict):
            continue
        labels = f'endpoint="{_escape_label(endpoint)}"'
        for field in sorted(stats):
            value = stats[field]
            if not _is_number(value):
                continue
            lines.append(
                f"{prefix}_endpoint_{_sanitize(field)}"
                f"{{{labels}}} {_format_value(value)}"
            )


def _walk(prefix: str, node: Any, lines: List[str]) -> None:
    if isinstance(node, dict):
        for key in sorted(node, key=str):
            value = node[key]
            if key == _ENDPOINTS_KEY and isinstance(value, dict):
                _render_endpoints(prefix, value, lines)
            else:
                _walk(f"{prefix}_{_sanitize(key)}", value, lines)
    elif _is_number(node):
        lines.append(f"{prefix} {_format_value(node)}")
    # strings, None, lists: no Prometheus representation -- skip.


def render_prometheus(snapshot: Dict[str, Any], prefix: str = "esd") -> str:
    """Render a metrics snapshot as Prometheus text exposition."""
    lines: List[str] = []
    _walk(_sanitize(prefix), snapshot, lines)
    return "\n".join(lines) + "\n"


# -- parsing ------------------------------------------------------------------
#
# The loadgen harness scrapes ``GET /metrics`` before and after a run
# and folds the deltas into its report, so it needs to read the format
# back.  The parser is deliberately *tolerant*: a scrape consumer must
# not die on one malformed line (comments, future types, exemplars...),
# so anything unparseable is skipped, mirroring the renderer's
# never-raise contract in the other direction.


@dataclass(frozen=True)
class Sample:
    """One parsed exposition line: ``name{labels} value``."""

    name: str
    labels: Tuple[Tuple[str, str], ...]  #: sorted (key, value) pairs
    value: float

    @property
    def labels_dict(self) -> Dict[str, str]:
        return dict(self.labels)


_METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?\s*$"
)

_LABEL_PAIR = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(?:\\.|[^"\\])*)"\s*(?:,|$)'
)

_UNESCAPE = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}


def _unescape_label(raw: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(raw):
        pair = raw[i : i + 2]
        if pair in _UNESCAPE:
            out.append(_UNESCAPE[pair])
            i += 2
        else:
            out.append(raw[i])
            i += 1
    return "".join(out)


def _parse_labels(raw: Optional[str]) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Parse the inside of ``{...}``; None when malformed."""
    if raw is None or raw.strip() == "":
        return ()
    pairs: List[Tuple[str, str]] = []
    position = 0
    while position < len(raw):
        match = _LABEL_PAIR.match(raw, position)
        if match is None:
            return None
        pairs.append(
            (match.group("key"), _unescape_label(match.group("value")))
        )
        position = match.end()
    return tuple(sorted(pairs))


def _parse_value(raw: str) -> Optional[float]:
    try:
        return float(raw)  # accepts "+Inf", "-Inf", "NaN" spellings too
    except ValueError:
        return None


def parse_prometheus(text: str) -> List[Sample]:
    """Parse text exposition into samples, skipping what it cannot read.

    Handles label-value escaping (``\\\\``, ``\\"``, ``\\n``), ``+Inf`` /
    ``-Inf`` / ``NaN`` values, optional trailing timestamps, ``# HELP`` /
    ``# TYPE`` comments, and arbitrary garbage lines (skipped).  The
    round trip ``parse_prometheus(render_prometheus(snapshot))`` loses
    nothing the renderer emitted.
    """
    samples: List[Sample] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _METRIC_LINE.match(line)
        if match is None:
            continue
        labels = _parse_labels(match.group("labels"))
        if labels is None:
            continue
        value = _parse_value(match.group("value"))
        if value is None:
            continue
        samples.append(Sample(match.group("name"), labels, value))
    return samples


def samples_by_name(
    samples: List[Sample],
) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Index samples as ``name -> {labels: value}`` (later lines win)."""
    table: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for sample in samples:
        table.setdefault(sample.name, {})[sample.labels] = sample.value
    return table


def http_metrics_response(body: str) -> bytes:
    """Wrap rendered metrics text in a minimal HTTP/1.0 response.

    Lets a stock Prometheus scraper (or ``curl``) hit the JSON-line
    port directly: the servers special-case request lines starting with
    ``GET `` and answer with this instead of a protocol error.
    """
    payload = body.encode("utf-8")
    head = (
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + payload
