"""Capacity reports: BENCH_PR8.json emission, validation, rendering.

The sweep's output is a *gateable artifact*: CI re-runs a tiny sweep and
(a) validates the emitted JSON against :func:`validate_payload`, (b)
gates on zero protocol errors, exactly like the PR-5/PR-7 BENCH chain
gates on speedup ratios.  Raw rates are machine-dependent, so the
machine-independent number the report leads with is
``knee_vs_baseline`` -- the open-loop knee rate divided by the
closed-loop single-connection rate measured against the *same* server
moments earlier.

Prometheus folding: the driver scrapes ``GET /metrics`` before and
after the run and the per-endpoint request/error deltas land in the
report, tying client-observed latency to server-side counters in one
document.
"""

from __future__ import annotations

import json
import platform
import socket
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.bench.harness import ExperimentTable
from repro.obs.promtext import parse_prometheus, samples_by_name

#: Repository root -- BENCH_*.json records live next to README.md.
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Tag of the record this revision of the harness emits.
BENCH_TAG = "PR8"

#: Payload schema version (validate_payload checks it).
SCHEMA_VERSION = 1

#: Keys every sweep point must carry (schema floor, not ceiling).
_POINT_KEYS = (
    "offered_rate_rps",
    "goodput_rps",
    "error_rate",
    "latency_ms",
    "slo_met",
)
_LATENCY_KEYS = ("p50", "p95", "p99")


def build_payload(
    scenario: str,
    sweep: Dict,
    baseline_rate_rps: float,
    seed: int,
    workers: int,
    trial_duration_s: float,
    prometheus: Optional[Dict] = None,
) -> Dict:
    """Assemble the BENCH document from a sweep result."""
    knee = sweep.get("knee_rate_rps")
    payload: Dict[str, Any] = {
        "bench": BENCH_TAG,
        "schema": SCHEMA_VERSION,
        "kind": "loadgen",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scenario": scenario,
        "seed": seed,
        "workers": workers,
        "trial_duration_s": trial_duration_s,
        "baseline_rate_rps": round(baseline_rate_rps, 3),
        "sweep": sweep,
        "knee_rate_rps": knee,
        "knee_vs_baseline": (
            round(knee / baseline_rate_rps, 4)
            if knee and baseline_rate_rps > 0
            else None
        ),
    }
    if prometheus is not None:
        payload["prometheus"] = prometheus
    return payload


def validate_payload(payload: Dict) -> List[str]:
    """Schema check; returns human-readable problems (empty = valid)."""
    problems: List[str] = []

    def need(key: str, kinds) -> Any:
        if key not in payload:
            problems.append(f"missing key: {key}")
            return None
        if kinds is not None and not isinstance(payload[key], kinds):
            problems.append(
                f"key {key!r} has type {type(payload[key]).__name__}"
            )
            return None
        return payload[key]

    if need("bench", str) is None:
        pass
    if payload.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema must be {SCHEMA_VERSION}, got {payload.get('schema')!r}"
        )
    if payload.get("kind") != "loadgen":
        problems.append(f"kind must be 'loadgen', got {payload.get('kind')!r}")
    need("scenario", str)
    need("baseline_rate_rps", (int, float))
    sweep = need("sweep", dict)
    if sweep is not None:
        if not isinstance(sweep.get("slo"), dict) or "p99_ms" not in sweep.get(
            "slo", {}
        ):
            problems.append("sweep.slo must carry p99_ms")
        points = sweep.get("points")
        if not isinstance(points, list) or not points:
            problems.append("sweep.points must be a non-empty list")
        else:
            for i, point in enumerate(points):
                if not isinstance(point, dict):
                    problems.append(f"sweep.points[{i}] is not an object")
                    continue
                for key in _POINT_KEYS:
                    if key not in point:
                        problems.append(f"sweep.points[{i}] missing {key!r}")
                latency = point.get("latency_ms")
                if isinstance(latency, dict):
                    for key in _LATENCY_KEYS:
                        if key not in latency:
                            problems.append(
                                f"sweep.points[{i}].latency_ms missing {key!r}"
                            )
                else:
                    problems.append(
                        f"sweep.points[{i}].latency_ms is not an object"
                    )
    if "knee_rate_rps" not in payload:
        problems.append("missing key: knee_rate_rps")
    knee = payload.get("knee_rate_rps")
    if knee is not None and not isinstance(knee, (int, float)):
        problems.append("knee_rate_rps must be a number or null")
    if knee is not None and payload.get("knee_vs_baseline") is None:
        problems.append("knee_vs_baseline must be set when a knee was found")
    return problems


def save_payload(payload: Dict, output: Optional[Path] = None) -> Path:
    output = output or (REPO_ROOT / f"BENCH_{BENCH_TAG}.json")
    output.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return output


def load_payload(path: Path) -> Dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- prometheus scrape folding ------------------------------------------------


def scrape_metrics(host: str, port: int, timeout: float = 10.0) -> str:
    """Fetch one ``GET /metrics`` scrape from a serve/cluster node."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        data = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.0 200"):
        raise ConnectionError(f"metrics scrape failed: {head[:120]!r}")
    return body.decode("utf-8", errors="replace")


def fold_scrapes(before: str, after: str) -> Dict:
    """Per-endpoint server-side counter deltas across the run window."""
    b = samples_by_name(parse_prometheus(before))
    a = samples_by_name(parse_prometheus(after))
    folded: Dict[str, Dict[str, float]] = {}
    for family in ("esd_endpoint_requests", "esd_endpoint_errors"):
        deltas: Dict[str, float] = {}
        for labels, value in a.get(family, {}).items():
            delta = value - b.get(family, {}).get(labels, 0.0)
            if delta:
                deltas[dict(labels).get("endpoint", str(labels))] = delta
        if deltas:
            folded[family] = dict(sorted(deltas.items()))
    return folded


# -- presentation -------------------------------------------------------------


def render_tables(payload: Dict) -> List[ExperimentTable]:
    """The report as paper-style tables: the curve, then the verdict."""
    sweep = payload.get("sweep", {})
    slo = sweep.get("slo", {})
    curve = ExperimentTable(
        experiment="loadgen",
        title=(
            f"scenario={payload.get('scenario')} "
            f"slo: p99<={slo.get('p99_ms')}ms "
            f"err<={slo.get('max_error_rate')}"
        ),
        columns=[
            "offered r/s", "goodput r/s", "p50 ms", "p95 ms", "p99 ms",
            "err rate", "slo",
        ],
    )
    for point in sweep.get("points", []):
        latency = point.get("latency_ms", {})
        curve.add_row(
            f"{point.get('offered_rate_rps', 0):.1f}",
            f"{point.get('goodput_rps', 0):.1f}",
            f"{latency.get('p50', 0):.2f}",
            f"{latency.get('p95', 0):.2f}",
            f"{latency.get('p99', 0):.2f}",
            f"{point.get('error_rate', 0):.4f}",
            "pass" if point.get("slo_met") else "FAIL",
        )
    verdict = ExperimentTable(
        experiment="loadgen",
        title="capacity verdict",
        columns=["metric", "value"],
    )
    verdict.add_row("baseline closed-loop r/s", payload.get("baseline_rate_rps"))
    verdict.add_row("knee rate r/s", payload.get("knee_rate_rps"))
    verdict.add_row("knee / baseline", payload.get("knee_vs_baseline"))
    verdict.add_row("saturated bracket", sweep.get("saturated"))
    prom = payload.get("prometheus") or {}
    for family, deltas in prom.items():
        verdict.note(
            f"{family} deltas: "
            + ", ".join(f"{k}={v:g}" for k, v in deltas.items())
        )
    return [curve, verdict]
