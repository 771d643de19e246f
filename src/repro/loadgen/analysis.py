"""Analysis layer: percentiles, SLO predicates, find-the-knee bisection.

Percentiles reuse :func:`repro.service.metrics.percentile` -- the
ceil-based nearest-rank estimator whose "never under-report the tail"
invariant was established in PR 4 -- applied to the driver's uniform
latency reservoir.  Counts (errors, goodput) are exact; only the latency
*distribution* is sampled.

The capacity sweep answers one question: what is the highest offered
rate at which the deployment still meets its SLO?  It probes the ends of
a rate bracket, then bisects; each probe is a full open-loop run, so the
p99 it gates on already includes coordinated-omission queueing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.loadgen.driver import OpRecord, RunResult
from repro.service.metrics import percentile

#: The report's percentile grid.
FRACTIONS = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)


def _distribution(samples: Sequence[float]) -> Dict[str, float]:
    return {name: _ms(percentile(samples, f)) for name, f in FRACTIONS}


@dataclass(frozen=True)
class Slo:
    """A latency/error objective a load level either meets or does not."""

    p99_ms: float
    max_error_rate: float = 0.0  #: errors / completed (overloads count)

    def met(self, summary: Dict) -> bool:
        return (
            summary["latency_ms"]["p99"] <= self.p99_ms
            and summary["error_rate"] <= self.max_error_rate
        )

    def as_dict(self) -> Dict:
        return {"p99_ms": self.p99_ms, "max_error_rate": self.max_error_rate}


def summarize(
    result: RunResult,
    offered_rate: float,
    duration: float,
) -> Dict:
    """One run folded into the report's per-load-level record.

    ``latency_ms`` is the open-loop (deadline-anchored) distribution;
    ``service_ms`` is the closed-loop (send-anchored) one.  The gap
    between them *is* the coordinated omission a closed-loop harness
    hides.
    """
    latencies = [r.latency for r in result.records]
    services = [r.service_time for r in result.records]
    completed = result.completed
    duration = duration if duration > 0 else result.wall_seconds
    summary = {
        "offered_rate_rps": round(offered_rate, 3),
        "duration_s": round(duration, 3),
        "scheduled": result.scheduled,
        "completed": completed,
        "ok": result.ok,
        "errors": dict(sorted(result.errors.items())),
        "error_rate": round(
            (result.error_total / completed) if completed else 0.0, 6
        ),
        "goodput_rps": round(result.ok / duration if duration else 0.0, 3),
        "reads": result.reads,
        "writes": result.writes,
        "latency_ms": _distribution(latencies),
        "service_ms": _distribution(services),
        "max_latency_ms": _ms(result.max_latency),
        "max_lateness_ms": _ms(result.max_lateness),
        "mean_latency_ms": _ms(
            result.latency_sum / completed if completed else 0.0
        ),
        "latency_samples": len(result.records),
    }
    return summary


#: A probe: given an offered rate, run a trial and return its summary.
RateProbe = Callable[[float], Dict]


def capacity_sweep(
    probe: RateProbe,
    lo: float,
    hi: float,
    slo: Slo,
    iterations: int = 6,
) -> Dict:
    """Bisect for the knee: the highest rate in ``[lo, hi]`` meeting ``slo``.

    Every probe's summary lands in ``points`` (sorted by rate, each with
    its ``slo_met`` verdict), so the emitted report carries the whole
    percentile-vs-offered-load curve, not just the answer.  ``knee_rate``
    is ``None`` when even ``lo`` violates the SLO, and ``hi`` when the
    bracket never saturates (the caller should widen it).
    """
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    points: List[Dict] = []

    def run(rate: float) -> Dict:
        summary = probe(rate)
        summary["slo_met"] = slo.met(summary)
        points.append(summary)
        return summary

    knee: Optional[float]
    saturated = True
    if not run(lo)["slo_met"]:
        knee = None
        saturated = False  # never found a passing rate, nothing bracketed
    elif run(hi)["slo_met"]:
        knee = hi
        saturated = False  # bracket too narrow: the knee is above hi
    else:
        good, bad = lo, hi
        for _ in range(iterations):
            mid = (good + bad) / 2.0
            if run(mid)["slo_met"]:
                good = mid
            else:
                bad = mid
        knee = good
    points.sort(key=lambda p: p["offered_rate_rps"])
    return {
        "slo": slo.as_dict(),
        "bracket_rps": [lo, hi],
        "iterations": iterations,
        "points": points,
        "knee_rate_rps": round(knee, 3) if knee is not None else None,
        "saturated": saturated,
    }


def coordinated_omission_gap(records: Sequence[OpRecord]) -> Dict[str, float]:
    """How much tail the closed-loop view hides, for one record set.

    Returns open-loop and send-anchored p99 side by side; the ratio is
    the honest-to-optimistic multiplier a closed-loop harness would have
    reported away.
    """
    open_p99 = percentile([r.latency for r in records], 0.99)
    closed_p99 = percentile([r.service_time for r in records], 0.99)
    return {
        "open_loop_p99_ms": _ms(open_p99),
        "closed_loop_p99_ms": _ms(closed_p99),
        "hidden_factor": round(
            open_p99 / closed_p99 if closed_p99 > 0 else float("inf"), 3
        ),
    }
