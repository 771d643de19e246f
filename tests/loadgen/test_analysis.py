"""Property-based checks on the analysis layer (stdlib, no hypothesis).

Two kinds of guarantee are pinned here:

* the percentile path -- the PR-4 "never under-report the tail"
  invariant must survive the reservoir: an estimate computed from the
  uniform sample must sit where the full distribution says it should,
  and degenerate to *exact* equality whenever the reservoir never
  overflowed;
* the knee bisection -- on a synthetic latency model with a known
  capacity cliff, the sweep must land on the cliff to within bracket
  resolution, record every probe, and flag unsaturated/hopeless
  brackets instead of inventing an answer.

Failures shrink: the sample list is delta-debugged (halving chunks,
then single samples) to a minimal still-failing case, mirroring the
``tests/persistence`` harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro.loadgen.analysis import Slo, capacity_sweep, coordinated_omission_gap
from repro.loadgen.driver import OpRecord, Reservoir
from repro.service.metrics import percentile

from tests.shrink import shrink


RESERVOIR_CAPACITY = 512
FRACTIONS = (0.50, 0.95, 0.99, 0.999)


# -- case generation ----------------------------------------------------------


@dataclass
class Case:
    seed: int
    distribution: str
    samples: List[float]

    def describe(self) -> str:
        return (
            f"seed={self.seed} distribution={self.distribution} "
            f"n={len(self.samples)} samples={self.samples[:20]!r}..."
        )


def generate_case(seed: int, max_n: int = 4000) -> Case:
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    distribution = rng.choice(
        ["uniform", "lognormal", "constant", "bimodal"]
    )
    if distribution == "uniform":
        samples = [rng.uniform(0.0, 1.0) for _ in range(n)]
    elif distribution == "lognormal":
        samples = [rng.lognormvariate(0.0, 1.5) for _ in range(n)]
    elif distribution == "constant":
        samples = [0.25] * n
    else:  # bimodal: fast mode plus a heavy stall mode -- the CO shape
        samples = [
            2.0 if rng.random() < 0.05 else rng.uniform(0.001, 0.01)
            for _ in range(n)
        ]
    return Case(seed=seed, distribution=distribution, samples=samples)


def check_case(case: Case) -> Optional[str]:
    """Return ``None`` on success or a description of the violation."""
    samples = case.samples
    n = len(samples)
    estimates = [percentile(samples, f) for f in FRACTIONS]

    # Never-under-report, on the full data: at least a fraction f of the
    # samples sit at or below the reported pf.
    for f, estimate in zip(FRACTIONS, estimates):
        if not min(samples) <= estimate <= max(samples):
            return f"p{f}: estimate {estimate} outside sample range"
        at_or_below = sum(1 for x in samples if x <= estimate) / n
        if at_or_below < f - 1e-12:
            return (
                f"p{f} under-reports: only {at_or_below:.4f} of samples "
                f"<= {estimate}"
            )
    if estimates != sorted(estimates):
        return f"percentiles not monotone in fraction: {estimates}"

    # Through the reservoir.
    reservoir = Reservoir(capacity=RESERVOIR_CAPACITY, seed=case.seed)
    for x in samples:
        reservoir.offer(x)
    kept = reservoir.items()
    for f, exact in zip(FRACTIONS, estimates):
        sampled = percentile(kept, f)
        if n <= RESERVOIR_CAPACITY:
            if sampled != exact:
                return (
                    f"p{f}: reservoir never overflowed but estimate "
                    f"{sampled} != exact {exact}"
                )
            continue
        if f >= 0.999:
            continue  # 512 samples cannot resolve p999; skip, don't lie
        # The estimate must occupy roughly the f-quantile position of
        # the FULL distribution.  Bands are >5 sigma for a 512-sample
        # order statistic; `<=` vs `<` makes both sides tie-safe.
        tolerance = {0.50: 0.12, 0.95: 0.06, 0.99: 0.03}[f]
        at_or_below = sum(1 for x in samples if x <= sampled) / n
        strictly_below = sum(1 for x in samples if x < sampled) / n
        if at_or_below < f - tolerance:
            return (
                f"p{f}: reservoir estimate {sampled} sits at quantile "
                f"{at_or_below:.4f} of the full data (too low)"
            )
        if strictly_below > f + tolerance:
            return (
                f"p{f}: reservoir estimate {sampled} sits above quantile "
                f"{strictly_below:.4f} of the full data (too high)"
            )
    return None


def shrink_case(case: Case, max_attempts: int = 300) -> Case:
    """Delta-debug the sample list to a minimal still-failing case."""

    def still_fails(samples: List[float]) -> bool:
        candidate = Case(case.seed, case.distribution, samples)
        return bool(samples) and check_case(candidate) is not None

    samples = shrink(case.samples, still_fails, max_attempts=max_attempts)
    return Case(case.seed, case.distribution, samples)


class TestPercentileProperties:
    def test_random_distributions_respect_the_invariants(self):
        for seed in range(40):
            case = generate_case(seed)
            failure = check_case(case)
            if failure is not None:
                minimal = shrink_case(case)
                pytest.fail(
                    f"{failure}\nminimal reproduction: {minimal.describe()}\n"
                    f"re-run with generate_case({seed})"
                )

    def test_p99_of_100_samples_is_the_worst_sample(self):
        # The PR-4 regression shape: ceil-rank must pick index 99.
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.99) == 100.0

    def test_single_sample_is_every_percentile(self):
        for f in FRACTIONS:
            assert percentile([7.0], f) == 7.0


# -- SLO + sweep --------------------------------------------------------------


def _summary(rate: float, p99_ms: float, error_rate: float = 0.0):
    return {
        "offered_rate_rps": rate,
        "latency_ms": {"p50": p99_ms / 4, "p95": p99_ms / 2,
                       "p99": p99_ms, "p999": p99_ms * 2},
        "error_rate": error_rate,
    }


class TestSlo:
    def test_met_checks_latency_and_errors(self):
        slo = Slo(p99_ms=50.0, max_error_rate=0.01)
        assert slo.met(_summary(10, 50.0, 0.01))
        assert not slo.met(_summary(10, 50.1, 0.0))
        assert not slo.met(_summary(10, 10.0, 0.02))
        assert slo.as_dict() == {"p99_ms": 50.0, "max_error_rate": 0.01}


class TestCapacitySweep:
    CAPACITY = 120.0  # the synthetic server's cliff

    def _probe(self, rate: float):
        # Flat 5 ms p99 below capacity, 100 ms above: a hard knee.
        return _summary(rate, 5.0 if rate <= self.CAPACITY else 100.0)

    def test_bisection_finds_the_cliff(self):
        sweep = capacity_sweep(
            self._probe, lo=10.0, hi=400.0, slo=Slo(p99_ms=50.0),
            iterations=8,
        )
        resolution = (400.0 - 10.0) / 2 ** 8
        assert sweep["saturated"] is True
        assert (
            self.CAPACITY - resolution
            <= sweep["knee_rate_rps"]
            <= self.CAPACITY
        )
        rates = [p["offered_rate_rps"] for p in sweep["points"]]
        assert rates == sorted(rates)
        assert len(sweep["points"]) == 10  # lo + hi + 8 bisection probes
        assert all("slo_met" in p for p in sweep["points"])

    def test_hopeless_bracket_returns_no_knee(self):
        sweep = capacity_sweep(
            self._probe, lo=200.0, hi=400.0, slo=Slo(p99_ms=50.0),
        )
        assert sweep["knee_rate_rps"] is None
        assert sweep["saturated"] is False
        assert len(sweep["points"]) == 1  # failed at lo, stopped

    def test_unsaturated_bracket_returns_hi(self):
        sweep = capacity_sweep(
            self._probe, lo=10.0, hi=100.0, slo=Slo(p99_ms=50.0),
        )
        assert sweep["knee_rate_rps"] == 100.0
        assert sweep["saturated"] is False
        assert len(sweep["points"]) == 2

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            capacity_sweep(self._probe, lo=50.0, hi=50.0, slo=Slo(p99_ms=1.0))
        with pytest.raises(ValueError):
            capacity_sweep(self._probe, lo=0.0, hi=50.0, slo=Slo(p99_ms=1.0))


class TestCoordinatedOmissionGap:
    def test_gap_reports_the_hidden_factor(self):
        records = [
            OpRecord(deadline=i * 0.01, sent=i * 0.01,
                     done=i * 0.01 + 0.001, op="topk", kind="read")
            for i in range(99)
        ]
        # One op sent 1.99 s late (server stall): 2 s open-loop latency,
        # 10 ms of actual service time.
        records.append(
            OpRecord(deadline=1.0, sent=2.99, done=3.0, op="topk",
                     kind="read")
        )
        gap = coordinated_omission_gap(records)
        assert gap["open_loop_p99_ms"] == pytest.approx(2000.0)
        assert gap["closed_loop_p99_ms"] == pytest.approx(10.0)
        assert gap["hidden_factor"] == pytest.approx(200.0)
