"""Unit tests for the perf-regression harness (``esd bench regress``)."""

import json

import pytest

from repro.bench import regress
from repro.bench.regress import (
    DEFAULT_TOLERANCE,
    compare,
    find_baseline,
    run_and_persist,
    run_regress,
)


def payload_with(speedup, median, suite="quick", op="build_index_fast"):
    return {
        "bench": "X",
        "suites": {
            suite: {
                "workload": {"n": 10, "m": 9, "k": 2, "tau": 1},
                "ops": {
                    op: {
                        "csr_median_s": median,
                        "set_median_s": median * speedup,
                        "speedup": speedup,
                        "repeats": 3,
                    }
                },
            }
        },
    }


class TestCompare:
    def test_speedup_ok_within_tolerance(self):
        result = compare(
            payload_with(1.9, 0.01), payload_with(2.0, 0.01), metric="speedup"
        )
        assert result["regressions"] == []
        assert result["entries"][0]["status"] == "ok"

    def test_speedup_regression_beyond_tolerance(self):
        result = compare(
            payload_with(1.0, 0.01),
            payload_with(2.0, 0.01),
            tolerance=0.25,
            metric="speedup",
        )
        assert result["regressions"] == ["quick/build_index_fast"]
        entry = result["entries"][0]
        assert entry["status"] == "regression"
        assert entry["ratio"] == pytest.approx(0.5)

    def test_speedup_improvement_never_fails(self):
        result = compare(
            payload_with(5.0, 0.01), payload_with(2.0, 0.01), metric="speedup"
        )
        assert result["regressions"] == []

    def test_median_regression_is_slower_time(self):
        result = compare(
            payload_with(2.0, 0.05),
            payload_with(2.0, 0.01),
            tolerance=0.25,
            metric="median",
        )
        assert result["regressions"] == ["quick/build_index_fast"]

    def test_median_faster_time_is_ok(self):
        result = compare(
            payload_with(2.0, 0.005),
            payload_with(2.0, 0.01),
            metric="median",
        )
        assert result["regressions"] == []

    def test_ungated_op_reported_noisy_not_failed(self, monkeypatch):
        monkeypatch.setattr(regress, "UNGATED_OPS", ("build_index_fast",))
        result = compare(
            payload_with(1.0, 0.01),
            payload_with(2.0, 0.01),
            tolerance=0.25,
            metric="speedup",
        )
        assert result["regressions"] == []
        assert result["entries"][0]["status"] == "noisy"

    def test_new_op_reported_not_failed(self):
        current = payload_with(2.0, 0.01)
        current["suites"]["quick"]["ops"]["novel_op"] = {
            "csr_median_s": 1.0,
            "set_median_s": 1.0,
            "speedup": 1.0,
            "repeats": 3,
        }
        result = compare(current, payload_with(2.0, 0.01))
        statuses = {e["op"]: e["status"] for e in result["entries"]}
        assert statuses["novel_op"] == "new"
        assert result["regressions"] == []

    def test_missing_suite_skipped(self):
        current = payload_with(2.0, 0.01, suite="full")
        baseline = payload_with(2.0, 0.01, suite="quick")
        result = compare(current, baseline)
        assert result["entries"] == []
        assert result["regressions"] == []

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            compare(
                payload_with(2.0, 0.01),
                payload_with(2.0, 0.01),
                metric="p99",
            )

    def test_default_tolerance_is_25_percent(self):
        assert DEFAULT_TOLERANCE == 0.25


class TestFindBaseline:
    @staticmethod
    def _regress_record(path):
        path.write_text(json.dumps({"suites": {}}))

    def test_picks_newest_other_bench_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(regress, "REPO_ROOT", tmp_path)
        self._regress_record(tmp_path / "BENCH_PR4.json")
        self._regress_record(tmp_path / "BENCH_PR5.json")
        assert find_baseline(tmp_path / "BENCH_PR5.json") == (
            tmp_path / "BENCH_PR4.json"
        )

    def test_none_when_no_other_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(regress, "REPO_ROOT", tmp_path)
        self._regress_record(tmp_path / "BENCH_PR5.json")
        assert find_baseline(tmp_path / "BENCH_PR5.json") is None

    def test_orders_numerically_not_lexically(self, tmp_path, monkeypatch):
        # Lexically BENCH_PR10 < BENCH_PR7; the finder must not fall
        # for it once the chain passes PR 9.
        monkeypatch.setattr(regress, "REPO_ROOT", tmp_path)
        self._regress_record(tmp_path / "BENCH_PR7.json")
        self._regress_record(tmp_path / "BENCH_PR10.json")
        assert find_baseline(tmp_path / "BENCH_PR11.json") == (
            tmp_path / "BENCH_PR10.json"
        )

    def test_skips_non_regress_records(self, tmp_path, monkeypatch):
        # Loadgen capacity records share the BENCH_*.json naming but
        # carry no "suites" table; unparseable files are skipped too.
        monkeypatch.setattr(regress, "REPO_ROOT", tmp_path)
        self._regress_record(tmp_path / "BENCH_PR7.json")
        (tmp_path / "BENCH_PR8.json").write_text(
            json.dumps({"kind": "loadgen", "sweep": {}})
        )
        (tmp_path / "BENCH_PR9.json").write_text("not json {")
        assert find_baseline(tmp_path / "BENCH_PR10.json") == (
            tmp_path / "BENCH_PR7.json"
        )


@pytest.fixture
def tiny_suites(monkeypatch, tmp_path):
    """Shrink the pinned workloads so a real run takes milliseconds.

    Also points ``REPO_ROOT`` at the temp dir so ``find_baseline`` never
    picks up the repository's committed BENCH files.
    """
    monkeypatch.setattr(regress, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(
        regress,
        "SUITES",
        {
            "quick": {
                "n": 24,
                "p": 0.2,
                "seed": 7,
                "k": 3,
                "tau": 1,
                "repeats": 1,
            }
        },
    )


class TestRunAndPersist:
    def test_quick_run_writes_payload(self, tiny_suites, tmp_path):
        output = tmp_path / "BENCH_TEST.json"
        payload, tables, exit_code = run_and_persist(
            quick=True, output=output, baseline=None
        )
        assert exit_code == 0
        on_disk = json.loads(output.read_text())
        assert on_disk["suites"].keys() == {"quick"}
        ops = on_disk["suites"]["quick"]["ops"]
        assert set(ops) == set(regress.OPS)
        for record in ops.values():
            assert record["csr_median_s"] > 0
            assert record["set_median_s"] > 0
        # The CSR snapshot itself is built during op *setup* (before the
        # counter baseline), so assert on counters the timed ops bump.
        counters = on_disk["suites"]["quick"]["kernel_counters"]
        assert counters["component_kernels"] >= 1
        assert counters["triangle_kernels"] >= 1
        assert tables  # one rendered table per suite

    def test_regression_vs_baseline_exits_nonzero(self, tiny_suites, tmp_path):
        output = tmp_path / "BENCH_TEST.json"
        baseline_path = tmp_path / "BENCH_OLD.json"
        baseline = run_regress(quick=True)
        # Pretend the old kernels were impossibly fast: every op's
        # speedup shrinks by far more than the tolerance.
        for record in baseline["suites"]["quick"]["ops"].values():
            record["speedup"] *= 100.0
        baseline_path.write_text(json.dumps(baseline))
        payload, _tables, exit_code = run_and_persist(
            quick=True, output=output, baseline=baseline_path
        )
        assert exit_code == 1
        assert payload["comparison"]["regressions"]

    def test_matching_baseline_exits_zero(self, tiny_suites, tmp_path):
        output = tmp_path / "BENCH_TEST.json"
        baseline_path = tmp_path / "BENCH_OLD.json"
        run_and_persist(quick=True, output=baseline_path, baseline=None)
        # Speedup ratios are stable run-to-run well within 25% at this
        # size?  No -- timing noise on tiny graphs is huge, so compare
        # against the just-written file with an enormous tolerance: the
        # plumbing (baseline load, comparison attach, exit code), not
        # the timings, is what is under test.
        payload, _tables, exit_code = run_and_persist(
            quick=True,
            output=output,
            baseline=baseline_path,
            tolerance=1000.0,
        )
        assert exit_code == 0
        assert payload["comparison"]["baseline_path"] == str(baseline_path)
        assert payload["comparison"]["regressions"] == []


class TestCheckFloors:
    def test_floor_violation_reported(self, monkeypatch):
        monkeypatch.setattr(
            regress, "SPEEDUP_FLOORS", {"build_index_fast": 1.5}
        )
        assert regress.check_floors(payload_with(1.2, 0.01)) == [
            "quick/build_index_fast"
        ]

    def test_floor_held_passes(self, monkeypatch):
        monkeypatch.setattr(
            regress, "SPEEDUP_FLOORS", {"build_index_fast": 1.5}
        )
        assert regress.check_floors(payload_with(1.6, 0.01)) == []

    def test_missing_op_ignored(self, monkeypatch):
        monkeypatch.setattr(regress, "SPEEDUP_FLOORS", {"novel_op": 9.0})
        assert regress.check_floors(payload_with(1.0, 0.01)) == []


@pytest.fixture
def tiny_new_suites(monkeypatch, tmp_path):
    """A millisecond-sized variant of the specialized suite."""
    monkeypatch.setattr(regress, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(
        regress,
        "SUITES",
        {
            "truss_build": {
                "kind": "truss_build",
                "n": 20, "p": 0.3, "seed": 11, "repeats": 1,
            },
        },
    )


class TestSpecializedSuites:
    def test_new_suites_produce_records(self, tiny_new_suites):
        payload = run_regress(quick=True)
        assert set(payload["suites"]) == {"truss_build"}
        build_ops = payload["suites"]["truss_build"]["ops"]
        assert set(build_ops) == set(regress.SUITE_KIND_OPS["truss_build"])
        for record in build_ops.values():
            assert record["csr_median_s"] > 0
            assert record["set_median_s"] > 0
        # The csr pass must actually exercise the truss kernel, not
        # silently fall back.
        assert (
            payload["suites"]["truss_build"]["kernel_counters"][
                "truss_kernels"
            ]
            >= 1
        )

    def test_quick_run_keeps_specialized_suites(self, tiny_new_suites):
        # --quick drops only the classic "full" suite: the specialized
        # truss_build suite carries a floor, so CI must keep running it.
        payload = run_regress(quick=True)
        assert "truss_build" in payload["suites"]


class TestCommittedBenchFile:
    def test_bench_pr10_record_is_valid(self):
        path = regress.REPO_ROOT / "BENCH_PR10.json"
        payload = json.loads(path.read_text())
        assert payload["bench"] == "PR10"
        assert payload["schema"] == 1
        assert payload["floor_failures"] == []
        for name in ("full", "quick"):
            ops = payload["suites"][name]["ops"]
            assert set(ops) == set(regress.OPS)
            for op in regress.SPEEDUP_OPS:
                # Carried over from the PR5 acceptance gate: >= 2x.
                assert ops[op]["speedup"] >= 2.0
        ops = payload["suites"]["truss_build"]["ops"]
        assert set(ops) == set(regress.SUITE_KIND_OPS["truss_build"])
        # Every floor holds in the committed record.  (The record also
        # keeps the since-removed metric_maintenance suite, as history.)
        assert regress.check_floors(payload) == []
