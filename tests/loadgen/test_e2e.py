"""Loadgen against a real in-process server: the wall-clock smoke path.

Short real-time runs (fractions of a second) -- everything heavier runs
on the ``FakeClock`` substrate in the sibling modules.  The invariant
gated here is the one CI's load-smoke job re-checks from the shell: an
open-loop run against a healthy server completes every scheduled op
with **zero protocol errors**, and the sweep emits a record that
validates against the BENCH_PR8 schema.
"""

import json

import pytest

from repro.cli import main
from repro.graph.generators import gnm_random
from repro.loadgen import runner
from repro.loadgen.analysis import Slo
from repro.loadgen.report import save_payload, validate_payload
from repro.service import ESDServer, ServerConfig


@pytest.fixture
def server():
    instance = ESDServer(
        gnm_random(30, 90, seed=8), ServerConfig(port=0)
    ).start()
    yield instance
    instance.shutdown()


class TestRunScenario:
    def test_mixed_run_is_error_free(self, server):
        host, port = server.address
        summary, prometheus = runner.run_with_scrapes(
            host, port,
            scenario="mixed", rate=60.0, duration=0.5, workers=4, seed=3,
        )
        assert summary["completed"] == summary["scheduled"] > 0
        assert summary["errors"] == {}
        assert summary["error_rate"] == 0.0
        assert summary["goodput_rps"] > 0
        assert summary["reads"] > 0 and summary["writes"] > 0
        # Server-side counters corroborate the client-side story.
        assert prometheus is not None
        requests = prometheus["esd_endpoint_requests"]
        assert requests.get("topk", 0) >= summary["reads"] * 0.5
        assert requests.get("update", 0) >= summary["writes"]

    def test_watch_fanout_exercises_watch_endpoints(self, server):
        host, port = server.address
        summary, prometheus = runner.run_with_scrapes(
            host, port,
            scenario="watch_fanout", rate=40.0, duration=0.5, workers=2,
            seed=4,
        )
        assert summary["errors"] == {}
        assert prometheus["esd_endpoint_requests"].get("watch", 0) > 0
        assert prometheus["esd_endpoint_requests"].get("unwatch", 0) > 0


class TestSweepEndToEnd:
    def test_sweep_emits_a_valid_record(self, server):
        host, port = server.address
        payload = runner.run_sweep(
            host, port,
            scenario="read_heavy",
            slo=Slo(p99_ms=10_000.0),  # generous: gate the plumbing,
            lo=20.0, hi=40.0,          # not this machine's speed
            duration=0.4,
            workers=2,
            iterations=0,
            baseline_duration=0.2,
        )
        assert validate_payload(payload) == []
        # Both bracket probes met the huge SLO: knee == hi, unsaturated.
        assert payload["knee_rate_rps"] == 40.0
        assert payload["sweep"]["saturated"] is False
        assert payload["baseline_rate_rps"] > 0
        assert payload["knee_vs_baseline"] is not None
        for point in payload["sweep"]["points"]:
            assert point["errors"] == {}


class TestCli:
    def test_load_run_prints_summary_json(self, server, capsys):
        host, port = server.address
        assert main([
            "load", "run", "--host", host, "--port", str(port),
            "--rate", "30", "--duration", "0.4", "--workers", "2",
            "--scenario", "read_heavy", "--process", "constant",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] == {}
        assert document["summary"]["scheduled"] == 12

    def test_load_run_gates_on_slo(self, server, capsys):
        host, port = server.address
        code = main([
            "load", "run", "--host", host, "--port", str(port),
            "--rate", "30", "--duration", "0.3", "--workers", "2",
            "--scenario", "read_heavy", "--slo-p99-ms", "0.000001",
        ])
        assert code == 1  # nothing answers in a nanosecond

    def test_load_report_round_trip(self, server, tmp_path, capsys):
        host, port = server.address
        payload = runner.run_sweep(
            host, port,
            scenario="mixed", slo=Slo(p99_ms=10_000.0),
            lo=20.0, hi=30.0, duration=0.3, workers=2, iterations=0,
            baseline_duration=0.2,
        )
        record = save_payload(payload, tmp_path / "bench.json")
        assert main(["load", "report", str(record)]) == 0
        out = capsys.readouterr().out
        assert "capacity verdict" in out
        assert "knee / baseline" in out
