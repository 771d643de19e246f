"""Tests for the ``esd`` command-line interface."""

import pytest

from repro.cli import main
from repro.graph import Graph, write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    g = Graph([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (3, 4), (0, 4)])
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return str(path)


class TestStats:
    def test_on_file(self, graph_file, capsys):
        assert main(["stats", "--graph", graph_file]) == 0
        out = capsys.readouterr().out
        assert "n                5" in out
        assert "m                8" in out
        assert "degeneracy" in out

    def test_on_dataset(self, capsys):
        assert main(["stats", "--dataset", "youtube", "--scale", "0.1"]) == 0
        assert "d_max" in capsys.readouterr().out

    def test_missing_source_errors(self):
        with pytest.raises(SystemExit):
            main(["stats"])


class TestTopk:
    def test_online(self, graph_file, capsys):
        assert main(["topk", "--graph", graph_file, "-k", "3", "--tau", "1"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 3
        assert all(len(l.split("\t")) == 3 for l in lines)

    def test_exact_matches_online(self, graph_file, capsys):
        main(["topk", "--graph", graph_file, "-k", "3", "--method", "online"])
        online = capsys.readouterr().out
        main(["topk", "--graph", graph_file, "-k", "3", "--method", "exact"])
        exact = capsys.readouterr().out
        assert online == exact

    def test_min_degree_bound(self, graph_file, capsys):
        assert main(
            ["topk", "--graph", graph_file, "--bound", "min-degree"]
        ) == 0

    def test_ordering_method_matches_online_scores(self, graph_file, capsys):
        main(["topk", "--graph", graph_file, "-k", "3", "--method", "online"])
        online = capsys.readouterr().out
        main(["topk", "--graph", graph_file, "-k", "3", "--method", "ordering"])
        ordering = capsys.readouterr().out
        online_scores = [line.split("\t")[2] for line in online.splitlines() if line]
        ordering_scores = [
            line.split("\t")[2] for line in ordering.splitlines() if line
        ]
        assert online_scores == ordering_scores

    def test_vertex_target(self, graph_file, capsys):
        assert main(
            ["topk", "--graph", graph_file, "--target", "vertex", "-k", "2"]
        ) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2
        assert all(len(l.split("\t")) == 2 for l in lines)


class TestIndexRoundTrip:
    def test_build_then_query(self, graph_file, tmp_path, capsys):
        index_path = str(tmp_path / "index.json")
        assert main(["build-index", "--graph", graph_file, "-o", index_path]) == 0
        built = capsys.readouterr().out
        assert "index built" in built
        assert main(["query", "--index", index_path, "-k", "2", "--tau", "1"]) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l]) == 2

    def test_query_matches_exact(self, graph_file, tmp_path, capsys):
        index_path = str(tmp_path / "index.json")
        main(["build-index", "--graph", graph_file, "-o", index_path])
        capsys.readouterr()
        main(["query", "--index", index_path, "-k", "5", "--tau", "2"])
        query_out = capsys.readouterr().out
        main(["topk", "--graph", graph_file, "-k", "5", "--tau", "2",
              "--method", "exact"])
        exact_out = capsys.readouterr().out
        # Index omits zero-score edges; every line it prints must appear
        # in the exact output, in order.
        q_lines = query_out.splitlines()
        e_lines = exact_out.splitlines()
        assert q_lines == e_lines[: len(q_lines)]


class TestServe:
    def test_parser_wires_serve_with_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--dataset", "dblp", "--port", "0"]
        )
        assert args.func.__name__ == "_cmd_serve"
        assert args.max_pending == 64
        assert args.queue_timeout == 2.0
        assert args.cache_size == 1024

    def test_bench_accepts_service(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench", "service"])
        assert args.experiment == "service"

    def test_parser_wires_observability_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "--dataset", "dblp", "--port", "0",
                "--slow-query-ms", "50",
                "--check-invariants-every", "25",
                "--trace", "/tmp/spans.jsonl",
            ]
        )
        assert args.slow_query_ms == 50.0
        assert args.slow_log_capacity == 128
        assert args.check_invariants_every == 25
        assert args.trace == "/tmp/spans.jsonl"


class TestProfile:
    def test_profile_prints_stage_breakdown(self, graph_file, capsys):
        assert main(
            ["profile", "--graph", graph_file, "-k", "3",
             "--repeat", "2", "--updates", "2"]
        ) == 0
        out = capsys.readouterr().out
        for stage in ("build", "query", "update", "persist"):
            assert stage in out
        assert "core.edges_rescored" in out
        assert "online.bound_evaluations" in out

    def test_profile_trace_out_writes_jsonl(self, graph_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "spans.jsonl"
        assert main(
            ["profile", "--graph", graph_file, "--repeat", "1",
             "--updates", "1", "--trace-out", str(trace_path)]
        ) == 0
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert records, "no spans written"
        names = {r["name"] for r in records}
        assert {"profile.build", "profile.query", "index.topk"} <= names

    def test_profile_leaves_global_tracer_disabled(self, graph_file, capsys):
        from repro.obs.trace import TRACER

        assert main(["profile", "--graph", graph_file, "--repeat", "1"]) == 0
        assert TRACER.enabled is False


class TestBench:
    @pytest.fixture(autouse=True)
    def _results_in_tmp(self, monkeypatch, tmp_path):
        """Keep the committed benchmarks/results/ untouched."""
        from repro.bench import harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)

    def test_table1(self, capsys, tmp_path):
        assert main(["bench", "table1", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "youtube" in out
        assert (tmp_path / "table1.json").exists()

    def test_fig13(self, capsys, tmp_path):
        assert main(["bench", "fig13"]) == 0
        assert (tmp_path / "fig13.json").exists()
        assert "bank" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])
