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


#: ``esd topk --metric X -k 5`` on :data:`METRIC_EDGES`, pinned byte for
#: byte: two 4-cliques joined by a bridge, then a triangle and a tail.
METRIC_EDGES = [
    (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6),
    (5, 6), (5, 7), (6, 7), (4, 7), (7, 8), (8, 9), (9, 10), (8, 10),
    (10, 11),
]
METRIC_TOPK = {
    "truss": "0\t1\t4\n0\t2\t4\n0\t3\t4\n1\t2\t4\n1\t3\t4\n",
    "betweenness": (
        "3\t4\t7.0\n7\t8\t6.0\n4\t7\t3.0\n8\t10\t3.0\n10\t11\t3.0\n"
    ),
    "betweenness_global": (
        "3\t4\t0.48484848484848486\n7\t8\t0.48484848484848486\n"
        "4\t7\t0.3787878787878788\n8\t10\t0.2727272727272727\n"
        "10\t11\t0.16666666666666666\n"
    ),
    "common_neighbors": "0\t1\t2\n0\t2\t2\n0\t3\t2\n1\t2\t2\n1\t3\t2\n",
}


class TestTopkMetrics:
    @pytest.fixture
    def metric_graph_file(self, tmp_path):
        path = tmp_path / "metric.txt"
        write_edge_list(Graph(METRIC_EDGES), path)
        return str(path)

    @pytest.mark.parametrize("metric", sorted(METRIC_TOPK))
    def test_offline_metric_output_is_pinned(
        self, metric_graph_file, metric, capsys
    ):
        assert main(
            ["topk", "--graph", metric_graph_file, "--metric", metric,
             "-k", "5"]
        ) == 0
        assert capsys.readouterr().out == METRIC_TOPK[metric]

    def test_vertex_target_is_esd_only(self, metric_graph_file):
        with pytest.raises(SystemExit, match="--metric esd"):
            main(["topk", "--graph", metric_graph_file, "--metric", "truss",
                  "--target", "vertex"])


class TestTopkMetricTable:
    """The name -> ranking table behind ``esd topk --metric``."""

    def test_choices_are_esd_plus_the_table(self):
        from repro.analytics.rankings import EDGE_RANKINGS
        from repro.cli import _TOPK_METRICS

        assert set(_TOPK_METRICS) == {"esd"} | set(EDGE_RANKINGS)

    def test_orders_by_score_then_edge(self):
        from repro.analytics.rankings import EDGE_RANKINGS

        # K4 minus (0, 3): (1, 2) closes two triangles, the rest tie on one.
        graph = Graph([(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
        ranked = EDGE_RANKINGS["common_neighbors"](graph, 3)
        assert ranked == [((1, 2), 2), ((0, 1), 1), ((0, 2), 1)]

    @pytest.mark.parametrize(
        "metric",
        ["truss", "betweenness", "betweenness_global", "common_neighbors"],
    )
    def test_mixed_label_ties_do_not_raise(self, metric):
        from repro.analytics.rankings import EDGE_RANKINGS

        # int and str vertices live in disjoint components; a tie across
        # them compared raw tuples before the type-tagged key existed.
        graph = Graph([(1, 2), (3, 4), ("a", "b")])
        ranked = EDGE_RANKINGS[metric](graph, 3)
        assert [edge for edge, _ in ranked] == [(1, 2), (3, 4), ("a", "b")]

    def test_k_validation(self):
        from repro.analytics.rankings import EDGE_RANKINGS

        for ranking in EDGE_RANKINGS.values():
            with pytest.raises(ValueError, match="k must be >= 1"):
                ranking(Graph([(0, 1)]), 0)


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
