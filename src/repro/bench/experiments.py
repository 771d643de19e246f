"""Experiment runners: one per table/figure of the paper's §VI.

Each ``run_*`` function regenerates the corresponding artifact on the
synthetic stand-ins and returns :class:`ExperimentTable` objects; the
pytest-benchmark wrappers in ``benchmarks/`` call these, print the tables
and persist the JSON that EXPERIMENTS.md is assembled from.
"""

from __future__ import annotations

import random
import statistics
from typing import Callable, Dict, List, Tuple

from repro.analytics import (
    communities_touched,
    label_propagation,
    topk_edge_betweenness,
)
from repro.bench.harness import ExperimentTable, Seconds, time_call
from repro.bench.workloads import (
    DEFAULT_K,
    DEFAULT_TAU,
    K_VALUES,
    MAINTENANCE_UPDATES,
    ONLINE_DATASETS,
    SCALABILITY_DATASET,
    TAU_VALUES,
    THREAD_VALUES,
    all_datasets,
    dataset,
)
from repro.core import (
    DynamicESDIndex,
    build_index_basic,
    build_index_fast,
    simulate_parallel_speedup,
    topk_common_neighbors,
    topk_online,
)
from repro.core.diversity import ego_component_sizes
from repro.graph import (
    Graph,
    components_of_subset,
    graph_stats,
    random_edge_subgraph,
    random_vertex_subgraph,
    scalability_fractions,
)
from repro.graph.datasets import db_subgraph, word_association


def run_table1(scale: float = 1.0) -> List[ExperimentTable]:
    """Table I: dataset statistics (n, m, d_max, degeneracy δ)."""
    table = ExperimentTable(
        "Table I", "Datasets (synthetic stand-ins)",
        ["dataset", "n", "m", "d_max", "delta"],
    )
    for name, graph in all_datasets(scale).items():
        stats = graph_stats(graph)
        table.add_row(name, stats.n, stats.m, stats.d_max, stats.degeneracy)
    table.note(
        "Stand-ins are ~1000x smaller than the SNAP originals; the paper's "
        "size ordering and per-dataset character are preserved (DESIGN.md §3)."
    )
    return [table]


def run_exp1_fig5(scale: float = 1.0) -> List[ExperimentTable]:
    """Exp-1 / Fig. 5: OnlineBFS vs OnlineBFS+ with varying k and τ."""
    tables = []
    for name in ONLINE_DATASETS:
        graph = dataset(name, scale)
        by_k = ExperimentTable(
            "Fig. 5", f"OnlineBFS vs OnlineBFS+ on {name} (vary k, tau={DEFAULT_TAU})",
            ["k", "OnlineBFS (s)", "OnlineBFS+ (s)", "BFS evals", "BFS+ evals"],
        )
        for k in K_VALUES:
            t_md, s_md = _timed_online(graph, k, DEFAULT_TAU, "min-degree")
            t_cn, s_cn = _timed_online(graph, k, DEFAULT_TAU, "common-neighbor")
            by_k.add_row(k, t_md, t_cn, s_md, s_cn)
        by_tau = ExperimentTable(
            "Fig. 5", f"OnlineBFS vs OnlineBFS+ on {name} (vary tau, k={DEFAULT_K})",
            ["tau", "OnlineBFS (s)", "OnlineBFS+ (s)", "BFS evals", "BFS+ evals"],
        )
        for tau in TAU_VALUES:
            t_md, s_md = _timed_online(graph, DEFAULT_K, tau, "min-degree")
            t_cn, s_cn = _timed_online(graph, DEFAULT_K, tau, "common-neighbor")
            by_tau.add_row(tau, t_md, t_cn, s_md, s_cn)
        tables += [by_k, by_tau]
    tables[-1].note(
        "Paper claim: OnlineBFS+ dominates because the common-neighbor "
        "bound evaluates fewer edges exactly (compare the eval columns)."
    )
    return tables


def _timed_online(
    graph: Graph, k: int, tau: int, bound: str
) -> Tuple[float, int]:
    evaluated = 0

    def run() -> None:
        nonlocal evaluated
        _, stats = topk_online(graph, k, tau, bound=bound, with_stats=True)
        evaluated = stats.evaluated

    return time_call(run), evaluated


def run_exp2_fig6(scale: float = 1.0) -> List[ExperimentTable]:
    """Exp-2 / Fig. 6: index size and construction time, all datasets."""
    size_table = ExperimentTable(
        "Fig. 6(a)", "ESDIndex size vs graph size",
        ["dataset", "graph m", "index entries", "ratio", "|C|"],
    )
    time_table = ExperimentTable(
        "Fig. 6(b)", "ESDIndex vs ESDIndex+ construction time",
        ["dataset", "ESDIndex (s)", "ESDIndex+ (s)", "speedup"],
    )
    for name, graph in all_datasets(scale).items():
        index = build_index_fast(graph)
        ratio = index.entry_count / max(graph.m, 1)
        size_table.add_row(
            name, graph.m, index.entry_count, round(ratio, 2),
            len(index.size_classes),
        )
        t_basic = time_call(lambda: build_index_basic(graph), repeats=2)
        t_fast = time_call(lambda: build_index_fast(graph), repeats=2)
        time_table.add_row(
            name, t_basic, t_fast, round(t_basic / max(t_fast, 1e-9), 2)
        )
    size_table.note(
        "Paper: index is 4-8x the graph size.  Entries/m plays that role "
        "here and tracks ego-network richness: the clique-dense stand-ins "
        "(dblp, wikitalk) land in the paper's 4-8x band while the sparser "
        "ones stay below -- always a small multiple of m (Theorem 3)."
    )
    time_table.note(
        "Paper: ESDIndex+ is 2-10x faster since each 4-clique is visited "
        "once instead of six times.  In pure Python union-find object "
        "overhead compresses the gap (largest on the degree-skewed "
        "wikitalk, near parity on the most clique-dense dblp)."
    )
    return [size_table, time_table]


def run_exp3_fig7(scale: float = 1.0) -> List[ExperimentTable]:
    """Exp-3 / Fig. 7: PESDIndex+ speedup vs thread count."""
    tables = []
    for name in ONLINE_DATASETS:
        graph = dataset(name, scale)
        table = ExperimentTable(
            "Fig. 7", f"PESDIndex+ speedup on {name}",
            ["threads", "speedup", "parallel work (units)", "serial (units)"],
        )
        for t in THREAD_VALUES:
            r = simulate_parallel_speedup(graph, t)
            table.add_row(
                t, round(r["speedup"], 2), int(r["parallel_work"]),
                int(r["serial_work"]),
            )
        table.note(
            "Single-core container: speedups are counted-work simulations "
            "(adjacency entries scanned per LPT chunk under perfect "
            "overlap, DESIGN.md §3); the paper reports ~12x at t=20 on "
            "real cores."
        )
        tables.append(table)
    return tables


def run_exp4_fig8(scale: float = 1.0) -> List[ExperimentTable]:
    """Exp-4 / Fig. 8: OnlineBFS+ vs IndexSearch, vary k and τ."""
    by_k = ExperimentTable(
        "Fig. 8(a-e)", f"OnlineBFS+ vs IndexSearch (vary k, tau={DEFAULT_TAU})",
        ["dataset", "k", "OnlineBFS+ (s)", "IndexSearch (s)", "speedup"],
    )
    by_tau = ExperimentTable(
        "Fig. 8(f-j)", f"OnlineBFS+ vs IndexSearch (vary tau, k={DEFAULT_K})",
        ["dataset", "tau", "OnlineBFS+ (s)", "IndexSearch (s)", "speedup"],
    )
    for name, graph in all_datasets(scale).items():
        index = build_index_fast(graph)
        for k in K_VALUES:
            t_online = time_call(
                lambda: topk_online(graph, k, DEFAULT_TAU), repeats=1
            )
            t_index = time_call(lambda: index.topk(k, DEFAULT_TAU), repeats=3)
            by_k.add_row(
                name, k, t_online, t_index,
                int(t_online / max(t_index, 1e-9)),
            )
        for tau in TAU_VALUES:
            t_online = time_call(lambda: topk_online(graph, DEFAULT_K, tau))
            t_index = time_call(lambda: index.topk(DEFAULT_K, tau), repeats=3)
            by_tau.add_row(
                name, tau, t_online, t_index,
                int(t_online / max(t_index, 1e-9)),
            )
    by_tau.note(
        "Paper: IndexSearch is >= 4 orders of magnitude faster and robust "
        "w.r.t. tau; at stand-in scale the gap is smaller but decisive."
    )
    return [by_k, by_tau]


def run_exp5_fig9(scale: float = 1.0) -> List[ExperimentTable]:
    """Exp-5 / Fig. 9: scalability on random subgraphs of LiveJournal."""
    graph = dataset(SCALABILITY_DATASET, scale)
    tables = []
    for mode, sampler in (
        ("edges", random_edge_subgraph),
        ("vertices", random_vertex_subgraph),
    ):
        table = ExperimentTable(
            "Fig. 9", f"Scalability on {SCALABILITY_DATASET} (vary {mode})",
            ["fraction", "m", "OnlineBFS+ (s)", "IndexSearch (s)"],
        )
        for fraction in scalability_fractions():
            sub = sampler(graph, fraction, seed=17)
            index = build_index_fast(sub)
            t_online = time_call(lambda: topk_online(sub, DEFAULT_K, DEFAULT_TAU))
            t_index = time_call(
                lambda: index.topk(DEFAULT_K, DEFAULT_TAU), repeats=3
            )
            table.add_row(f"{fraction:.0%}", sub.m, t_online, t_index)
        tables.append(table)
    tables[-1].note(
        "Paper: OnlineBFS+ grows linearly with graph size; IndexSearch "
        "stays flat."
    )
    return tables


def run_exp5_fig10(scale: float = 1.0) -> List[ExperimentTable]:
    """Exp-5 / Fig. 10: PESDIndex+ scalability (1 vs 20 threads)."""
    graph = dataset(SCALABILITY_DATASET, scale)
    table = ExperimentTable(
        "Fig. 10", f"PESDIndex+ scalability on {SCALABILITY_DATASET}",
        ["fraction", "m", "t=1 (work)", "t=20 (work)", "speedup"],
    )
    for fraction in scalability_fractions():
        sub = random_edge_subgraph(graph, fraction, seed=17)
        r20 = simulate_parallel_speedup(sub, 20)
        table.add_row(
            f"{fraction:.0%}", sub.m,
            int(r20["sequential_total"]), int(r20["overlapped_total"]),
            round(r20["speedup"], 2),
        )
    table.note(
        "Paper: runtime grows smoothly with graph size; 20-thread speedup "
        "between 6 and 9 on all subgraphs (simulated here in counted work "
        "units, DESIGN.md §3)."
    )
    return [table]


def run_exp6_fig11(scale: float = 1.0) -> List[ExperimentTable]:
    """Exp-6 / Fig. 11: average insertion/deletion maintenance time."""
    table = ExperimentTable(
        "Fig. 11", f"Index maintenance ({MAINTENANCE_UPDATES} random updates)",
        ["dataset", "construction (s)", "avg insert (s)", "avg delete (s)"],
    )
    for name, graph in all_datasets(scale).items():
        t_build = time_call(lambda: build_index_fast(graph))
        dyn = DynamicESDIndex(graph)
        rng = random.Random(97)
        edges = dyn.graph.edge_list()
        victims = [edges[rng.randrange(len(edges))] for _ in range(MAINTENANCE_UPDATES)]
        victims = list(dict.fromkeys(victims))  # unique, keep order
        delete_times: List[float] = []
        insert_times: List[float] = []
        for u, v in victims:
            delete_times.append(time_call(lambda: dyn.delete_edge(u, v)))
            insert_times.append(time_call(lambda: dyn.insert_edge(u, v)))
        table.add_row(
            name, t_build,
            Seconds(statistics.mean(insert_times)),
            Seconds(statistics.mean(delete_times)),
        )
    table.note(
        "Paper: both maintenance costs are far below construction; "
        "deletion is the slower of the two (Update procedure)."
    )
    return [table]


def run_exp7_fig12() -> List[ExperimentTable]:
    """Exp-7 / Fig. 12: DBLP case study -- ESD vs CN vs BT."""
    graph = db_subgraph()
    labels = label_propagation(graph, seed=3)
    index = build_index_fast(graph)

    def ego_profile(u, v) -> Tuple[int, int, int]:
        common = graph.common_neighbors(u, v)
        comps = components_of_subset(graph, common)
        big = [c for c in comps if len(c) >= 2]
        comms = communities_touched(labels, common)
        return len(big), comms, len(common)

    table = ExperimentTable(
        "Fig. 12", "DB case study: top edges by ESD / CN / BT (tau=2)",
        ["method", "edge", "ego comps (>=2)", "communities", "common nbrs"],
    )
    for edge, _score in index.topk(5, 2):
        table.add_row("ESD", edge, *ego_profile(*edge))
    for edge, _count in topk_common_neighbors(graph, 2):
        table.add_row("CN", edge, *ego_profile(*edge))
    for edge, _bt in topk_edge_betweenness(graph, 2):
        table.add_row("BT", edge, *ego_profile(*edge))
    table.note(
        "Paper claims: ESD edges contain many components spanning many "
        "communities (bridges with strong ties); CN edges sit in one dense "
        "community (<= 2 components); BT edges are weak links with few "
        "common neighbors."
    )
    return [table]


def run_exp8_fig13() -> List[ExperimentTable]:
    """Exp-8 / Fig. 13: word association case study (tau=2, k=2)."""
    graph = word_association()
    index = build_index_fast(graph)
    table = ExperimentTable(
        "Fig. 13", "Word association: top-2 edges by ESD (tau=2)",
        ["edge", "score", "context components"],
    )
    for edge, score in index.topk(2, 2):
        common = graph.common_neighbors(*edge)
        comps = [
            sorted(c)
            for c in components_of_subset(graph, common)
            if len(c) >= 2
        ]
        # Ties on size break by members: set order depends on the hash seed.
        comps.sort(key=lambda c: (-len(c), c))
        rendered = "; ".join("{" + ", ".join(c) + "}" for c in comps)
        table.add_row(f"({edge[0]}, {edge[1]})", score, rendered)
    table.note(
        "Paper: the top edge is (bank, money) with 6 semantic-context "
        "components; each component is one meaning of the word pair."
    )
    return [table]


def run_tau_sensitivity(scale: float = 1.0) -> List[ExperimentTable]:
    """Extra experiment: score distribution per tau (Exp-7 discussion).

    The paper observes that for tau >= 3 most DBLP edges score <= 3, so
    the top-k results lose discriminative power and recommends small tau
    (e.g. 2).  This table quantifies that: per dataset and tau, the
    number of edges with positive score and the maximum score.
    """
    from repro.core.diversity import all_edge_structural_diversities

    table = ExperimentTable(
        "Extra", "Score distribution vs tau (why the paper recommends tau=2)",
        ["dataset", "tau", "edges with score>0", "max score", "p99 score"],
    )
    for name, graph in all_datasets(scale).items():
        for tau in TAU_VALUES:
            scores = sorted(
                all_edge_structural_diversities(graph, tau).values(),
                reverse=True,
            )
            positive = sum(1 for s in scores if s > 0)
            p99 = scores[max(len(scores) // 100, 0)] if scores else 0
            table.add_row(name, tau, positive, scores[0] if scores else 0, p99)
    table.note(
        "Paper (Exp-7): for tau >= 3 most scores collapse toward 0-3, so "
        "top-k edges stop revealing diverse contexts; tau = 2 is the "
        "recommended operating point."
    )
    return [table]


def run_link_prediction(scale: float = 1.0) -> List[ExperimentTable]:
    """Extra experiment: pair-diversity link prediction (Dong et al. [3]).

    The paper's motivating reference for pair diversity showed that
    high-diversity pairs are likelier to connect.  We hide 10% of the
    edges of two stand-ins and rank non-adjacent 2-hop pairs by pair
    diversity / common neighbors / Jaccard, reporting precision@k along
    with the random-candidate baseline.
    """
    from repro.core import link_prediction_experiment
    from repro.core.pair_diversity import iter_candidate_pairs

    table = ExperimentTable(
        "Extra", "Link prediction on hidden edges (precision@k)",
        ["dataset", "predictor", "p@10", "p@50", "p@100", "random"],
    )
    for name in ("dblp", "pokec"):
        graph = dataset(name, scale)
        results = link_prediction_experiment(
            graph, hide_fraction=0.1, ks=(10, 50, 100), seed=5
        )
        candidates = sum(1 for _ in iter_candidate_pairs(graph))
        baseline = results[0].hidden / max(candidates, 1)
        for r in results:
            table.add_row(
                name, r.predictor,
                round(r.precision_at[10], 3), round(r.precision_at[50], 3),
                round(r.precision_at[100], 3), round(baseline, 4),
            )
    table.note(
        "Dong et al.'s effect concerns real link formation, which the "
        "synthetic stand-ins do not encode; the checkable shape here is "
        "that structural predictors clearly beat random guessing among "
        "candidates.  Which predictor wins depends on the graph's "
        "generative structure (team cliques favor CN/Jaccard)."
    )
    return [table]


def run_ablation(scale: float = 1.0) -> List[ExperimentTable]:
    """Design-choice ablations called out in DESIGN.md.

    (a) pruning power of the dequeue-twice framework per bound rule,
    (b) bucketed H(c) vs a sorted-array rebuild strategy,
    (c) bulk load vs incremental set_edge construction,
    (d) dequeue-twice vs the ordering-based scan (Chang et al. style),
    (e) degree vs degeneracy orientation for 4-clique enumeration.
    """
    prune = ExperimentTable(
        "Ablation A", f"Dequeue-twice pruning (k={DEFAULT_K}, tau={DEFAULT_TAU})",
        ["dataset", "edges", "evals (min-degree)", "evals (common-nbr)",
         "full scan"],
    )
    for name, graph in all_datasets(scale).items():
        _, s_md = _timed_online(graph, DEFAULT_K, DEFAULT_TAU, "min-degree")
        _, s_cn = _timed_online(graph, DEFAULT_K, DEFAULT_TAU, "common-neighbor")
        prune.add_row(name, graph.m, s_md, s_cn, graph.m)

    structure = ExperimentTable(
        "Ablation B", "H(c) backing structure: buckets vs sorted array",
        ["dataset", "buckets build (s)", "array build (s)",
         "buckets 100 updates (s)", "array 100 updates (s)"],
    )
    for name in ("youtube", "dblp"):
        graph = dataset(name, scale)
        sizes = {
            (u, v): ego_component_sizes(graph, u, v) for u, v in graph.edges()
        }
        from repro.core import index_from_sizes

        t_buckets = time_call(lambda: index_from_sizes(sizes))
        t_array = time_call(lambda: _sorted_array_index(sizes))
        index = index_from_sizes(sizes)
        arrays = _sorted_array_index(sizes)
        grown = _grown_sizes(sizes, limit=100)
        states = [{e: sizes[e] for e in grown}, grown]

        def flipping(apply) -> Callable[[], None]:
            # Every call flips each tracked edge to its other multiset,
            # so every timed update really moves the edge's entries.
            flips = [0]

            def run() -> None:
                flips[0] += 1
                for e, s in states[flips[0] % 2].items():
                    apply(e, s)

            return run

        bucket_updates = flipping(index.set_edge)
        array_updates = flipping(
            lambda e, s: _sorted_array_update(arrays, e, s)
        )

        structure.add_row(
            name, t_buckets, t_array,
            time_call(bucket_updates), time_call(array_updates),
        )
    structure.note(
        "Each update flips an edge between its component sizes and the "
        "same sizes with one component grown by 1, so its score changes "
        "in one class.  Sorted arrays pay an O(n) re-sort per list; the "
        "score buckets pay a bisect and a memmove within one bucket, and "
        "build in one grouping pass."
    )

    load = ExperimentTable(
        "Ablation C", "Index load strategy: bulk vs incremental",
        ["dataset", "bulk load (s)", "incremental set_edge (s)"],
    )
    for name in ("youtube", "dblp"):
        graph = dataset(name, scale)
        sizes = {
            (u, v): ego_component_sizes(graph, u, v) for u, v in graph.edges()
        }
        from repro.core import ESDIndex, index_from_sizes

        def incremental() -> None:
            idx = ESDIndex()
            for e, s in sizes.items():
                if s:
                    idx.set_edge(e, s)

        load.add_row(
            name, time_call(lambda: index_from_sizes(sizes)),
            time_call(incremental),
        )

    frameworks = ExperimentTable(
        "Ablation D", f"Dequeue-twice vs ordering scan (k={DEFAULT_K}, "
        f"tau={DEFAULT_TAU}, common-neighbor bound)",
        ["dataset", "dequeue-twice (s)", "ordering (s)",
         "dq evals", "ord evals"],
    )
    from repro.core import topk_ordering

    for name, graph in all_datasets(scale).items():
        t_dq, evals_dq = _timed_online(
            graph, DEFAULT_K, DEFAULT_TAU, "common-neighbor"
        )
        evals_ord = 0

        def run_ordering() -> None:
            nonlocal evals_ord
            _, s = topk_ordering(
                graph, DEFAULT_K, DEFAULT_TAU, with_stats=True
            )
            evals_ord = s.evaluated

        t_ord = time_call(run_ordering)
        frameworks.add_row(name, t_dq, t_ord, evals_dq, evals_ord)
    frameworks.note(
        "Both return the same score multiset; the ordering scan trades the "
        "heap for one sort plus an early-terminating pass."
    )

    orientation = ExperimentTable(
        "Ablation E", "4-clique enumeration: degree vs degeneracy ordering",
        ["dataset", "degree order (s)", "degeneracy order (s)", "cliques"],
    )
    from repro.cliques import count_four_cliques

    for name in ("pokec", "livejournal"):
        graph = dataset(name, scale)
        cliques = count_four_cliques(graph)
        t_deg = time_call(lambda: count_four_cliques(graph, order="degree"))
        t_dgn = time_call(
            lambda: count_four_cliques(graph, order="degeneracy")
        )
        orientation.add_row(name, t_deg, t_dgn, cliques)
    orientation.note(
        "The paper orients by degree (§II); kClist uses the degeneracy "
        "ordering -- both enumerate each 4-clique exactly once."
    )

    builders = ExperimentTable(
        "Ablation F", "Index builders: BFS vs 4-clique vs bitset",
        ["dataset", "basic (s)", "4-clique (s)", "bitset (s)"],
    )
    from repro.core import build_index_bitset

    for name in ("dblp", "livejournal"):
        graph = dataset(name, scale)
        builders.add_row(
            name,
            time_call(lambda: build_index_basic(graph), repeats=2),
            time_call(lambda: build_index_fast(graph), repeats=2),
            time_call(lambda: build_index_bitset(graph), repeats=2),
        )
    builders.note(
        "All three produce identical indexes; the bitset path packs "
        "adjacency into big-int words so the ego-network BFS runs at "
        "machine speed -- the fastest pure-Python option here."
    )
    return [prune, structure, load, frameworks, orientation, builders]


def _sorted_array_index(sizes: Dict) -> Dict[int, List]:
    """Ablation baseline: H(c) as plain sorted Python lists."""
    classes: Dict[int, List] = {}
    all_c = sorted({c for s in sizes.values() for c in s})
    for c in all_c:
        entries = []
        for edge, s in sizes.items():
            if s and max(s) >= c:
                entries.append((-sum(1 for x in s if x >= c), edge))
        entries.sort()
        classes[c] = entries
    return classes


def _grown_sizes(sizes: Dict, limit: int) -> Dict:
    """Up to ``limit`` edges, each with one component grown by 1.

    The grown component is the smallest one whose size + 1 already
    occurs in ``C``, so the update moves the edge within existing
    classes and creates none (the sorted-array baseline has no back-fill).
    """
    classes = {c for s in sizes.values() for c in s}
    grown: Dict = {}
    for edge, s in sizes.items():
        for pos, size in enumerate(sorted(s)):
            if size + 1 in classes:
                new = sorted(s)
                new[pos] += 1
                grown[edge] = sorted(new)
                break
        if len(grown) == limit:
            break
    return grown


def _sorted_array_update(classes: Dict[int, List], edge, s) -> None:
    """Replace one edge's entries in the sorted-array baseline (O(n) each)."""
    for c, entries in classes.items():
        filtered = [item for item in entries if item[1] != edge]
        if s and max(s) >= c:
            filtered.append((-sum(1 for x in s if x >= c), edge))
        filtered.sort()
        classes[c] = filtered


def run_service_bench(scale: float = 1.0) -> List[ExperimentTable]:
    """Service: concurrent mixed read/write load against ``esd serve``.

    Beyond the paper's letter but squarely in its motivation (standing
    analytics over a dynamic graph): 64 concurrent clients drive one
    server with a mixed topk/score/update workload, then every recorded
    ``topk`` response is audited offline against a from-scratch
    ``build_index_fast`` at its graph version.  A second, deliberately
    tiny server demonstrates structured overload rejection.
    """
    import threading
    import time

    from repro.bench.workloads import (
        SERVICE_CLIENTS,
        SERVICE_DATASET,
        SERVICE_QUERY_GRID,
        SERVICE_REQUESTS_PER_CLIENT,
        SERVICE_WRITE_RATIO,
    )
    from repro.service import ESDServer, ServerConfig, ServiceClient, ServiceError
    from repro.service.verify import verify_topk_responses

    graph = dataset(SERVICE_DATASET, scale)
    server = ESDServer(
        graph,
        ServerConfig(max_pending=max(2 * SERVICE_CLIENTS, 128), queue_timeout=60.0),
    ).start()
    host, port = server.address

    edges = sorted(graph.edges())
    topk_records: List[Tuple[int, int, Dict]] = []
    update_records: List[Tuple[int, str, Tuple]] = []
    client_errors: List[str] = []
    record_lock = threading.Lock()

    def worker(cid: int) -> None:
        rng = random.Random(0xC11E47 + cid)
        # Each client owns a private slice of edges, so concurrent
        # toggles never collide (and every update request succeeds).
        owned = {edge: True for edge in edges[cid::SERVICE_CLIENTS]}
        try:
            with ServiceClient(host, port, timeout=120.0) as client:
                for _ in range(SERVICE_REQUESTS_PER_CLIENT):
                    if owned and rng.random() < SERVICE_WRITE_RATIO:
                        edge = rng.choice(sorted(owned))
                        action = "delete" if owned[edge] else "insert"
                        result = client.update(action, *edge)
                        owned[edge] = not owned[edge]
                        with record_lock:
                            update_records.append(
                                (result["graph_version"], action, edge)
                            )
                    elif rng.random() < 0.1:
                        client.score(*rng.choice(edges), tau=DEFAULT_TAU)
                    else:
                        k, tau = rng.choice(SERVICE_QUERY_GRID)
                        result = client.request("topk", k=k, tau=tau)
                        with record_lock:
                            topk_records.append((k, tau, result))
        except (ServiceError, OSError) as exc:
            with record_lock:
                client_errors.append(f"client {cid}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(cid,), name=f"svc-client-{cid}")
        for cid in range(SERVICE_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    snapshot = server.engine.metrics_snapshot()
    server.shutdown()

    mismatches = verify_topk_responses(graph, update_records, topk_records)
    total_requests = sum(
        endpoint["requests"] for endpoint in snapshot["endpoints"].values()
    )

    latency = ExperimentTable(
        "Service A", "Per-endpoint server-side latency under 64-client load",
        ["endpoint", "requests", "errors", "mean", "p50", "p99"],
    )
    for name, endpoint in snapshot["endpoints"].items():
        latency.add_row(
            name,
            endpoint["requests"],
            endpoint["errors"],
            Seconds(endpoint["mean_ms"] / 1000),
            Seconds(endpoint["p50_ms"] / 1000),
            Seconds(endpoint["p99_ms"] / 1000),
        )
    latency.note(
        f"{SERVICE_CLIENTS} concurrent clients x "
        f"{SERVICE_REQUESTS_PER_CLIENT} requests "
        f"({SERVICE_WRITE_RATIO:.0%} writes) against one shared "
        f"DynamicESDIndex on '{SERVICE_DATASET}' (scale {scale})."
    )

    # Overload demonstration: a server sized to reject, not to serve.
    tiny = ESDServer(
        graph, ServerConfig(max_pending=2, queue_timeout=0.05, debug=True)
    ).start()
    tiny_host, tiny_port = tiny.address
    overloads: List[int] = []

    def occupy() -> None:
        try:
            with ServiceClient(tiny_host, tiny_port) as client:
                client.request("sleep", seconds=0.5)
        except ServiceError:
            pass

    occupiers = [threading.Thread(target=occupy) for _ in range(2)]
    for thread in occupiers:
        thread.start()
    time.sleep(0.15)
    for _ in range(3):
        try:
            with ServiceClient(tiny_host, tiny_port) as client:
                client.ping()
        except ServiceError as exc:
            if exc.code == "overloaded":
                overloads.append(1)
    for thread in occupiers:
        thread.join()
    tiny.shutdown()

    cache = snapshot["cache"]
    summary = ExperimentTable(
        "Service B", "Correctness, caching and admission control",
        ["quantity", "value"],
    )
    summary.add_row("clients", SERVICE_CLIENTS)
    summary.add_row("requests served", total_requests)
    summary.add_row("wall time", Seconds(wall))
    summary.add_row("throughput (req/s)", round(total_requests / wall, 1))
    summary.add_row("topk responses audited", len(topk_records))
    summary.add_row("incorrect topk responses", len(mismatches))
    summary.add_row("updates applied", len(update_records))
    summary.add_row("cache hits", cache["hits"])
    summary.add_row("cache hit rate", cache["hit_rate"])
    summary.add_row("single-flight coalesced requests", cache["coalesced"])
    summary.add_row("largest single flight", cache["largest_flight"])
    summary.add_row("overload rejections (probe)", len(overloads))
    summary.add_row("client-side errors", len(client_errors))
    summary.note(
        "Every topk response is re-derived offline: the update log is "
        "replayed to the response's graph_version and compared against a "
        "fresh ESDIndex -- 'incorrect' must be 0."
    )
    if mismatches:
        summary.note(f"MISMATCHES: {mismatches[:3]}")
    if client_errors:
        summary.note(f"client errors: {client_errors[:3]}")
    return [latency, summary]
