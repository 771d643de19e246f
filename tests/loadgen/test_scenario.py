"""Scenario plans: deterministic mixes, safe mutation pools."""

import hashlib
import json

import pytest

from repro.bench.workloads import LOADGEN_EDGE_BASE, mutation_edges
from repro.loadgen.scenario import PROFILES, Profile, build_plan
from repro.loadgen.schedule import arrival_times, constant

DEADLINES = arrival_times([constant(1000.0, 4.0)])  # 4000 evenly spaced ops


def _plan(profile_name, seed=0, edge_base=LOADGEN_EDGE_BASE):
    return build_plan(DEADLINES, PROFILES[profile_name], seed=seed,
                      edge_base=edge_base)


class TestProfileValidation:
    def test_ratios_must_be_fractions(self):
        with pytest.raises(ValueError):
            Profile("bad", write_ratio=1.5)
        with pytest.raises(ValueError):
            Profile("bad", write_ratio=0.1, watch_ratio=-0.1)

    def test_query_grid_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Profile("bad", write_ratio=0.1, query_grid=())

    def test_builtin_profiles_cover_the_cli_choices(self):
        assert set(PROFILES) == {
            "read_heavy", "mixed", "write_heavy", "watch_fanout",
        }


class TestDeterminism:
    def test_same_inputs_same_plan(self):
        a, b = _plan("mixed", seed=5), _plan("mixed", seed=5)
        assert a.ops == b.ops
        assert a.setup_edges == b.setup_edges

    def test_seed_changes_the_stream(self):
        assert _plan("mixed", seed=1).ops != _plan("mixed", seed=2).ops


def _digest(plan):
    ops = [[op.deadline, op.op, op.fields, op.kind] for op in plan.ops]
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()


class TestPlanDigests:
    """Every profile's plan at a fixed seed, pinned byte for byte: a
    change to the plan builder must not move a recorded load run."""

    @pytest.mark.parametrize(
        "name,digest",
        [
            ("read_heavy",
             "557ff634f25d483f3078742cff100150d88e2db7e445bda257548a7035bc49fd"),
            ("mixed",
             "ee85ee00ade94dd5ce24a5ad0cb34d373b6330ea8c77f29936ba312e5c6034d5"),
            ("write_heavy",
             "3b1be95692fbaccf6de7245be0585c1f9adc2e5d157d7f5a6cb201b9aeb0b198"),
            ("watch_fanout",
             "113c6d14f1663b829493d36dfa7b679c469091a5a2f36b92c132f18a66a8e1ad"),
        ],
    )
    def test_plan_is_pinned(self, name, digest):
        assert _digest(_plan(name, seed=11)) == digest


def test_legacy_profiles_have_no_metric_field():
    deadlines = [i * 0.01 for i in range(400)]
    for name in ("read_heavy", "mixed", "write_heavy", "watch_fanout"):
        plan = build_plan(deadlines, PROFILES[name], seed=7)
        assert all("metric" not in op.fields for op in plan.ops)


class TestMixRatios:
    @pytest.mark.parametrize(
        "name,expected",
        [("read_heavy", 0.05), ("mixed", 0.15), ("write_heavy", 0.50)],
    )
    def test_write_share_tracks_profile(self, name, expected):
        plan = _plan(name)
        share = plan.writes / len(plan.ops)
        assert abs(share - expected) < 0.04
        assert plan.reads + plan.writes == len(plan.ops)

    def test_watch_fanout_mixes_watch_cycles_into_reads(self):
        plan = _plan("watch_fanout")
        watches = sum(1 for op in plan.ops if op.op == "watch_cycle")
        reads = plan.reads
        assert abs(watches / reads - 0.40) < 0.05
        assert abs(plan.writes / len(plan.ops) - 0.10) < 0.03


class TestMutationPools:
    def test_deletes_only_target_the_setup_pool(self):
        plan = _plan("write_heavy")
        deletes = [
            (op.fields["u"], op.fields["v"])
            for op in plan.ops
            if op.op == "update" and op.fields["action"] == "delete"
        ]
        # Every delete consumes a distinct pre-inserted edge -- the
        # guarantee that makes concurrent-worker reordering error-free.
        assert len(set(deletes)) == len(deletes)
        assert set(deletes) == set(plan.setup_edges)

    def test_inserts_never_collide_with_the_delete_pool(self):
        plan = _plan("write_heavy")
        inserts = {
            (op.fields["u"], op.fields["v"])
            for op in plan.ops
            if op.op == "update" and op.fields["action"] == "insert"
        }
        assert inserts.isdisjoint(plan.setup_edges)

    def test_distinct_edge_bases_touch_disjoint_pools(self):
        a = _plan("write_heavy", edge_base=LOADGEN_EDGE_BASE)
        b = _plan("write_heavy", edge_base=LOADGEN_EDGE_BASE + 10_000_000)
        def edges(plan):
            return {
                (op.fields["u"], op.fields["v"])
                for op in plan.ops
                if op.op == "update"
            }
        assert edges(a).isdisjoint(edges(b))

    def test_mutation_edges_live_above_the_base(self):
        for u, v in mutation_edges(100, base=LOADGEN_EDGE_BASE):
            assert u >= LOADGEN_EDGE_BASE and v >= LOADGEN_EDGE_BASE


class TestQueryShapes:
    def test_reads_draw_from_the_profile_grid(self):
        profile = PROFILES["mixed"]
        plan = _plan("mixed")
        grid = set(profile.query_grid)
        seen = set()
        for op in plan.ops:
            if op.op == "topk":
                pair = (op.fields["k"], op.fields["tau"])
                assert pair in grid
                seen.add(pair)
        assert seen == grid  # 4000 ops: every grid cell gets exercised

    def test_ops_are_sorted_by_deadline(self):
        plan = _plan("mixed")
        deadlines = [op.deadline for op in plan.ops]
        assert deadlines == sorted(deadlines)
        assert plan.duration == deadlines[-1]
