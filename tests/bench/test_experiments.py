"""Smoke tests for the experiment runners (tiny scale).

The full-scale runs live in ``benchmarks/``; here each runner is checked
for structure and its headline qualitative claim at 10-20% scale, so
regressions in the harness surface in the unit suite.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.bench.experiments import (
    run_ablation,
    run_exp1_fig5,
    run_exp2_fig6,
    run_exp3_fig7,
    run_exp4_fig8,
    run_exp5_fig10,
    run_exp5_fig9,
    run_exp6_fig11,
    run_exp7_fig12,
    run_exp8_fig13,
    run_table1,
)

SCALE = 0.12


@pytest.fixture(autouse=True)
def _small_maintenance(monkeypatch):
    # Keep the Exp-6 smoke run fast.
    import repro.bench.experiments as experiments

    monkeypatch.setattr(experiments, "MAINTENANCE_UPDATES", 10)


def test_table1_has_five_rows():
    (table,) = run_table1(SCALE)
    assert len(table.rows) == 5
    assert table.columns == ["dataset", "n", "m", "d_max", "delta"]


def test_fig5_structure():
    tables = run_exp1_fig5(SCALE)
    assert len(tables) == 4  # 2 datasets x (k-sweep, tau-sweep)
    for table in tables:
        assert len(table.rows) == 6


def test_fig6_claims():
    size_table, time_table = run_exp2_fig6(SCALE)
    assert len(size_table.rows) == len(time_table.rows) == 5
    for row in size_table.rows:
        assert row[2] > 0  # entries


def test_fig7_speedups_trend_upward():
    tables = run_exp3_fig7(SCALE)
    for table in tables:
        speedups = [row[1] for row in table.rows]
        # At smoke scale the per-chunk timings are microsecond-noisy, so
        # only the trend is asserted (strict monotonicity is checked at
        # full scale in benchmarks/test_fig7_parallel.py).
        assert speedups[-1] >= speedups[0]
        assert all(s >= 0.75 for s in speedups)


def test_fig8_speedup_positive():
    by_k, by_tau = run_exp4_fig8(SCALE)
    assert len(by_k.rows) == 30  # 5 datasets x 6 k values
    assert len(by_tau.rows) == 30
    for row in by_k.rows:
        assert row[4] >= 1


def test_fig9_fraction_sweep():
    tables = run_exp5_fig9(SCALE)
    assert len(tables) == 2
    for table in tables:
        assert [row[0] for row in table.rows] == [
            "20%", "40%", "60%", "80%", "100%"
        ]


def test_fig10_columns():
    (table,) = run_exp5_fig10(SCALE)
    assert len(table.rows) == 5
    assert all(row[4] > 0 for row in table.rows)


def test_fig11_maintenance_cheap():
    (table,) = run_exp6_fig11(SCALE)
    for _name, build, ins, dele in table.rows:
        assert ins < build
        assert dele < build


def test_fig12_methods_present():
    (table,) = run_exp7_fig12()
    methods = [row[0] for row in table.rows]
    assert methods.count("ESD") == 5
    assert methods.count("CN") == 2
    assert methods.count("BT") == 2


def test_fig13_bank_money_top():
    (table,) = run_exp8_fig13()
    assert table.rows[0][0] == "(bank, money)"
    assert table.rows[0][1] == 6


def test_fig13_output_is_independent_of_the_hash_seed():
    # Equal-size context components once printed in set order, so the
    # committed report changed with every interpreter's hash seed.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    script = (
        "from repro.bench.experiments import run_exp8_fig13\n"
        "print(run_exp8_fig13()[0].render())"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(outputs) == 1


def test_ablation_structure():
    (prune, structure, load, frameworks, orientation,
     builders) = run_ablation(SCALE)
    assert len(prune.rows) == 5
    assert len(structure.rows) == 2
    assert len(load.rows) == 2
    assert len(frameworks.rows) == 5
    assert len(orientation.rows) == 2
    assert len(builders.rows) == 2


def test_service_bench_smoke(monkeypatch):
    import repro.bench.workloads as workloads

    from repro.bench.experiments import run_service_bench

    # A scaled-down fleet keeps the unit suite fast; the full 64-client
    # run lives in benchmarks/test_service_load.py.
    monkeypatch.setattr(workloads, "SERVICE_CLIENTS", 12)
    monkeypatch.setattr(workloads, "SERVICE_REQUESTS_PER_CLIENT", 4)
    latency, summary = run_service_bench(SCALE)
    values = {row[0]: row[1] for row in summary.rows}
    assert values["incorrect topk responses"] == 0
    assert values["client-side errors"] == 0
    assert values["cache hits"] > 0
    assert values["overload rejections (probe)"] > 0
    assert values["requests served"] >= 12 * 4
