"""Tests for the EXPERIMENTS.md report builder."""

import json

import pytest

import repro.bench.harness as harness
import repro.bench.report as report
from repro.bench import ExperimentTable, save_tables


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(report, "RESULTS_DIR", tmp_path)
    return tmp_path


def _sample_table() -> ExperimentTable:
    table = ExperimentTable("Fig. X", "sample", ["a", "b"])
    table.add_row("row1", 2)
    table.note("hello")
    return table


class TestBuildExperimentsMd:
    def test_missing_results_noted(self, results_dir, tmp_path, capsys):
        # A section without a saved record is left out of the document
        # and named on stdout instead.
        save_tables("fig5", [_sample_table()])
        out = tmp_path / "EXPERIMENTS.md"
        report.build_experiments_md(out)
        text = out.read_text()
        headings = [line for line in text.splitlines() if line.startswith("## ")]
        assert headings == ["## Exp-1 / Fig. 5 — OnlineBFS vs OnlineBFS+"]
        printed = capsys.readouterr().out
        assert "without 13 sections" in printed
        assert "fig6" in printed and "service" in printed

    def test_tables_rendered(self, results_dir, tmp_path):
        save_tables("fig5", [_sample_table()])
        out = tmp_path / "EXPERIMENTS.md"
        report.build_experiments_md(out)
        text = out.read_text()
        assert "**Fig. X: sample**" in text
        assert "| row1 | 2 |" in text
        assert "*hello*" in text

    def test_every_section_has_paper_claim(self, results_dir, tmp_path):
        for name, _heading, _claim in report.SECTIONS:
            save_tables(name, [_sample_table()])
        out = tmp_path / "EXPERIMENTS.md"
        report.build_experiments_md(out)
        text = out.read_text()
        for _name, heading, claim in report.SECTIONS:
            assert heading in text
            assert claim.split(";")[0][:40] in text

    def test_rendered_rows_preferred(self, results_dir, tmp_path):
        # A record with rendered rows uses them verbatim.
        payload = {
            "name": "fig6",
            "tables": [{
                "experiment": "E", "title": "t", "columns": ["x"],
                "rows": [[0.25]], "rendered_rows": [["250.0ms"]],
                "notes": [],
            }],
        }
        (results_dir / "fig6.json").write_text(json.dumps(payload))
        out = tmp_path / "EXPERIMENTS.md"
        report.build_experiments_md(out)
        assert "250.0ms" in out.read_text()

    def test_section_list_matches_benchmark_files(self):
        """Every results-producing benchmark has a report section."""
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        emitted = set()
        for path in bench_dir.glob("test_*.py"):
            text = path.read_text()
            for line in text.splitlines():
                if 'emit(tables, "' in line:
                    emitted.add(line.split('emit(tables, "')[1].split('"')[0])
        section_names = {name for name, _h, _c in report.SECTIONS}
        assert emitted <= section_names


def test_committed_results_render_to_experiments_md(tmp_path):
    """EXPERIMENTS.md is exactly what ``benchmarks/results/`` renders to."""
    out = report.build_experiments_md(tmp_path / "EXPERIMENTS.md")
    committed = harness.RESULTS_DIR.parents[1] / "EXPERIMENTS.md"
    assert out.read_bytes() == committed.read_bytes()
