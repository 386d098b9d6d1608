"""Tests for the benchmark regression gate (repro benchcheck)."""

import json

import pytest

from repro.bench.compare import (
    GATED_BENCHMARKS,
    check_baseline,
    compare_results,
    default_baseline_dir,
)
from repro.cli import benchcheck_main


class TestCompareResults:
    def test_identical_payloads(self):
        payload = {"slope": 1.5, "rows": [{"clients": 5, "ms": 15.7}]}
        assert compare_results(payload, dict(payload)) == []

    def test_within_tolerance(self):
        base = {"ms": 100.0}
        assert compare_results(base, {"ms": 109.0}, rel_tol=0.10) == []
        assert compare_results(base, {"ms": 91.0}, rel_tol=0.10) == []

    def test_drift_beyond_tolerance(self):
        deviations = compare_results({"ms": 100.0}, {"ms": 111.0}, rel_tol=0.10)
        assert len(deviations) == 1
        assert "$.ms" in deviations[0]
        assert "+11.0%" in deviations[0]

    def test_zero_baseline_uses_abs_tol(self):
        assert compare_results({"n": 0}, {"n": 0.0}) == []
        deviations = compare_results({"n": 0}, {"n": 0.5})
        assert len(deviations) == 1

    def test_provenance_skipped_at_top_level_only(self):
        base = {"python": "3.10.0", "platform": "a", "data": {"python": 1.0}}
        fresh = {"python": "3.12.0", "platform": "b", "data": {"python": 2.0}}
        deviations = compare_results(base, fresh)
        assert len(deviations) == 1
        assert deviations[0].startswith("$.data.python")

    def test_missing_and_extra_keys(self):
        deviations = compare_results({"a": 1, "b": 2}, {"a": 1, "c": 3})
        assert any("$.b" in d and "missing from fresh" in d for d in deviations)
        assert any("$.c" in d and "not in baseline" in d for d in deviations)

    def test_list_length_mismatch(self):
        deviations = compare_results({"rows": [1, 2, 3]}, {"rows": [1, 2]})
        assert len(deviations) == 1
        assert "length 2" in deviations[0]

    def test_nested_list_elements(self):
        base = {"rows": [{"ms": 10.0}, {"ms": 20.0}]}
        fresh = {"rows": [{"ms": 10.0}, {"ms": 30.0}]}
        deviations = compare_results(base, fresh)
        assert len(deviations) == 1
        assert "$.rows[1].ms" in deviations[0]

    def test_non_numeric_leaves_compared_exactly(self):
        deviations = compare_results({"name": "fig3"}, {"name": "fig4"})
        assert len(deviations) == 1

    def test_bool_is_not_a_tolerant_number(self):
        # True == 1 numerically, but a flipped flag is a real change
        deviations = compare_results({"flag": True}, {"flag": False})
        assert len(deviations) == 1


class TestCheckBaseline:
    def _write(self, directory, name, payload):
        (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))

    def test_round_trip(self, tmp_path):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir()
        fresh_dir.mkdir()
        self._write(base_dir, "demo", {"ms": 100.0})
        self._write(fresh_dir, "demo", {"ms": 105.0})
        assert check_baseline("demo", base_dir, fresh_dir) == []
        self._write(fresh_dir, "demo", {"ms": 150.0})
        assert len(check_baseline("demo", base_dir, fresh_dir)) == 1

    def test_missing_files_reported(self, tmp_path):
        deviations = check_baseline("demo", tmp_path, tmp_path)
        assert "no committed baseline" in deviations[0]
        self._write(tmp_path, "demo", {"ms": 1.0})
        deviations = check_baseline("demo", tmp_path, tmp_path / "nope")
        assert "no fresh results" in deviations[0]

    def test_committed_baselines_exist_for_gated_set(self):
        root = default_baseline_dir()
        for name in GATED_BENCHMARKS:
            assert (root / f"BENCH_{name}.json").exists(), name

    def test_every_committed_baseline_is_gated(self):
        """A baseline nobody checks is dead weight: every committed
        ``BENCH_*.json`` but the wall-clock wire_codec one is gated."""
        committed = {
            path.stem.removeprefix("BENCH_")
            for path in default_baseline_dir().glob("BENCH_*.json")
        }
        assert committed - {"wire_codec"} == set(GATED_BENCHMARKS)


class TestBenchcheckCli:
    def test_passes_against_own_baselines(self, tmp_path, capsys):
        root = default_baseline_dir()
        for name in GATED_BENCHMARKS:
            source = root / f"BENCH_{name}.json"
            (tmp_path / source.name).write_text(source.read_text())
        rc = benchcheck_main(["--fresh-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table1" in out

    def test_fails_on_regression(self, tmp_path, capsys):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir()
        fresh_dir.mkdir()
        (base_dir / "BENCH_demo.json").write_text(json.dumps({"ms": 100.0}))
        (fresh_dir / "BENCH_demo.json").write_text(json.dumps({"ms": 200.0}))
        rc = benchcheck_main([
            "demo", "--baseline-dir", str(base_dir),
            "--fresh-dir", str(fresh_dir),
        ])
        assert rc == 1
        assert "deviation" in capsys.readouterr().out

    def test_custom_tolerance(self, tmp_path):
        base_dir = tmp_path / "base"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir()
        fresh_dir.mkdir()
        (base_dir / "BENCH_demo.json").write_text(json.dumps({"ms": 100.0}))
        (fresh_dir / "BENCH_demo.json").write_text(json.dumps({"ms": 140.0}))
        args = ["demo", "--baseline-dir", str(base_dir),
                "--fresh-dir", str(fresh_dir)]
        assert benchcheck_main(args) == 1
        assert benchcheck_main(args + ["--tolerance", "0.5"]) == 0

    def test_help_names_the_whole_gated_set(self, capsys):
        with pytest.raises(SystemExit):
            benchcheck_main(["--help"])
        out = capsys.readouterr().out
        assert all(name in out for name in GATED_BENCHMARKS)

    def test_requires_fresh_dir(self, monkeypatch, capsys):
        monkeypatch.delenv("CORONA_BENCH_DIR", raising=False)
        assert benchcheck_main([]) == 2
        assert "CORONA_BENCH_DIR" in capsys.readouterr().err

    def test_fresh_dir_from_env(self, tmp_path, monkeypatch):
        root = default_baseline_dir()
        for name in GATED_BENCHMARKS:
            source = root / f"BENCH_{name}.json"
            (tmp_path / source.name).write_text(source.read_text())
        monkeypatch.setenv("CORONA_BENCH_DIR", str(tmp_path))
        assert benchcheck_main([]) == 0
