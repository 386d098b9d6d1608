"""CLI coverage for ``repro deepcheck``, ``repro racecheck`` and the
git-scoped ``repro lint --changed``."""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.analysis.lint import changed_paths
from repro.cli import deepcheck_main, lint_main, racecheck_main

FIXTURE = "import time\n\nasync def tick():\n    time.sleep(1.0)\n"


def make_tree(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(FIXTURE)
    return tmp_path / "src"


class TestDeepcheckCli:
    def test_new_findings_fail_the_run(self, tmp_path, capsys):
        root = make_tree(tmp_path)
        assert deepcheck_main([str(root), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "BLOCK001" in out
        assert "new" in out

    def test_update_baseline_requires_real_justifications(self, tmp_path, capsys):
        """--update-baseline writes TODO placeholders, and the gate keeps
        failing until every one is replaced with an actual explanation —
        a baselined finding without a justification is a silenced bug."""
        root = make_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert deepcheck_main(
            [str(root), "--baseline", str(baseline), "--update-baseline"]
        ) == 0
        payload = json.loads(baseline.read_text())
        assert payload["findings"]
        assert payload["findings"][0]["justification"] == "TODO: justify or fix"
        capsys.readouterr()
        # the placeholder cannot pass as if it were an explanation
        assert deepcheck_main([str(root), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "0 new" in out
        assert "unjustified" in out
        # a real justification clears the gate
        for entry in payload["findings"]:
            entry["justification"] = "fixture: blocking sleep is the point"
        baseline.write_text(json.dumps(payload))
        assert deepcheck_main([str(root), "--baseline", str(baseline)]) == 0

    def test_stale_baseline_entries_are_reported(self, tmp_path, capsys):
        root = make_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"findings": [{
            "rule": "BLOCK001", "path": "src/repro/gone.py",
            "message": "a finding that no longer exists",
            "justification": "was fixed",
        }]}))
        assert deepcheck_main([str(root), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "stale" in out

    def test_json_format(self, tmp_path, capsys):
        root = make_tree(tmp_path)
        assert deepcheck_main([str(root), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["rule_id"] == "BLOCK001"

    def test_rule_selection_and_unknown_rule(self, tmp_path, capsys):
        root = make_tree(tmp_path)
        assert deepcheck_main(
            [str(root), "--no-baseline", "--rules", "SHARD004"]
        ) == 0
        assert deepcheck_main(
            [str(root), "--no-baseline", "--rules", "BLOCK001"]
        ) == 1
        assert deepcheck_main([str(root), "--rules", "NOPE999"]) == 2

    def test_unknown_rule_ids_in_config_are_rejected(self, tmp_path, capsys):
        # a typo (DET01) or a retired id (SHARD001) in pyproject would
        # otherwise turn nothing on and report nothing
        root = make_tree(tmp_path)
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.corona-lint]\n"
            'rules = ["DET001", "DET01"]\n'
            'deepcheck-rules = ["BLOCK001", "SHARD001"]\n'
        )
        assert deepcheck_main(
            [str(root), "--no-baseline", "--config", str(pyproject)]
        ) == 2
        err = capsys.readouterr().err
        assert "DET01" in err and "SHARD001" in err
        assert lint_main([str(root), "--config", str(pyproject)]) == 2
        err = capsys.readouterr().err
        assert "DET01" in err and "SHARD001" in err

    def test_missing_root_rejected(self, tmp_path):
        assert deepcheck_main([str(tmp_path / "nowhere")]) == 2


class TestRacecheckCli:
    def test_seeded_run_is_clean(self, capsys):
        assert racecheck_main(["--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "racecheck:" in out and "0 race(s)" in out

    def test_injected_race_flips_exit_code(self, capsys):
        assert racecheck_main(["--shards", "2", "--inject-race"]) == 1
        out = capsys.readouterr().out
        assert "RACE001" in out

    def test_dump_then_check_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "race.jsonl"
        assert racecheck_main(["--shards", "2", "--dump", str(trace)]) == 0
        assert trace.is_file()
        capsys.readouterr()
        assert racecheck_main(["--check", str(trace)]) == 0

    def test_malformed_trace_rejected(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"lane": "front"}\n')  # missing fields
        assert racecheck_main(["--check", str(trace)]) == 2

    def test_missing_trace_rejected(self, tmp_path):
        assert racecheck_main(["--check", str(tmp_path / "none.jsonl")]) == 2


def _git(repo, *args):
    subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True,
        env={"HOME": str(repo), "GIT_AUTHOR_NAME": "t",
             "GIT_AUTHOR_EMAIL": "t@t", "GIT_COMMITTER_NAME": "t",
             "GIT_COMMITTER_EMAIL": "t@t", "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


@pytest.fixture
def git_repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "good.py").write_text("x = 1\n")
    _git(repo, "add", "good.py")
    _git(repo, "commit", "-qm", "seed")
    return repo


class TestLintChanged:
    def test_clean_repo_reports_nothing_changed(self, git_repo, monkeypatch, capsys):
        monkeypatch.chdir(git_repo)
        assert lint_main(["--changed"]) == 0
        assert "no changed python files" in capsys.readouterr().out

    def test_modified_file_is_linted(self, git_repo, monkeypatch, capsys):
        (git_repo / "good.py").write_text("def broken(:\n")
        monkeypatch.chdir(git_repo)
        assert lint_main(["--changed"]) == 1
        assert "PARSE" in capsys.readouterr().out

    def test_untracked_file_is_linted(self, git_repo, monkeypatch, capsys):
        (git_repo / "fresh.py").write_text("def broken(:\n")
        monkeypatch.chdir(git_repo)
        assert lint_main(["--changed"]) == 1
        assert "fresh.py" in capsys.readouterr().out

    def test_unchanged_tracked_files_are_skipped(self, git_repo, monkeypatch, capsys):
        # good.py would lint clean anyway; prove it is not even visited
        # by making the only changed file a non-python one
        (git_repo / "notes.txt").write_text("not python")
        monkeypatch.chdir(git_repo)
        assert lint_main(["--changed"]) == 0
        assert "no changed python files" in capsys.readouterr().out

    def test_changed_paths_outside_git_returns_empty(self, tmp_path):
        assert changed_paths(repo_root=tmp_path / "not-a-repo") == []
