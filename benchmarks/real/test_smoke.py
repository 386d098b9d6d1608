"""Smoke tests of the wall-clock benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/real -q

They spawn real servers, so they take about a minute.  What they pin
down: the names the benchmark emits are the names ``BENCHMARK.json``
declares, the correctness gate trips when the reference is wrong, and the
three ``rooms_*`` workloads really do send the same bytes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import runner  # noqa: E402
from loadgen import new_event_loop  # noqa: E402
from verify import VerifyError  # noqa: E402
from workloads import WORKLOADS, Traffic, workload_named  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _emitted(workload: str, trace: int) -> dict:
    """The result object of one short run through the contract's command."""
    argv = list(CONTRACT["command"]) + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
    ]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workload_names_match_the_contract():
    assert [w["name"] for w in CONTRACT["workloads"]] == [w.name for w in WORKLOADS]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_the_contract(trace, section):
    result = _emitted("rooms_single", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared


def test_smoke_runs_every_workload():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    for workload in WORKLOADS:
        assert f"# smoke {workload.name}:" in done.stdout


def test_verify_trips_on_a_corrupted_fold():
    loop = new_event_loop()
    try:
        with pytest.raises(VerifyError, match="serial fold"):
            loop.run_until_complete(runner.run_end_to_end(
                workload_named("rooms_single"), 7, runner.Plan(1, smoke=True),
                corrupt_fold=True,
            ))
    finally:
        loop.close()


def test_rooms_workloads_send_identical_bytes():
    rooms = [w for w in WORKLOADS if w.name.startswith("rooms_")]
    assert len(rooms) == 3
    for seed in (1, 2):
        digests = {Traffic(w.traffic, seed).stream_digest(2000) for w in rooms}
        assert len(digests) == 1
    assert (
        Traffic(rooms[0].traffic, 1).stream_digest(500)
        != Traffic(rooms[0].traffic, 2).stream_digest(500)
    )
