"""Hot group: dependency-aware optimistic parallelism vs. conflict rate.

Beyond the paper: the optimistic scheduler (``repro.core.scheduler``)
executes independent commands of ONE group concurrently and commits them
in strict sequence order.  This benchmark blasts a 1000-member group and
gates the headline claims on the simulated mirror, where the scheduler's
execution lanes are modeled CPU lanes:

  * accepted throughput with 4 execution lanes is at least 1.5x the
    strict-serial apply path at 0% conflict (all-distinct object ids);
  * the speedup degrades gracefully — it stays above 1.2x even when half
    the stream hits one hot object id and every collision is detected,
    counted, and re-executed serially;
  * the output is *exactly* the serial output: every member's delivery
    stream (seqno, object id, payload) is byte-identical, and recovered
    storage after a persistent run matches record for record.

Results land in ``BENCH_hot_group.json`` and are gated by
``repro benchcheck`` against the committed baseline.
"""

from repro.bench.experiments import EXPERIMENTS, hot_group
from repro.bench.report import format_table
from repro.bench.results import save_results
from repro.storage.store import GroupStore


def _recover(root):
    store = GroupStore(root / "shard0")
    groups = store.recover_all()
    store.close()
    return {
        name: (rec.meta, rec.checkpoint_seqno, rec.snapshot, rec.records)
        for name, rec in groups.items()
    }


def test_hot_group(benchmark, paper_report, tmp_path):
    rows = benchmark.pedantic(hot_group, rounds=1, iterations=1)
    by_key = {(r.conflict_pct, r.exec_lanes): r for r in rows}
    lanes = max(r.exec_lanes for r in rows)
    conflicts = sorted({r.conflict_pct for r in rows})
    assert set(by_key) == {(p, e) for p in conflicts for e in (0, lanes)}

    # exact-output parity: asserted inside the experiment per rate, and
    # surfaced on every row so the baseline records it
    assert all(r.parity for r in rows), "parallel output diverged from serial"

    # the headline claim: independent commands overlap on the exec lanes
    low = by_key[(0, lanes)]
    assert low.speedup >= 1.5, f"0%-conflict speedup {low.speedup:.2f} < 1.5"
    assert low.conflicts == 0 and low.reexecutions == 0

    # graceful degradation: conflicts are detected and re-executed, and
    # the non-conflicting majority still buys real overlap
    hot = by_key[(50, lanes)]
    assert hot.conflicts > 0 and hot.reexecutions == hot.conflicts
    assert hot.speedup >= 1.2, f"50%-conflict speedup {hot.speedup:.2f} < 1.2"

    # serial rows never touch the scheduler
    for pct in conflicts:
        serial = by_key[(pct, 0)]
        assert serial.commands_parallel == serial.conflicts == 0
        assert serial.reexecutions == serial.commit_stalls == 0

    # recovered-storage parity: a persistent run's WAL through the
    # scheduler commit path recovers to exactly the serial records
    # (quick scale — the claim is byte identity, not throughput)
    quick = EXPERIMENTS["hot_group"].quick
    persist = hot_group(**quick, store_root=tmp_path)
    assert all(r.parity for r in persist)
    for run in range(len(quick["conflict_pcts"])):
        serial_rec = _recover(tmp_path / f"run{run}-lanes0")
        parallel_rec = _recover(tmp_path / f"run{run}-lanes{lanes}")
        assert serial_rec == parallel_rec, "recovered storage diverged"

    # determinism: re-running reproduces every number exactly
    again = hot_group()
    assert [
        (r.conflict_pct, r.exec_lanes, r.accepted_per_s, r.conflicts,
         r.commit_stalls) for r in again
    ] == [
        (r.conflict_pct, r.exec_lanes, r.accepted_per_s, r.conflicts,
         r.commit_stalls) for r in rows
    ], "same workload, different numbers: the scheduler sim is not deterministic"

    save_results("hot_group", {
        "members": 1000,
        "exec_lanes": lanes,
        "rows": [
            {"conflict_pct": r.conflict_pct, "exec_lanes": r.exec_lanes,
             "accepted_per_s": r.accepted_per_s,
             "commands_parallel": r.commands_parallel,
             "conflicts": r.conflicts, "reexecutions": r.reexecutions,
             "speedup": r.speedup, "parity": r.parity}
            for r in rows
        ],
    })
    paper_report(format_table(
        "Hot group — accepted msg/s vs conflict rate (1000 members)",
        ["conflict %", "exec lanes", "accepted msg/s", "conflicts",
         "re-exec", "speedup"],
        [[r.conflict_pct, r.exec_lanes, r.accepted_per_s, r.conflicts,
          r.reexecutions, r.speedup] for r in rows],
        note=(
            "Dependency-aware optimistic execution inside one shard:\n"
            "independent commands run on modeled execution lanes, commits\n"
            "stay in strict seqno order, conflicts re-execute serially.\n"
            "Delivery streams are asserted byte-identical to serial."
        ),
    ))
