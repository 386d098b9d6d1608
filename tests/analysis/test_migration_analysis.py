"""Analysis-layer coverage for the elastic-topology work.

Three gates, each tested in both directions:

* the migration lifecycle relays are **load-bearing happens-before
  edges**: an instrumented migration trace is race-free as recorded,
  and stripping the ``mig:*`` edges (``strip_migration_edges``) makes
  the vector-clock checker flag the WAL handoff — proving the
  ordering really comes from the protocol, not from luck;
* **SHARD004** flags GroupRuntime (or ``ServerCore.runtimes``) access
  outside the owning worker's lease, and stays silent for worker-side
  and sanctioned-module code;
* **unjustified_entries** keeps ``--update-baseline`` TODO placeholders
  from ever passing for justifications.
"""

from __future__ import annotations

from repro.analysis.deepcheck import check_graph, unjustified_entries
from repro.analysis.program import ProgramGraph
from repro.analysis.racecheck import (
    RaceRecorder,
    check_race_trace,
    strip_migration_edges,
)
from repro.core.server import ServerConfig
from repro.sim.harness import CoronaWorld

# -- strip-the-edge ----------------------------------------------------------


def _migration_trace(tmp_path):
    recorder = RaceRecorder()
    world = CoronaWorld()
    server = world.add_sharded_server(
        shards=2,
        store_root=tmp_path,
        config=ServerConfig(server_id="server", stateful=True, persist=True),
        race_recorder=recorder,
    )
    a = world.add_client(client_id="a")
    b = world.add_client(client_id="b")
    world.run()
    group = "room-0"
    created = a.call("create_group", group, True)
    world.run()
    assert created.ok
    joins = [c.call("join_group", group) for c in (a, b)]
    world.run()
    assert all(j.ok for j in joins)
    for i in range(3):
        a.call("bcast_update", group, "doc", b"v%d" % i)
    world.run()
    host = server.host
    host.migrate_group(group, 1 - host.router.route(group))
    world.run()
    sent = a.call("bcast_update", group, "doc", b"after")
    world.run()
    assert sent.ok
    assert host.sessions.migration_log[-1].outcome == "committed"
    return recorder.events()


class TestStripMigrationEdges:
    def test_migration_trace_is_race_free_as_recorded(self, tmp_path):
        events = _migration_trace(tmp_path)
        assert [e for e in events if e.obj.startswith("mig:")], (
            "migration produced no mig:* edges; nothing to strip"
        )
        assert check_race_trace(events) == []

    def test_stripping_the_edges_exposes_the_wal_handoff(self, tmp_path):
        events = _migration_trace(tmp_path)
        stripped = strip_migration_edges(events)
        findings = check_race_trace(stripped)
        assert findings, "migration edges are not load-bearing?"
        assert any("wal:room-0" in f.message for f in findings), [
            f.message for f in findings
        ]

    def test_strip_removes_sends_and_their_matched_recvs_only(self):
        rec = RaceRecorder()
        t_mig = rec.send("shard0", "mig:front")
        t_mbox = rec.send("front", "mbox:shard0")
        rec.recv("front", "mbox:front", t_mig)
        rec.recv("shard0", "mbox:shard0", t_mbox)
        rec.write("shard0", "wal:g")
        out = strip_migration_edges(rec.events())
        kinds = [(e.kind, e.obj) for e in out]
        assert ("send", "mig:front") not in kinds
        assert ("recv", "mbox:front") not in kinds       # token-matched
        assert ("send", "mbox:shard0") in kinds          # untouched
        assert ("recv", "mbox:shard0") in kinds
        assert ("write", "wal:g") in kinds


# -- SHARD004 ----------------------------------------------------------------

# Worker running the mailbox item protocol (it defines process_item) ->
# its methods (and its subclasses') are the lease side, whatever loop,
# thread or process drives it.
LEASE_SCAFFOLD = """
from repro.core.group_runtime import GroupRuntime

class Worker:
    def process_item(self, item):
        self.serve(item[1])
    def serve(self, runtime: GroupRuntime):
        runtime.reduce()
"""


def _deep(rules, **modules):
    graph = ProgramGraph.from_sources({
        name.replace("__", "/") + ".py": source
        for name, source in modules.items()
    })
    return check_graph(graph, rules)


class TestShard004:
    def test_fires_outside_the_lease(self):
        findings = _deep(
            ("SHARD004",),
            repro__w=LEASE_SCAFFOLD,
            repro__snoop="""
from repro.core.group_runtime import GroupRuntime
from repro.core.server import ServerCore

class Controller:
    core: ServerCore
    def peek(self, name):
        return self.core.runtimes[name]
    def poke(self, runtime: GroupRuntime):
        runtime.reduce()
""",
        )
        assert [f.rule_id for f in findings] == ["SHARD004", "SHARD004"]
        messages = " / ".join(f.message for f in findings)
        assert "ServerCore.runtimes" in messages
        assert "outside the owning worker's lease" in messages

    def test_silent_on_the_worker_and_its_subclasses(self):
        findings = _deep(
            ("SHARD004",),
            repro__w=LEASE_SCAFFOLD,
            repro__sub="""
from repro.w import Worker
from repro.core.group_runtime import GroupRuntime

class SimWorker(Worker):
    def install(self, runtime: GroupRuntime):
        runtime.reduce()
""",
        )
        assert findings == []

    def test_owning_a_thread_does_not_make_a_class_lease_side(self):
        # the lease side is whoever runs the item protocol, not whoever
        # happens to own a thread
        findings = _deep(
            ("SHARD004",),
            repro__bg="""
import threading

from repro.core.group_runtime import GroupRuntime

class Reaper:
    def __init__(self):
        self._thread = threading.Thread()
    def sweep(self, runtime: GroupRuntime):
        runtime.reduce()
""",
        )
        assert [f.rule_id for f in findings] == ["SHARD004"]

    def test_silent_in_sanctioned_modules(self):
        findings = _deep(
            ("SHARD004",),
            repro__core__inner="""
from repro.core.group_runtime import GroupRuntime

class CoreSide:
    def touch(self, runtime: GroupRuntime):
        runtime.reduce()
""",
            repro__runtime__migration="""
from repro.core.group_runtime import GroupRuntime

def snapshot(runtime: GroupRuntime):
    return runtime.reduce()
""",
        )
        assert findings == []

    def test_repo_tree_has_no_unbaselined_shard004(self):
        from repro.analysis.deepcheck import (
            deepcheck_paths,
            load_baseline,
            split_baselined,
        )
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        _graph, findings = deepcheck_paths(repo / "src", rules=("SHARD004",))
        baseline = load_baseline(repo / "deepcheck-baseline.json")
        new, _ = split_baselined(findings, baseline)
        assert new == [], [f.message for f in new]


# -- the TODO-placeholder gate ----------------------------------------------


class TestUnjustifiedEntries:
    def test_flags_todo_and_empty_justifications_only(self):
        entries = [
            {"rule": "SHARD004", "path": "a.py",
             "justification": "TODO: justify this finding"},
            {"rule": "BLOCK002", "path": "b.py", "justification": "   "},
            {"rule": "SCHED001", "path": "c.py"},
            {"rule": "SHARD004", "path": "d.py",
             "justification": "todo — lowercase counts too"},
            {"rule": "SHARD004", "path": "e.py",
             "justification": "monitoring-only read; GIL-atomic int"},
        ]
        flagged = unjustified_entries(entries)
        assert [e["path"] for e in flagged] == [
            "a.py", "b.py", "c.py", "d.py"
        ]

    def test_committed_baseline_is_fully_justified(self):
        from pathlib import Path
        from repro.analysis.deepcheck import load_baseline

        repo = Path(__file__).resolve().parents[2]
        baseline = load_baseline(repo / "deepcheck-baseline.json")
        assert baseline, "committed baseline is missing or empty"
        assert unjustified_entries(baseline) == []
