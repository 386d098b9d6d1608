"""Fire/silent pairs for the whole-program deepcheck rules, baseline
mechanics, and the repo-level zero-new-findings gate (SHARD004 lives in
test_migration_analysis.py)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.deepcheck import (
    ALL_DEEP_RULES,
    baseline_payload,
    check_graph,
    deepcheck_paths,
    fingerprint,
    load_baseline,
    split_baselined,
)
from repro.analysis.lint import load_config
from repro.analysis.program import ProgramGraph

def deep(rules=None, **modules) -> list:
    graph = ProgramGraph.from_sources({
        name.replace("__", "/") + ".py": source
        for name, source in modules.items()
    })
    return check_graph(graph, rules)


def rule_ids(findings) -> list[str]:
    return [f.rule_id for f in findings]


class TestBlock001:
    def test_fires_on_sleep_in_coroutine(self):
        findings = deep(rules=("BLOCK001",), repro__m="""
import time

async def tick():
    time.sleep(1.0)
""")
        assert rule_ids(findings) == ["BLOCK001"]
        assert "time.sleep" in findings[0].message

    def test_silent_in_sync_function_and_async_sleep(self):
        findings = deep(rules=("BLOCK001",), repro__m="""
import asyncio
import time

def worker_thread():
    time.sleep(1.0)

async def tick():
    await asyncio.sleep(1.0)
""")
        assert findings == []


class TestBlock002:
    def test_fires_through_sync_call_chain(self):
        findings = deep(rules=("BLOCK002",), repro__m="""
import os

def sync_write(fd):
    os.fsync(fd)

async def handler(fd):
    sync_write(fd)
""")
        assert rule_ids(findings) == ["BLOCK002"]
        assert "handler" in findings[0].message

    #: The interpreter module's two classes: the bridge follows every
    #: method the backend protocol declares.
    INTERPRETER = """
class EffectBackend:
    def deliver_fanout(self, conns, message): pass
    def append_wal(self, group, seqno, record): pass

class EffectInterpreter:
    def execute(self, effects): pass
"""

    def test_fires_through_interpreter_dispatch_bridge(self):
        findings = deep(
            rules=("BLOCK002",),
            repro__core__interpreter=self.INTERPRETER,
            repro__backend="""
import os
from repro.core.interpreter import EffectInterpreter

class Backend:
    def __init__(self):
        self.interpreter = EffectInterpreter()
    def append_wal(self, group, seqno, record):
        os.fsync(3)
    async def run(self, effects):
        self.interpreter.execute(effects)
""",
        )
        assert rule_ids(findings) == ["BLOCK002"]
        assert "append_wal" in findings[0].message

    def test_fires_through_fanout_from_a_loop_callback(self):
        # a fan-out is one effect: its only blocking call sits in the
        # backend's deliver_fanout, reached from a call_soon callback
        findings = deep(
            rules=("BLOCK002",),
            repro__core__interpreter=self.INTERPRETER,
            repro__backend="""
import asyncio
import os
from repro.core.interpreter import EffectBackend, EffectInterpreter

class Backend(EffectBackend):
    def __init__(self):
        self.interpreter = EffectInterpreter()
        self._loop = asyncio.new_event_loop()
    def deliver_fanout(self, conns, message):
        os.fsync(3)
        return len(conns)
    def submit(self, effects):
        self._loop.call_soon(self._run, effects)
    def _run(self, effects):
        self.interpreter.execute(effects)
""",
        )
        assert rule_ids(findings) == ["BLOCK002"]
        assert "Backend.deliver_fanout" in findings[0].message
        assert "callback repro.backend.Backend._run" in findings[0].message

    def test_silent_when_only_sync_code_reaches_it(self):
        findings = deep(rules=("BLOCK002",), repro__m="""
import os

def sync_write(fd):
    os.fsync(fd)

def also_sync(fd):
    sync_write(fd)
""")
        assert findings == []

    def test_async_callee_is_not_traversed_from_entry(self):
        # the awaited coroutine is its own entry; reaching the blocking
        # site is reported once (for the inner entry), not twice
        findings = deep(rules=("BLOCK002",), repro__m="""
import os

def sync_write(fd):
    os.fsync(fd)

async def inner(fd):
    sync_write(fd)

async def outer(fd):
    await inner(fd)
""")
        assert rule_ids(findings) == ["BLOCK002"]
        assert "inner" in findings[0].message


class TestLoopCallbackEntryPoints:
    """Work that starts in ``data_received`` or a ``call_soon`` callback
    runs on the event loop just as an ``async def`` does."""

    CALLBACKS = """
import asyncio
import os
import time

def write_a(fd):
    os.fsync(fd)

def write_b(fd):
    os.fsync(fd)

def write_c(fd):
    os.fsync(fd)

class Conn(asyncio.Protocol):
    def data_received(self, chunk):
        time.sleep(0.1)
        write_a(3)

class Host:
    def __init__(self):
        self._loop = asyncio.new_event_loop()
    def deliver(self):
        self._loop.call_soon(self._flush)
        self._loop.call_later(0.5, self._tick, 1)
        self._loop.call_soon_threadsafe(standalone)
    def _flush(self):
        time.sleep(0.1)
    def _tick(self, n):
        write_b(n)

def standalone():
    write_c(4)
"""

    def test_fires_in_protocol_methods_and_scheduled_callables(self):
        direct = deep(rules=("BLOCK001",), repro__m=self.CALLBACKS)
        assert [f.message.split()[:2] for f in direct] == [
            ["callback", "repro.m.Conn.data_received"],
            ["callback", "repro.m.Host._flush"],
        ]
        reached = deep(rules=("BLOCK002",), repro__m=self.CALLBACKS)
        assert sorted(f.message.split(" in ")[1] for f in reached) == [
            "repro.m.write_a is reachable from event-loop callback "
            "repro.m.Conn.data_received",
            "repro.m.write_b is reachable from event-loop callback "
            "repro.m.Host._tick",
            "repro.m.write_c is reachable from event-loop callback "
            "repro.m.standalone",
        ]

    def test_silent_for_plain_classes_and_callables_nobody_schedules(self):
        findings = deep(rules=("BLOCK001", "BLOCK002"), repro__m="""
import os
import time

def sync_write(fd):
    os.fsync(fd)

class NotAProtocol:
    def data_received(self, chunk):
        time.sleep(0.1)
        sync_write(3)

class Host:
    def call_soon(self, fn):
        fn()
    def run(self):
        self._flush()          # called, never handed to a loop
    def _flush(self):
        time.sleep(0.1)
""")
        assert findings == []


class TestSuppressionAndScoping:
    def test_noqa_silences_single_rule(self):
        findings = deep(
            rules=("BLOCK001",),
            repro__m="""
import time

async def tick():
    time.sleep(1.0)  # noqa: BLOCK001 -- test fixture
""",
        )
        assert findings == []

    def test_corona_noqa_multi_rule_list(self):
        findings = deep(
            rules=("BLOCK001",),
            repro__m="""
import time

async def tick():
    time.sleep(1.0)  # corona: noqa(DET001, BLOCK001)
""",
        )
        assert findings == []

    def test_noqa_for_other_rule_does_not_silence(self):
        findings = deep(
            rules=("BLOCK001",),
            repro__m="""
import time

async def tick():
    time.sleep(1.0)  # noqa: DET001
""",
        )
        assert rule_ids(findings) == ["BLOCK001"]

    def test_per_rule_exclude_by_module_prefix(self):
        graph = ProgramGraph.from_sources({"repro/m.py": """
import time

async def tick():
    time.sleep(1.0)
"""})
        hit = check_graph(graph, ("BLOCK001",))
        assert rule_ids(hit) == ["BLOCK001"]
        silenced = check_graph(
            graph, ("BLOCK001",), {"BLOCK001": ("repro.m",)}
        )
        assert silenced == []

    def test_unknown_rule_id_is_an_error_not_a_no_op(self):
        graph = ProgramGraph.from_sources({"repro/m.py": "x = 1\n"})
        with pytest.raises(ValueError, match="LOCK9, NOPE1"):
            check_graph(graph, ("BLOCK001", "NOPE1", "LOCK9"))


class TestBaseline:
    def test_split_baselined_new_known_stale(self):
        graph = ProgramGraph.from_sources({"repro/m.py": """
import time

async def tick():
    time.sleep(1.0)
"""})
        findings = check_graph(graph, ("BLOCK001",))
        assert len(findings) == 1
        baseline = baseline_payload(findings, [])["findings"]
        assert baseline[0]["justification"] == "TODO: justify or fix"
        new, stale = split_baselined(findings, baseline)
        assert new == [] and stale == []
        ghost = dict(baseline[0], message="gone finding")
        new, stale = split_baselined(findings, [ghost])
        assert len(new) == 1 and len(stale) == 1

    def test_payload_carries_existing_justifications(self):
        graph = ProgramGraph.from_sources({"repro/m.py": """
import time

async def tick():
    time.sleep(1.0)
"""})
        findings = check_graph(graph, ("BLOCK001",))
        old = baseline_payload(findings, [])["findings"]
        old[0]["justification"] = "deliberate: fixture"
        again = baseline_payload(findings, old)["findings"]
        assert again[0]["justification"] == "deliberate: fixture"

    def test_fingerprint_ignores_line_numbers(self):
        graph = ProgramGraph.from_sources({"repro/m.py": """
import time

async def tick():
    time.sleep(1.0)
"""})
        f = check_graph(graph, ("BLOCK001",))[0]
        shifted = ProgramGraph.from_sources({"repro/m.py": """
import time

# an unrelated comment pushing everything down


async def tick():
    time.sleep(1.0)
"""})
        g = check_graph(shifted, ("BLOCK001",))[0]
        assert f.line != g.line
        assert fingerprint(f) == fingerprint(g)


class TestRepoIsClean:
    def test_shipped_tree_has_no_unbaselined_findings(self):
        root = Path(__file__).resolve().parents[2]
        config = load_config(root / "pyproject.toml")
        _graph, findings = deepcheck_paths(
            root / "src", config.deepcheck_rules, config.per_rule_exclude
        )
        baseline = load_baseline(root / config.deepcheck_baseline)
        new, stale = split_baselined(findings, baseline)
        assert new == [], "\n".join(f.render() for f in new)
        assert stale == [], f"stale baseline entries: {stale}"

    def test_every_baseline_entry_is_justified(self):
        root = Path(__file__).resolve().parents[2]
        config = load_config(root / "pyproject.toml")
        baseline = load_baseline(root / config.deepcheck_baseline)
        assert baseline, "committed baseline should not be empty"
        for entry in baseline:
            justification = entry.get("justification", "")
            assert justification and "TODO" not in justification, entry

    def test_configured_deepcheck_rules_cover_all_families(self):
        root = Path(__file__).resolve().parents[2]
        config = load_config(root / "pyproject.toml")
        assert set(config.deepcheck_rules) == set(ALL_DEEP_RULES)
        assert config.deepcheck_baseline == "deepcheck-baseline.json"


# The SharedState scaffold SCHED001 classifies: the real qualnames of
# the state classes, a scheduler module, and the serial commit points.
SCHED_SCAFFOLD = """
class SharedObject:
    def apply(self, record): pass
    def truncate(self, upto): pass

class SharedState:
    def apply(self, record): pass
    def fold(self, upto): pass
    def version(self, object_id): return None
    def get(self, object_id) -> SharedObject: return SharedObject()
"""


class TestSched001:
    def test_fires_on_mutation_outside_commit_path(self):
        findings = deep(
            rules=("SCHED001",),
            repro__core__state=SCHED_SCAFFOLD,
            repro__replication__healer="""
from repro.core.state import SharedState

def heal(state: SharedState, record):
    state.apply(record)
""",
        )
        assert rule_ids(findings) == ["SCHED001"]
        assert "SharedState.apply" in findings[0].message

    def test_fires_on_shared_object_truncate_via_get(self):
        findings = deep(
            rules=("SCHED001",),
            repro__core__state=SCHED_SCAFFOLD,
            repro__replication__healer="""
from repro.core.state import SharedState

def rollback(state: SharedState, object_id, seqno):
    state.get(object_id).truncate(seqno)
""",
        )
        assert rule_ids(findings) == ["SCHED001"]
        assert "SharedObject.truncate" in findings[0].message

    def test_silent_in_scheduler_module_and_commit_points(self):
        findings = deep(
            rules=("SCHED001",),
            repro__core__state=SCHED_SCAFFOLD,
            repro__core__scheduler="""
from repro.core.state import SharedState

def commit(state: SharedState, record):
    state.apply(record)
""",
            repro__core__group_runtime="""
from repro.core.state import SharedState

class GroupRuntime:
    state: SharedState
    def apply_and_deliver(self, record):
        self.state.apply(record)
    def reduce(self, upto):
        self.state.fold(upto)
""",
        )
        assert findings == []

    def test_silent_on_reads_and_unrelated_apply(self):
        findings = deep(
            rules=("SCHED001",),
            repro__core__state=SCHED_SCAFFOLD,
            repro__other="""
from repro.core.state import SharedState

class Patch:
    def apply(self, record): pass

def observe(state: SharedState, patch: Patch, record):
    version = state.version("doc")
    patch.apply(record)
    return version
""",
        )
        assert findings == []
