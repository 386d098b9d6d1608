"""Whole-program concurrency rules over the :class:`ProgramGraph`.

Three rule families, all architectural (they need the cross-module
ownership model and call graph that single-file lint cannot build):

``SHARD004`` — the lease discipline of the elastic topology, under any
driver.  GroupRuntime state may only be touched under the owning
worker's lease — by a class that runs the mailbox item protocol
(defines or inherits ``process_item``) — because live migration can
move a group between shards at any item boundary.

``SCHED001`` — shared group state (``SharedState`` / ``SharedObject``)
is mutated only on the scheduler's serial commit path, so optimistic
parallel execution sees every mutation its version checks depend on.

``BLOCK001–002`` — blocking-call reachability.  ``time.sleep``, fsync,
sync file/socket I/O and ``subprocess`` must not run on an event loop.
What runs *on* the loop is every ``async def``, every method of an
``asyncio.Protocol`` / ``BufferedProtocol`` subclass (the transport
calls them) and every callable handed to ``call_soon`` /
``call_soon_threadsafe`` / ``call_later``: BLOCK001 flags a blocking
call written directly in such an entry point, BLOCK002 one *reachable*
from it through the call graph, including the dynamic hop through
``interpreter.execute`` into the enclosing backend's effect methods.

Every rule reports :class:`Finding` values whose messages embed the
enclosing symbol, so the committed JSON baseline matches findings by
``(rule, path, message)`` — stable across unrelated line drift.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.program import FunctionInfo, ProgramGraph
from repro.analysis.suppress import line_suppresses

__all__ = [
    "DEEP_RULES",
    "ALL_DEEP_RULES",
    "check_graph",
    "deepcheck_paths",
    "fingerprint",
    "load_baseline",
    "split_baselined",
    "baseline_payload",
    "unjustified_entries",
]

#: Calls that block the calling thread.  Exact dotted names.
_BLOCKING_CALLS = {
    "time.sleep": "time.sleep",
    "os.fsync": "os.fsync",
    "os.fdatasync": "os.fdatasync",
    "open": "open",
    "io.open": "io.open",
    "os.open": "os.open",
    "input": "input",
    "socket.socket": "socket.socket",
    "socket.create_connection": "socket.create_connection",
    "shutil.rmtree": "shutil.rmtree",
}

#: Dotted-prefix families that block.
_BLOCKING_PREFIXES = ("subprocess.", "requests.", "urllib.request.")

_INTERPRETER_CLASS = "repro.core.interpreter.EffectInterpreter"

#: Its backend protocol: every method declared here is reachable through
#: ``interpreter.execute`` / ``interpreter.dispatch`` (the dynamic hop
#: BLOCK002 must follow).
_BACKEND_CLASS = "repro.core.interpreter.EffectBackend"

#: Bases whose methods the transport calls on the event loop.
_PROTOCOL_BASES = frozenset({
    "asyncio.Protocol", "asyncio.BufferedProtocol",
    "asyncio.protocols.Protocol", "asyncio.protocols.BufferedProtocol",
})

#: Loop methods that run a callback later -> the callback's position.
#: Matched by method name: ``HostBackend.call_later`` wraps the loop's.
_LOOP_SCHEDULERS = {
    "call_soon": 0, "call_soon_threadsafe": 0, "call_later": 1, "call_at": 1,
}


def _excluded(module: str, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _finding(rule_id: str, fn: FunctionInfo, node: ast.AST, message: str) -> Finding:
    rule = DEEP_RULES[rule_id]
    return Finding(
        rule_id=rule_id,
        severity=rule.severity,
        path=fn.path,
        line=getattr(node, "lineno", fn.node.lineno),
        col=getattr(node, "col_offset", 0),
        message=message,
        hint=rule.hint,
    )


def _short(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


# --------------------------------------------------------------------------
# BLOCK001/002: blocking calls on event loops
# --------------------------------------------------------------------------

def _blocking_name(callee: str | None) -> str | None:
    if callee is None:
        return None
    if callee in _BLOCKING_CALLS:
        return _BLOCKING_CALLS[callee]
    for prefix in _BLOCKING_PREFIXES:
        if callee.startswith(prefix):
            return callee
    return None


def _blocking_sites(graph: ProgramGraph, fn: FunctionInfo) -> list[tuple[str, ast.Call]]:
    sites = []
    for site in graph.callees(fn.qualname):
        name = _blocking_name(site.callee)
        if name is not None:
            sites.append((name, site.node))
    return sites


def _loop_entry_points(graph: ProgramGraph) -> dict[str, str]:
    """Every function the event loop runs directly -> ``"coroutine"`` or
    ``"callback"``: each ``async def``, each method of an
    ``asyncio.Protocol`` subclass, and each program function handed to
    ``call_soon`` / ``call_soon_threadsafe`` / ``call_later``."""
    entries: dict[str, str] = {}
    for qual, fn in graph.functions.items():
        if fn.is_async:
            entries[qual] = "coroutine"
        elif fn.cls is not None and not _PROTOCOL_BASES.isdisjoint(graph.mro(fn.cls)):
            entries[qual] = "callback"
    for fn in graph.functions.values():
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            position = _LOOP_SCHEDULERS.get(node.func.attr)
            if position is None or len(node.args) <= position:
                continue
            target = graph.resolve_callable(fn, node.args[position])
            if target in graph.functions:
                entries.setdefault(target, "callback")
    return entries


def _check_block001(graph: ProgramGraph) -> list[Finding]:
    findings: list[Finding] = []
    entries = _loop_entry_points(graph)
    for qual in sorted(entries):
        fn = graph.functions[qual]
        for name, node in _blocking_sites(graph, fn):
            findings.append(_finding(
                "BLOCK001", fn, node,
                f"{entries[qual]} {fn.qualname} calls blocking {name}() "
                f"directly on the event loop",
            ))
    return findings


def _dispatch_bridge_edges(graph: ProgramGraph) -> dict[str, list[str]]:
    """``interpreter.execute`` call sites -> the enclosing backend's
    effect methods (its class and every program subclass)."""
    backend = graph.classes.get(_BACKEND_CLASS)
    effect_methods = sorted(backend.methods) if backend is not None else []
    edges: dict[str, list[str]] = {}
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if fn.cls is None:
            continue
        hops: list[str] = []
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("execute", "dispatch")):
                continue
            recv = graph.expr_type(fn, node.func.value)
            if recv is None or recv.base != _INTERPRETER_CLASS:
                continue
            for sub in graph.subclasses(fn.cls):
                for method in effect_methods:
                    target = graph.find_method(sub, method)
                    if target is not None:
                        hops.append(target)
            break
        if hops:
            edges[qual] = sorted(set(hops))
    return edges


def _check_block002(graph: ProgramGraph) -> list[Finding]:
    bridge = _dispatch_bridge_edges(graph)
    entries = _loop_entry_points(graph)
    sync_edges: dict[str, list[str]] = {}
    for qual in sorted(graph.functions):
        targets: list[str] = []
        for site in graph.callees(qual):
            if not site.in_program:
                continue
            # an awaited coroutine (or a loop callback someone also
            # calls) is its own entry point; do not traverse into it
            # from here (avoids double reports)
            if site.callee in graph.functions and site.callee not in entries:
                targets.append(site.callee)
        targets.extend(bridge.get(qual, ()))
        sync_edges[qual] = sorted(set(targets))

    findings: list[Finding] = []
    seen_sites: set[tuple[str, str]] = set()
    for entry in sorted(entries):
        reached: set[str] = set()
        queue = list(sync_edges.get(entry, ()))
        while queue:
            current = queue.pop(0)
            if current in reached:
                continue
            reached.add(current)
            queue.extend(sync_edges.get(current, ()))
        for target in sorted(reached):
            fn = graph.functions[target]
            for name, node in _blocking_sites(graph, fn):
                key = (target, name)
                if key in seen_sites:
                    continue
                seen_sites.add(key)
                findings.append(_finding(
                    "BLOCK002", fn, node,
                    f"blocking {name}() in {fn.qualname} is reachable from "
                    f"event-loop {entries[entry]} {entry}",
                ))
    return findings


# --------------------------------------------------------------------------
# SCHED001: shared-state mutation outside the scheduler commit path
# --------------------------------------------------------------------------

#: The classes whose mutation the optimistic scheduler's version checks
#: must observe completely.
_SHARED_STATE_CLASSES = frozenset({
    "repro.core.state.SharedState",
    "repro.core.state.SharedObject",
})

#: Their mutating methods (everything else on them is a read).
_STATE_MUTATORS = frozenset({"apply", "fold", "truncate"})

#: Modules whose mutations ARE the commit path (the scheduler itself)
#: or the classes' own internals (SharedState.apply -> SharedObject.apply).
_COMMIT_PATH_MODULES = ("repro.core.scheduler", "repro.core.state")

#: The serial commit entry points every sequenced mutation funnels
#: through: apply in seqno order, and log reduction (a whole-state
#: barrier — the scheduler flushes before it runs).
_COMMIT_PATH_FUNCS = frozenset({
    "repro.core.group_runtime.GroupRuntime.apply_and_deliver",
    "repro.core.group_runtime.GroupRuntime.reduce",
})


def _check_sched001(graph: ProgramGraph) -> list[Finding]:
    findings: list[Finding] = []
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if qual in _COMMIT_PATH_FUNCS or _excluded(fn.module, _COMMIT_PATH_MODULES):
            continue
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _STATE_MUTATORS):
                continue
            ref = graph.expr_type(fn, node.func.value)
            if ref is None or ref.base not in _SHARED_STATE_CLASSES:
                continue
            findings.append(_finding(
                "SCHED001", fn, node,
                f"{fn.qualname} calls `{_short(ref.base)}."
                f"{node.func.attr}` outside the scheduler commit path",
            ))
    return findings


# --------------------------------------------------------------------------
# SHARD004: GroupRuntime access outside the owning worker's lease
# --------------------------------------------------------------------------

#: The migratable unit: whichever worker holds the group's lease owns it.
_RUNTIME_CLASS = "repro.core.group_runtime.GroupRuntime"
_SERVER_CORE_CLASS = "repro.core.server.ServerCore"

#: Modules that ARE the leased execution context: the core dispatch
#: machinery runs inside whatever worker loop drives it, and the
#: snapshot/restore module is only ever called from migrate handlers on
#: the owning (or adopting) worker's loop.
_LEASE_SANCTIONED_MODULES = ("repro.core", "repro.runtime.migration")


def _lease_side_classes(graph: ProgramGraph) -> set[str]:
    """Classes that run the mailbox item protocol — they define or
    inherit ``process_item`` — whatever loop, thread or process drives
    them: a group's lease names the worker whose items may touch it."""
    return {
        qual for qual in graph.classes
        if graph.find_method(qual, "process_item") is not None
    }


def _check_shard004(graph: ProgramGraph) -> list[Finding]:
    lease_side = _lease_side_classes(graph)
    findings: list[Finding] = []
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if _excluded(fn.module, _LEASE_SANCTIONED_MODULES):
            continue
        if fn.cls is not None and fn.cls in lease_side:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Attribute):
                continue
            ref = graph.expr_type(fn, node.value)
            if ref is None:
                continue
            if ref.base == _RUNTIME_CLASS:
                findings.append(_finding(
                    "SHARD004", fn, node,
                    f"{fn.qualname} touches GroupRuntime state "
                    f"`.{node.attr}` outside the owning worker's lease",
                ))
            elif ref.base == _SERVER_CORE_CLASS and node.attr == "runtimes":
                findings.append(_finding(
                    "SHARD004", fn, node,
                    f"{fn.qualname} reads the runtime table "
                    f"`ServerCore.runtimes` outside the owning worker's "
                    f"lease",
                ))
    return findings


# --------------------------------------------------------------------------
# the rule table and the driver
# --------------------------------------------------------------------------

class DeepRule(NamedTuple):
    """One whole-program rule: how it reports, and the check that runs it."""

    severity: Severity
    rationale: str
    hint: str
    check: Callable[[ProgramGraph], list[Finding]]


DEEP_RULES: dict[str, DeepRule] = {
    "SHARD004": DeepRule(
        Severity.ERROR,
        "GroupRuntime state (or the ServerCore runtime table behind it) "
        "is accessed outside the owning worker's lease — under live "
        "migration a group's runtime may move between shards at any "
        "item boundary, so only code running on the leased worker's "
        "loop may touch it",
        "read the immutable owned_groups/recovered_groups snapshots, "
        "sample DispatchStats, or route the work through the mailbox",
        _check_shard004,
    ),
    "SCHED001": DeepRule(
        Severity.ERROR,
        "shared group state (SharedState/SharedObject) is mutated "
        "outside the scheduler commit path — under optimistic parallel "
        "execution any such site can interleave with in-flight "
        "speculation and corrupt the version checks",
        "mutate through GroupRuntime.apply_and_deliver/reduce (the "
        "serial commit points) or baseline the site with a "
        "justification (client-side mirrors, recovery replay)",
        _check_sched001,
    ),
    "BLOCK001": DeepRule(
        Severity.ERROR,
        "a blocking call (sleep, fsync, sync file/socket I/O, "
        "subprocess) is written directly in an async def or an "
        "event-loop callback",
        "await the async equivalent or move the call to an executor",
        _check_block001,
    ),
    "BLOCK002": DeepRule(
        Severity.ERROR,
        "a blocking call is transitively reachable from a coroutine "
        "or callback running on an event loop (including through effect "
        "dispatch)",
        "break the chain with run_in_executor or baseline it with a "
        "justification (e.g. shutdown paths, startup recovery)",
        _check_block002,
    ),
}

ALL_DEEP_RULES: tuple[str, ...] = tuple(sorted(DEEP_RULES))


def check_graph(
    graph: ProgramGraph,
    rules: Iterable[str] | None = None,
    per_rule_exclude: dict[str, tuple[str, ...]] | None = None,
) -> list[Finding]:
    """Run the deepcheck rules over *graph*; noqa-filtered and sorted.

    Raises :class:`ValueError` naming every id in *rules* that is not a
    deepcheck rule, rather than quietly running fewer rules than asked.
    """
    rule_ids = tuple(rules) if rules is not None else ALL_DEEP_RULES
    unknown = sorted(set(rule_ids) - set(DEEP_RULES))
    if unknown:
        raise ValueError(f"unknown deepcheck rule id(s): {', '.join(unknown)}")
    per_rule_exclude = per_rule_exclude or {}
    module_by_path = {mod.path: mod.name for mod in graph.modules.values()}
    lines_by_path = {
        mod.path: mod.source.splitlines() for mod in graph.modules.values()
    }
    findings: list[Finding] = []
    for rule_id in sorted(rule_ids):
        excludes = per_rule_exclude.get(rule_id, ())
        for finding in DEEP_RULES[rule_id].check(graph):
            module = module_by_path.get(finding.path, "")
            if _excluded(module, excludes):
                continue
            lines = lines_by_path.get(finding.path, [])
            if 1 <= finding.line <= len(lines) and line_suppresses(
                lines[finding.line - 1], finding.rule_id
            ):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def deepcheck_paths(
    root: str | Path,
    rules: Iterable[str] | None = None,
    per_rule_exclude: dict[str, tuple[str, ...]] | None = None,
) -> tuple[ProgramGraph, list[Finding]]:
    """Build the program graph under *root* and run every rule."""
    graph = ProgramGraph.load(Path(root))
    return graph, check_graph(graph, rules, per_rule_exclude)


# --------------------------------------------------------------------------
# baseline: committed known findings; CI fails only on NEW ones
# --------------------------------------------------------------------------

def _portable_path(path: str) -> str:
    """Path as committed in baselines: from the ``src/`` segment on.

    Makes fingerprints agree whether the analyzer was invoked with a
    relative or an absolute root (CI vs. local vs. tests).
    """
    posix = path.replace("\\", "/")
    idx = posix.find("src/")
    return posix[idx:] if idx >= 0 else posix


def fingerprint(finding: Finding) -> str:
    """Identity for baseline matching: rule + portable path + message.

    Line numbers are deliberately excluded so unrelated edits above a
    baselined site do not resurrect it; messages embed the enclosing
    symbol, which keeps the match tight.
    """
    return f"{finding.rule_id}|{_portable_path(finding.path)}|{finding.message}"


def load_baseline(path: Path) -> list[dict]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    return payload.get("findings", []) if isinstance(payload, dict) else []


def split_baselined(
    findings: list[Finding], baseline: list[dict]
) -> tuple[list[Finding], list[dict]]:
    """(new findings, stale baseline entries no longer observed)."""
    known = {
        f"{e.get('rule')}|{_portable_path(str(e.get('path')))}|{e.get('message')}"
        for e in baseline
    }
    observed = {fingerprint(f) for f in findings}
    new = [f for f in findings if fingerprint(f) not in known]
    stale = [
        e for e in baseline
        if f"{e.get('rule')}|{_portable_path(str(e.get('path')))}|{e.get('message')}"
        not in observed
    ]
    return new, stale


def baseline_payload(findings: list[Finding], old: list[dict]) -> dict:
    """Baseline file content for *findings*, carrying forward existing
    justifications; new entries get an explicit TODO."""
    justifications = {
        f"{e.get('rule')}|{_portable_path(str(e.get('path')))}|{e.get('message')}":
            e.get("justification", "")
        for e in old
    }
    entries = []
    for finding in findings:
        key = fingerprint(finding)
        entries.append({
            "rule": finding.rule_id,
            "path": _portable_path(finding.path),
            "line": finding.line,
            "message": finding.message,
            "justification": justifications.get(
                key, "TODO: justify or fix"
            ),
        })
    return {"findings": entries}


def unjustified_entries(baseline: list[dict]) -> list[dict]:
    """Baseline entries still carrying the ``--update-baseline``
    placeholder (or nothing at all).

    A baselined finding without a real justification is a silenced bug:
    ``repro deepcheck`` fails while any remain, so the placeholder can
    never be committed as if it were an explanation.
    """
    out = []
    for entry in baseline:
        text = str(entry.get("justification", "")).strip()
        if not text or text.upper().startswith("TODO"):
            out.append(entry)
    return out
