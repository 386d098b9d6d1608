"""Whole-program concurrency rules over the :class:`ProgramGraph`.

Three rule families, all architectural (they need the cross-module
ownership model and call graph that single-file lint cannot build):

``SHARD001–003`` — shard-ownership dataflow.  A *threaded worker* is a
class owning a ``threading.Thread`` attribute (a shard with its own
event loop), or a base class only workers inherit (what a backend-free
front types its workers as); a *front* class holds such workers.
Shard-owned mutable state
(ServerCore, GroupRuntime/StateLog behind it, WAL handles, interpreter,
containers) must only be reached from its own loop; the blessed
cross-thread surface is the mailbox (``post``), lifecycle methods, and
the ``call_front``/``run_front`` bridges.  The shipped drivers run every
shard on the front's own loop (asyncio) or kernel (sim), so these three
have no threaded worker to fire on today; they guard a future threaded
or process-per-shard driver.  ``SHARD004`` covers the elastic topology
under any driver: GroupRuntime state may only be touched under the
owning worker's lease — by a class that runs the mailbox item protocol
(defines or inherits ``process_item``) — because live migration can
move a group between shards at any item boundary.

``BLOCK001–002`` — blocking-call reachability.  ``time.sleep``, fsync,
sync file/socket I/O and ``subprocess`` must not run on an event loop.
What runs *on* the loop is every ``async def``, every method of an
``asyncio.Protocol`` / ``BufferedProtocol`` subclass (the transport
calls them) and every callable handed to ``call_soon`` /
``call_soon_threadsafe`` / ``call_later``: BLOCK001 flags a blocking
call written directly in such an entry point, BLOCK002 one *reachable*
from it through the call graph, including the dynamic hop through
``interpreter.execute`` into the enclosing backend's effect methods.

``LOCK002–003`` — locks under concurrency.  LOCK002 flags an ``await``
while a synchronous lock is held inside a coroutine; LOCK003 builds the
static lock-order graph from nested acquisition sites (``with`` blocks,
``.acquire()`` calls, constant-id ``LockTable.acquire`` sites) and
reports every cycle.

Every rule reports :class:`Finding` values whose messages embed the
enclosing symbol, so the committed JSON baseline matches findings by
``(rule, path, message)`` — stable across unrelated line drift.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Finding, Severity
from repro.analysis.program import FunctionInfo, ProgramGraph, TypeRef
from repro.analysis.suppress import line_suppresses

__all__ = [
    "DEEP_RULE_DOCS",
    "ALL_DEEP_RULES",
    "check_graph",
    "deepcheck_paths",
    "lock_order_cycles",
    "fingerprint",
    "load_baseline",
    "split_baselined",
    "baseline_payload",
    "unjustified_entries",
]

DEEP_RULE_DOCS: dict[str, tuple[Severity, str, str]] = {
    "SHARD001": (
        Severity.ERROR,
        "front-side code reaches into a shard worker's mutable state "
        "(core, interpreter, store, containers) outside the mailbox "
        "surface, breaking the share-nothing invariant of §4.1 sharding",
        "route the work through worker.post(...) or read an immutable "
        "snapshot published before the worker thread started",
    ),
    "SHARD002": (
        Severity.ERROR,
        "a shard-owned mutable object is posted through a mailbox, "
        "aliasing live state across event loops",
        "post immutable data (tuples, frozen messages) or copies",
    ),
    "SHARD003": (
        Severity.ERROR,
        "shard-worker code touches front-loop state directly instead of "
        "going through call_front/run_front",
        "wrap the access in a closure handed to the front bridge",
    ),
    "SHARD004": (
        Severity.ERROR,
        "GroupRuntime state (or the ServerCore runtime table behind it) "
        "is accessed outside the owning worker's lease — under live "
        "migration a group's runtime may move between shards at any "
        "item boundary, so only code running on the leased worker's "
        "loop may touch it",
        "read the immutable owned_groups/recovered_groups snapshots, "
        "sample DispatchStats, or route the work through the mailbox",
    ),
    "SCHED001": (
        Severity.ERROR,
        "shared group state (SharedState/SharedObject) is mutated "
        "outside the scheduler commit path — under optimistic parallel "
        "execution any such site can interleave with in-flight "
        "speculation and corrupt the version checks",
        "mutate through GroupRuntime.apply_and_deliver/reduce (the "
        "serial commit points) or baseline the site with a "
        "justification (client-side mirrors, recovery replay)",
    ),
    "BLOCK001": (
        Severity.ERROR,
        "a blocking call (sleep, fsync, sync file/socket I/O, "
        "subprocess) is written directly in an async def or an "
        "event-loop callback",
        "await the async equivalent or move the call to an executor",
    ),
    "BLOCK002": (
        Severity.ERROR,
        "a blocking call is transitively reachable from a coroutine "
        "or callback running on an event loop (including through effect "
        "dispatch)",
        "break the chain with run_in_executor or baseline it with a "
        "justification (e.g. shutdown paths, startup recovery)",
    ),
    "LOCK002": (
        Severity.ERROR,
        "a coroutine awaits while holding a synchronous lock, stalling "
        "every other task contending for it",
        "release the lock before awaiting, or use an asyncio lock",
    ),
    "LOCK003": (
        Severity.ERROR,
        "two code paths acquire the same locks in opposite orders — a "
        "static lock-order cycle that can deadlock",
        "pick one global acquisition order and stick to it",
    ),
}

ALL_DEEP_RULES: tuple[str, ...] = tuple(sorted(DEEP_RULE_DOCS))

#: Worker methods the front may legitimately call cross-thread: the
#: mailbox itself plus thread lifecycle (start/stop run before the loop
#: exists or after it drained — the documented handoff points).
SANCTIONED_WORKER_METHODS = frozenset({"post", "start", "stop"})

#: Bridge calls whose closure arguments execute on the *front* loop, so
#: worker code inside them may touch front state (SHARD003 skips them).
FRONT_BRIDGES = frozenset({"call_front", "run_front", "_relay"})

#: Types safe to read across threads: immutables, plus the two
#: threading primitives whose entire point is cross-thread use.
_SAFE_TYPES = frozenset({
    "builtins.int", "builtins.float", "builtins.str", "builtins.bytes",
    "builtins.bool", "builtins.tuple", "builtins.frozenset",
    "threading.Thread", "threading.Event", "threading.Lock",
})

#: Known-mutable external containers (program classes are always
#: treated as mutable; unknown external types are skipped).
_MUTABLE_TYPES = frozenset({
    "builtins.list", "builtins.dict", "builtins.set", "builtins.bytearray",
    "collections.deque", "asyncio.Queue", "queue.Queue",
})

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

#: Effect-backend methods reachable through ``interpreter.execute`` /
#: ``interpreter.dispatch`` (the dynamic hop BLOCK002 must follow).
_BACKEND_METHODS = (
    "deliver", "deliver_batch", "deliver_multicast",
    "start_timer", "cancel_timer", "open_connection", "close_connection",
    "create_group_storage", "purge_group_storage",
    "append_wal", "append_wal_many", "write_checkpoint", "truncate_wal",
    "notify", "shutdown",
)

_INTERPRETER_CLASS = "repro.core.interpreter.EffectInterpreter"

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

_SYNC_LOCK_TYPES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Condition",
})


def _module_of(graph: ProgramGraph, path: str) -> str:
    for mod in graph.modules.values():
        if mod.path == path:
            return mod.name
    return Path(path).stem


def _excluded(module: str, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _finding(rule_id: str, fn: FunctionInfo, node: ast.AST, message: str,
             hint: str | None = None) -> Finding:
    severity, _rationale, default_hint = DEEP_RULE_DOCS[rule_id]
    return Finding(
        rule_id=rule_id,
        severity=severity,
        path=fn.path,
        line=getattr(node, "lineno", fn.node.lineno),
        col=getattr(node, "col_offset", 0),
        message=message,
        hint=hint if hint is not None else default_hint,
    )


def _short(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


# --------------------------------------------------------------------------
# ownership classification
# --------------------------------------------------------------------------

def _threaded_workers(graph: ProgramGraph) -> set[str]:
    """Classes that own a ``threading.Thread`` attribute (per their mro),
    plus the base classes a reference to one may be typed as.

    A front that holds its workers as ``list[Base]`` reaches live
    threaded state through ``Base``-typed expressions just the same, so
    a program base of a threaded worker counts as a worker type too —
    unless a front (a class holding workers) also descends from it,
    which makes it plumbing shared by both sides (``EffectBackend``),
    not a worker type.
    """
    threaded: set[str] = set()
    for qual in graph.classes:
        for base in graph.mro(qual):
            info = graph.classes.get(base)
            if info is None:
                continue
            if any(ref.base == "threading.Thread"
                   for ref in info.attr_types.values()):
                threaded.add(qual)
                break
    bases = {
        base for worker in threaded for base in graph.mro(worker)
        if base in graph.classes
    } - threaded
    fronts = _front_classes(graph, threaded | bases)
    return threaded | {
        base for base in bases
        if not any(sub in fronts for sub in graph.subclasses(base))
    }


def _worker_type_of(ref: TypeRef | None, workers: set[str]) -> str | None:
    """The worker class a typed expression denotes, if any."""
    if ref is None:
        return None
    if ref.base in workers:
        return ref.base
    if ref.elem is not None and ref.elem in workers:
        return None  # the container itself, not a worker instance
    return None


def _is_protected(graph: ProgramGraph, ref: TypeRef | None) -> bool:
    """Mutable-by-classification: program classes and known containers."""
    if ref is None:
        return False
    if ref.base in _SAFE_TYPES:
        return False
    return ref.base in graph.classes or ref.base in _MUTABLE_TYPES


# --------------------------------------------------------------------------
# SHARD001: front-side access to shard-owned state
# --------------------------------------------------------------------------

def _check_shard001(graph: ProgramGraph, workers: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if fn.cls is not None and any(c in workers for c in graph.mro(fn.cls)):
            continue  # the worker touching itself is ownership, not escape
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Attribute):
                continue
            ref = graph.expr_type(fn, node.value)
            worker_cls = _worker_type_of(ref, workers)
            if worker_cls is None:
                continue
            attr = node.attr
            method = graph.find_method(worker_cls, attr)
            if method is not None:
                if attr in SANCTIONED_WORKER_METHODS:
                    continue
                findings.append(_finding(
                    "SHARD001", fn, node,
                    f"{fn.qualname} calls shard method "
                    f"`{_short(worker_cls)}.{attr}` cross-thread (only "
                    f"{'/'.join(sorted(SANCTIONED_WORKER_METHODS))} are safe)",
                ))
                continue
            attr_ref = graph.class_attr_type(worker_cls, attr)
            if attr_ref is None or not _is_protected(graph, attr_ref):
                continue
            findings.append(_finding(
                "SHARD001", fn, node,
                f"{fn.qualname} reaches shard-owned mutable state "
                f"`{_short(worker_cls)}.{attr}` (type {_short(attr_ref.base)}) "
                f"from outside the worker's loop",
            ))
    return findings


# --------------------------------------------------------------------------
# SHARD002: mutable state escaping through a mailbox post
# --------------------------------------------------------------------------

def _post_args(call: ast.Call) -> Iterable[ast.expr]:
    for arg in call.args:
        if isinstance(arg, (ast.Tuple, ast.List, ast.Set)):
            yield from arg.elts
        else:
            yield arg


def _check_shard002(graph: ProgramGraph, workers: set[str]) -> list[Finding]:
    """Flag ``self.<mutable attr>`` handed to a mailbox post.

    Deliberately provenance-conservative: only attribute chains rooted
    at ``self`` are flagged — those provably alias long-lived state of
    the posting object; locals and parameters may be fresh copies.
    """
    findings: list[Finding] = []
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if fn.cls is None:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in ("post", "_post")):
                continue
            for arg in _post_args(node):
                if not (isinstance(arg, ast.Attribute)
                        and isinstance(arg.value, ast.Name)
                        and arg.value.id == "self"):
                    continue
                ref = graph.class_attr_type(fn.cls, arg.attr)
                if ref is None or not _is_protected(graph, ref):
                    continue
                findings.append(_finding(
                    "SHARD002", fn, arg,
                    f"{fn.qualname} posts live mutable state `self.{arg.attr}` "
                    f"(type {_short(ref.base)}) through a mailbox",
                ))
    return findings


# --------------------------------------------------------------------------
# SHARD003: worker code touching the front outside the bridges
# --------------------------------------------------------------------------

def _bridge_lambdas(fn_node: ast.AST) -> set[ast.Lambda]:
    """Lambdas handed to a front bridge: they run on the front loop."""
    out: set[ast.Lambda] = set()
    for node in ast.walk(fn_node):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in FRONT_BRIDGES):
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    out.add(arg)
    return out


def _walk_outside(root: ast.AST, skip: set[ast.Lambda]) -> Iterable[ast.AST]:
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda) and node in skip:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _front_classes(graph: ProgramGraph, workers: set[str]) -> set[str]:
    fronts: set[str] = set()
    for qual in graph.classes:
        for base in graph.mro(qual):
            info = graph.classes.get(base)
            if info is None:
                continue
            for ref in info.attr_types.values():
                if ref.base in workers or (ref.elem in workers
                                           if ref.elem else False):
                    fronts.add(qual)
    return fronts


def _check_shard003(graph: ProgramGraph, workers: set[str]) -> list[Finding]:
    fronts = _front_classes(graph, workers)
    findings: list[Finding] = []
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if fn.cls is None or fn.cls not in workers:
            continue
        skip = _bridge_lambdas(fn.node)
        for node in _walk_outside(fn.node, skip):
            if not isinstance(node, ast.Attribute):
                continue
            ref = graph.expr_type(fn, node.value)
            if ref is None or ref.base not in fronts:
                continue
            if node.attr in FRONT_BRIDGES:
                continue
            findings.append(_finding(
                "SHARD003", fn, node,
                f"{fn.qualname} touches front state "
                f"`{_short(ref.base)}.{node.attr}` from the shard loop "
                f"without going through call_front",
            ))
    return findings


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
                for method in _BACKEND_METHODS:
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
# LOCK002/003: locks under concurrency
# --------------------------------------------------------------------------

def _lock_key(graph: ProgramGraph, fn: FunctionInfo, expr: ast.expr) -> str | None:
    """A stable identity for a lock acquisition site, or None."""
    node = expr
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            node = func.value
        else:
            return None
    ref = graph.expr_type(fn, node)
    text = ast.unparse(node)
    if ref is not None and ref.base in _SYNC_LOCK_TYPES:
        return text
    lowered = text.lower()
    if lowered.endswith(("lock", "mutex")) or "_lock" in lowered:
        return text
    return None


def _locktable_key(graph: ProgramGraph, fn: FunctionInfo, call: ast.Call) -> str | None:
    """Constant-id ``LockTable.acquire`` sites (core/locks.py)."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "acquire"):
        return None
    ref = graph.expr_type(fn, func.value)
    if ref is None or not ref.base.endswith("LockTable"):
        return None
    for arg in call.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return f"locktable:{arg.value}"
    return None


def _with_acquisitions(
    graph: ProgramGraph, fn: FunctionInfo
) -> list[tuple[str, ast.AST, tuple[str, ...], bool]]:
    """(lock key, site, locks held at entry, body awaits) per with-site."""
    out: list[tuple[str, ast.AST, tuple[str, ...], bool]] = []

    def visit(node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(node, ast.With):
            keys = []
            for item in node.items:
                key = _lock_key(graph, fn, item.context_expr)
                if key is None and isinstance(item.context_expr, ast.Call):
                    key = _locktable_key(graph, fn, item.context_expr)
                if key is not None:
                    keys.append(key)
            awaits = any(isinstance(sub, ast.Await) for sub in ast.walk(node))
            inner = held
            for key in keys:
                out.append((key, node, inner, awaits))
                inner = inner + (key,)
            for stmt in node.body:
                visit(stmt, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested defs run later, under their own lock stack
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for stmt in fn.node.body:
        visit(stmt, ())
    return out


def _check_lock002(graph: ProgramGraph) -> list[Finding]:
    findings: list[Finding] = []
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if not fn.is_async:
            continue
        for key, node, _held, awaits in _with_acquisitions(graph, fn):
            if awaits:
                findings.append(_finding(
                    "LOCK002", fn, node,
                    f"coroutine {fn.qualname} awaits while holding "
                    f"synchronous lock `{key}`",
                ))
    return findings


def lock_order_cycles(edges: Iterable[tuple[str, str]]) -> list[list[str]]:
    """Cycles in the lock-order graph, each as the ordered key list.

    Pure over the edge list (exercised directly by the hypothesis
    property test): returns a non-empty list iff the directed graph has
    a cycle, and every returned list is a genuine cycle — consecutive
    elements (wrapping around) are all edges.  Iterative DFS back-edge
    detection; the path suffix from the back edge's target is the cycle.
    """
    adj: dict[str, list[str]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    for key in adj:
        adj[key] = sorted(set(adj[key]))

    ON_PATH, DONE = 1, 2
    state: dict[str, int] = {}
    cycles: list[list[str]] = []
    for root in sorted(adj):
        if root in state:
            continue
        stack: list[tuple[str, Iterable[str]]] = [(root, iter(adj[root]))]
        path = [root]
        state[root] = ON_PATH
        while stack:
            node, successors = stack[-1]
            descended = False
            for nxt in successors:
                if state.get(nxt) == ON_PATH:
                    cycles.append(path[path.index(nxt):])
                elif nxt not in state:
                    state[nxt] = ON_PATH
                    stack.append((nxt, iter(adj[nxt])))
                    path.append(nxt)
                    descended = True
                    break
            if not descended:
                stack.pop()
                path.pop()
                state[node] = DONE
    return cycles


def _check_lock003(graph: ProgramGraph) -> list[Finding]:
    edges: dict[tuple[str, str], tuple[FunctionInfo, ast.AST]] = {}
    func_locks: dict[str, set[str]] = {}
    acq_cache: dict[str, list] = {}
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        acqs = _with_acquisitions(graph, fn)
        acq_cache[qual] = acqs
        func_locks[qual] = {key for key, _n, _h, _a in acqs}
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        for key, node, held, _awaits in acq_cache[qual]:
            for outer in held:
                if outer != key:
                    edges.setdefault((outer, key), (fn, node))
        # one-level interprocedural: calling g while holding L orders L
        # before every lock g acquires directly
        for site in graph.callees(qual):
            if not site.in_program or site.callee not in func_locks:
                continue
            for key, with_node, held, _awaits in acq_cache[qual]:
                if not _node_contains(with_node, site.node):
                    continue
                for inner in sorted(func_locks[site.callee]):
                    if inner != key:
                        edges.setdefault((key, inner), (fn, site.node))

    findings: list[Finding] = []
    cycles = lock_order_cycles(sorted(edges))
    for cycle in cycles:
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        located = next((edges[p] for p in pairs if p in edges), None)
        if located is None:
            continue
        fn, node = located
        findings.append(_finding(
            "LOCK003", fn, node,
            f"lock-order cycle {' -> '.join(cycle + [cycle[0]])} "
            f"(one edge acquired in {fn.qualname})",
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


def _node_contains(outer: ast.AST, inner: ast.AST) -> bool:
    return any(sub is inner for sub in ast.walk(outer))


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
# driver
# --------------------------------------------------------------------------

_CHECKS = {
    "SHARD001": lambda g, w: _check_shard001(g, w),
    "SHARD002": lambda g, w: _check_shard002(g, w),
    "SHARD003": lambda g, w: _check_shard003(g, w),
    "SHARD004": lambda g, w: _check_shard004(g),
    "SCHED001": lambda g, w: _check_sched001(g),
    "BLOCK001": lambda g, w: _check_block001(g),
    "BLOCK002": lambda g, w: _check_block002(g),
    "LOCK002": lambda g, w: _check_lock002(g),
    "LOCK003": lambda g, w: _check_lock003(g),
}


def check_graph(
    graph: ProgramGraph,
    rules: Iterable[str] | None = None,
    per_rule_exclude: dict[str, tuple[str, ...]] | None = None,
) -> list[Finding]:
    """Run the deepcheck rules over *graph*; noqa-filtered and sorted."""
    rule_ids = tuple(rules) if rules is not None else ALL_DEEP_RULES
    per_rule_exclude = per_rule_exclude or {}
    workers = _threaded_workers(graph)
    module_by_path = {mod.path: mod.name for mod in graph.modules.values()}
    lines_by_path = {
        mod.path: mod.source.splitlines() for mod in graph.modules.values()
    }
    findings: list[Finding] = []
    for rule_id in sorted(rule_ids):
        check = _CHECKS.get(rule_id)
        if check is None:
            continue
        excludes = per_rule_exclude.get(rule_id, ())
        for finding in check(graph, workers):
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
