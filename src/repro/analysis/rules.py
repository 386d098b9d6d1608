"""coronalint rule implementations (AST-based, stdlib-only).

Each rule inspects one parsed module and yields :class:`Finding` values.
The rules encode repo-specific determinism and protocol contracts:

========  ==================================================================
DET001    wall-clock reads in protocol/sim code (must use ``Clock``)
DET002    unseeded/ambient randomness outside ``core/ids.py``
DET003    iteration over unordered sets feeding ordered output
NET001    blocking socket/file I/O reachable from sim-driven callbacks
LOCK001   mutation of shared-state/lock internals outside their modules
PERF001   direct codec encode/size calls on fan-out paths (bypass the
          frame cache, re-serializing per receiver)
PERF003   unbounded send-queue growth outside the flow-controlled
          transport layer (unbounded ``asyncio.Queue()`` or appends to
          ad-hoc outboxes; a slow consumer then buffers without limit)
PERF004   whole-state materialization (``materialize_all`` /
          ``materialize_selected``) outside ``core/transfer.py`` — it
          copies every object's bytes at once and dodges the snapshot
          cache and the chunked streaming path
EFF001    isinstance dispatch over Effect types outside the effect
          interpreter (hand-rolled dispatch chains drift between hosts)
========  ==================================================================

``WIRE001`` (wire-schema drift) lives in :mod:`repro.analysis.wirecheck`
because it reasons about whole message catalogues rather than single
statements.

Rules are scoped by *module name* (``repro.core.server``), derived from the
file path; the default scopes below mirror the deterministic-core /
real-world-edge split of the architecture and can be overridden from
``[tool.corona-lint]`` in ``pyproject.toml``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.findings import Finding, Severity

__all__ = [
    "ModuleInfo",
    "RULE_DOCS",
    "DEFAULT_EXCLUDES",
    "check_module",
]


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source module handed to every rule."""

    path: str          # path as reported in findings
    module: str        # dotted module name used for scoping
    tree: ast.Module
    source: str


#: rule id -> (severity, one-line rationale, fix hint)
RULE_DOCS: dict[str, tuple[Severity, str, str]] = {
    "DET001": (
        Severity.ERROR,
        "wall-clock read in deterministic protocol/sim code",
        "inject a repro.core.clock.Clock and call clock.now() instead",
    ),
    "DET002": (
        Severity.ERROR,
        "ambient (unseeded) randomness breaks reproducible runs",
        "use a seeded random.Random instance or repro.core.ids.IdGenerator",
    ),
    "DET003": (
        Severity.WARNING,
        "iteration order over a set is interpreter-dependent",
        "iterate sorted(<set>) or fold with an order-insensitive reducer",
    ),
    "NET001": (
        Severity.ERROR,
        "blocking I/O reachable from simulation-driven callbacks",
        "route I/O through host effects (SimHost/AsyncioHost), never inline",
    ),
    "LOCK001": (
        Severity.ERROR,
        "shared-state/lock internals mutated outside their owning module",
        "go through SharedObject/SharedState methods or LockTable",
    ),
    "WIRE001": (
        Severity.ERROR,
        "wire-message schema drift (unregistered class, duplicate code, "
        "or field the codec cannot encode)",
        "register the dataclass with a fresh @register code and use "
        "codec-supported field types",
    ),
    "PERF001": (
        Severity.WARNING,
        "direct codec encode on a fan-out path bypasses the frame cache "
        "and re-serializes per receiver",
        "go through repro.wire.frames (encoded_frame / payload_of / "
        "frame_size) so each message encodes exactly once",
    ),
    "PERF003": (
        Severity.ERROR,
        "unbounded send-queue growth outside the flow-controlled "
        "transport layer (a slow consumer buffers without limit until "
        "the process dies)",
        "route sends through repro.net.flowcontrol.BoundedOutbox (the "
        "hosts already do), or give the asyncio.Queue an explicit "
        "maxsize and handle the full case",
    ),
    "PERF004": (
        Severity.ERROR,
        "whole-state materialization outside core/transfer.py copies "
        "every object's bytes in one shot, bypassing the snapshot cache "
        "and the chunked streaming transfer path",
        "ask repro.core.transfer (build_snapshot / build_checkpoint) for "
        "snapshots; for a single object use SharedObject.materialized()",
    ),
    "EFF001": (
        Severity.ERROR,
        "isinstance branching over Effect types re-creates the per-host "
        "dispatch chains the interpreter replaced (and they drift)",
        "register a handler (or middleware) on the shared "
        "repro.core.interpreter.EffectInterpreter instead of branching "
        "on effect types",
    ),
}

#: Default module-prefix exclusions per rule.  A module is skipped by a
#: rule when its dotted name equals, or starts with, any listed prefix.
DEFAULT_EXCLUDES: dict[str, tuple[str, ...]] = {
    # The real runtime, transports, apps and benches legitimately read
    # wall clocks; core.clock is the one sanctioned wrapper.
    "DET001": (
        "repro.core.clock",
        "repro.runtime",
        "repro.net",
        "repro.apps",
        "repro.bench",
        "repro.cli",
    ),
    # core.ids owns id generation; the CLI/apps edge may salt session
    # names without affecting protocol determinism.
    "DET002": (
        "repro.core.ids",
        "repro.apps",
        "repro.cli",
    ),
    "DET003": (),
    # Real transports/persistence do real I/O; the analysis package reads
    # source files by design.
    "NET001": (
        "repro.runtime",
        "repro.net",
        "repro.storage",
        "repro.apps",
        "repro.bench",
        "repro.cli",
        "repro.analysis",
    ),
    # The owning modules themselves.
    "LOCK001": (
        "repro.core.state",
        "repro.core.locks",
    ),
    "WIRE001": (),
    # PERF001 is include-scoped (see _PERF_FANOUT_PREFIXES): it only
    # examines the fan-out-reachable modules, so nothing to exclude.
    "PERF001": (),
    # PERF003 is include-scoped (see _OUTBOX_SCOPE_PREFIXES): it only
    # examines the host/send layers.  The client's inbound event queue
    # is drained by the application it belongs to (consumer-paced, not
    # a send path), so it stays unbounded by design.
    "PERF003": (
        "repro.runtime.client",
    ),
    # core.transfer is the one sanctioned whole-state reader (and owns
    # the snapshot cache); core.state defines the methods; the ISIS-like
    # baseline materializes monolithically *by design* — it exists to be
    # the slow contrast the paper argues against.
    "PERF004": (
        "repro.core.transfer",
        "repro.core.state",
        "repro.baselines",
    ),
    # The interpreter is the one sanctioned place that reasons about
    # effect types (registration validation, fault-rule matching).
    "EFF001": (
        "repro.core.interpreter",
    ),
}


# --------------------------------------------------------------------------
# shared AST helpers
# --------------------------------------------------------------------------

def _import_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted things they denote.

    ``import time`` -> {"time": "time"}; ``import datetime as dt`` ->
    {"dt": "datetime"}; ``from datetime import datetime`` ->
    {"datetime": "datetime.datetime"}.
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def _qualified_name(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Dotted name a call target resolves to, or None when unknown."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.get(node.id)
    if base is None:
        if parts:
            return None  # attribute on a local object, not a module
        base = node.id  # bare builtin such as open()
    parts.append(base)
    return ".".join(reversed(parts))


def _finding(info: ModuleInfo, rule_id: str, node: ast.AST, message: str) -> Finding:
    severity, _rationale, hint = RULE_DOCS[rule_id]
    return Finding(
        rule_id=rule_id,
        severity=severity,
        path=info.path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        message=message,
        hint=hint,
    )


# --------------------------------------------------------------------------
# DET001 / DET002 / NET001: banned-call rules
# --------------------------------------------------------------------------

_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_RANDOM_EXACT = {"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"}
#: Seedable constructors are fine; everything else on the module-level
#: (implicitly seeded from the OS) is not.
_RANDOM_ALLOWED = {"random.Random", "random.seed", "random.getstate", "random.setstate"}
_RANDOM_PREFIXES = ("random.", "secrets.")

_BLOCKING_PREFIXES = (
    "socket.", "subprocess.", "requests.", "urllib.", "http.client.",
)
_BLOCKING_EXACT = {"open", "io.open", "os.open", "input"}


def _check_banned_calls(info: ModuleInfo, rule_id: str) -> Iterator[Finding]:
    imports = _import_map(info.tree)
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _qualified_name(node.func, imports)
        if name is None:
            continue
        if rule_id == "DET001" and name in _WALL_CLOCK_CALLS:
            yield _finding(
                info, rule_id, node,
                f"call to {name}() reads the wall clock in deterministic code",
            )
        elif rule_id == "DET002":
            banned = name in _RANDOM_EXACT or (
                name.startswith(_RANDOM_PREFIXES) and name not in _RANDOM_ALLOWED
            )
            if banned:
                yield _finding(
                    info, rule_id, node,
                    f"call to {name}() draws ambient randomness",
                )
        elif rule_id == "NET001" and (
            name in _BLOCKING_EXACT or name.startswith(_BLOCKING_PREFIXES)
        ):
            yield _finding(
                info, rule_id, node,
                f"call to {name}() performs blocking I/O in sim-reachable code",
            )


# --------------------------------------------------------------------------
# DET003: unordered-set iteration
# --------------------------------------------------------------------------

_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
#: Consumers whose result does not depend on element order.
_ORDER_FREE_CONSUMERS = {
    "all", "any", "sum", "min", "max", "len",
    "set", "frozenset", "sorted",
}


def _annotation_is_set(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATIONS


def _collect_set_names(tree: ast.Module) -> set[str]:
    """Names (locals and ``self.<attr>`` attrs) known to hold sets.

    Module-wide granularity: good enough for lint, cheap to compute.
    """
    collected: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and _annotation_is_set(node.annotation):
            if isinstance(node.target, ast.Name):
                collected.add(node.target.id)
            elif isinstance(node.target, ast.Attribute):
                collected.add(node.target.attr)
        elif isinstance(node, ast.arg) and _annotation_is_set(node.annotation):
            collected.add(node.arg)
        elif isinstance(node, ast.Assign):
            if _is_set_expr(node.value, collected):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        collected.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        collected.add(target.attr)
    return collected


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(node.right, set_names)
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute):
        return node.attr in set_names
    return False


def _check_set_iteration(info: ModuleInfo) -> Iterator[Finding]:
    set_names = _collect_set_names(info.tree)
    if not set_names and "set" not in info.source and "{" not in info.source:
        return

    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(info.tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent

    def order_free(comp: ast.expr) -> bool:
        """A generator directly consumed by an order-insensitive callable."""
        parent = parents.get(comp)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_FREE_CONSUMERS
            and comp in parent.args
        )

    for node in ast.walk(info.tree):
        if isinstance(node, ast.For):
            if _is_set_expr(node.iter, set_names):
                yield _finding(
                    info, "DET003", node.iter,
                    "for-loop iterates a set; order is unspecified",
                )
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            if isinstance(node, ast.GeneratorExp) and order_free(node):
                continue
            for gen in node.generators:
                if _is_set_expr(gen.iter, set_names):
                    yield _finding(
                        info, "DET003", gen.iter,
                        "comprehension iterates a set into ordered output",
                    )


# --------------------------------------------------------------------------
# LOCK001: shared-state / lock internals mutated from outside
# --------------------------------------------------------------------------

#: Fields of SharedObject (core/state.py) and _Lock (core/locks.py) that
#: only their owning module may touch.
_GUARDED_ATTRS = {"base", "base_seqno", "increments", "holder", "waiters"}
_MUTATING_METHODS = {
    "append", "appendleft", "extend", "insert", "remove",
    "pop", "popleft", "clear", "sort", "reverse",
}


def _check_guarded_mutation(info: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(info.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr in _GUARDED_ATTRS:
                    # self.<attr> inside a class defining it is the owner's
                    # business only when the module is excluded; here, any
                    # hit in a checked module is a violation.
                    yield _finding(
                        info, "LOCK001", target,
                        f"direct assignment to guarded field .{target.attr}",
                    )
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr in _GUARDED_ATTRS
                ):
                    yield _finding(
                        info, "LOCK001", target,
                        f"item assignment into guarded field .{target.value.attr}",
                    )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in _GUARDED_ATTRS
        ):
            yield _finding(
                info, "LOCK001", node,
                f"mutating call .{node.func.value.attr}.{node.func.attr}() "
                "on a guarded field",
            )


# --------------------------------------------------------------------------
# PERF001: direct codec encode on the fan-out path
# --------------------------------------------------------------------------

#: Modules whose sends reach many receivers: a direct encode here is paid
#: once per recipient instead of once per message.  The rule applies ONLY
#: inside these prefixes (include-scoped, unlike the exclude-scoped rules).
_PERF_FANOUT_PREFIXES = (
    "repro.core.server",
    "repro.replication.node",
    "repro.net",
    "repro.sim.host",
)

#: Direct encode entry points the frame cache replaces on these paths.
_PERF_BANNED_CALLS = {
    "repro.wire.codec.encode",
    "repro.wire.codec.encode_into",
    "repro.wire.codec.encoded_size",
}


def _check_fanout_encode(info: ModuleInfo) -> Iterator[Finding]:
    applies = any(
        info.module == p or info.module.startswith(p + ".")
        for p in _PERF_FANOUT_PREFIXES
    )
    if not applies:
        return
    imports = _import_map(info.tree)
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _qualified_name(node.func, imports)
        if name in _PERF_BANNED_CALLS:
            short = name.rsplit(".", 1)[-1]
            yield _finding(
                info, "PERF001", node,
                f"call to codec.{short}() on a fan-out path encodes per "
                "receiver instead of per message",
            )


# --------------------------------------------------------------------------
# PERF003: unbounded send queues outside the flow-controlled transport
# --------------------------------------------------------------------------

#: Modules that sit on the server send path.  The rule applies ONLY inside
#: these prefixes (include-scoped, like PERF001): repro.net is deliberately
#: out of scope because that is where the sanctioned bounding lives —
#: BoundedOutbox's own deques and the transports' kernel-buffer-modelling
#: rx queues.
_OUTBOX_SCOPE_PREFIXES = (
    "repro.core",
    "repro.runtime",
    "repro.sim",
)

#: Mutators that grow a queue without a capacity check.
_OUTBOX_GROW_METHODS = {"append", "appendleft", "extend", "put_nowait"}


def _receiver_chain(node: ast.expr) -> str:
    """Dotted receiver text, lowered: ``self._outboxes[c].append`` has the
    receiver chain ``"self._outboxes"`` (subscripts are transparent)."""
    parts: list[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).lower()


def _check_unbounded_outbox(info: ModuleInfo) -> Iterator[Finding]:
    """Flag unbounded send-side queues in the host/send layers.

    Two shapes:

    1. ``asyncio.Queue()`` constructed with no ``maxsize`` — an
       unbounded mailbox that a slow consumer grows forever.
    2. ``<...outbox...>.append/extend/put_nowait(...)`` — an ad-hoc
       per-connection outbox grown without a capacity check.  Bounding,
       lane split and overflow policy belong to
       :class:`repro.net.flowcontrol.BoundedOutbox`.
    """
    applies = any(
        info.module == p or info.module.startswith(p + ".")
        for p in _OUTBOX_SCOPE_PREFIXES
    )
    if not applies:
        return
    imports = _import_map(info.tree)
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _qualified_name(node.func, imports)
        if name in ("asyncio.Queue", "asyncio.queues.Queue"):
            has_maxsize = bool(node.args) or any(
                kw.arg == "maxsize" for kw in node.keywords
            )
            if not has_maxsize:
                yield _finding(
                    info, "PERF003", node,
                    "asyncio.Queue() without maxsize grows without bound "
                    "under a slow consumer",
                )
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _OUTBOX_GROW_METHODS
            and "outbox" in _receiver_chain(node.func.value)
        ):
            yield _finding(
                info, "PERF003", node,
                f"unchecked .{node.func.attr}() on an outbox bypasses "
                "the bounded flow-control layer "
                "(repro.net.flowcontrol.BoundedOutbox)",
            )


# --------------------------------------------------------------------------
# PERF004: whole-state materialization outside core/transfer.py
# --------------------------------------------------------------------------

#: SharedState methods that copy every (or many) objects' bytes at once.
_MATERIALIZE_METHODS = {"materialize_all", "materialize_selected"}


def _check_whole_state_materialize(info: ModuleInfo) -> Iterator[Finding]:
    """Flag any ``<expr>.materialize_all()`` / ``.materialize_selected()``.

    These SharedState methods flatten whole group state into fresh byte
    strings.  ``core/transfer.py`` is the one sanctioned caller: it owns
    the snapshot cache (so repeat joins don't re-copy) and the chunked
    streaming path (so big states don't monopolize the outbox).  A call
    anywhere else re-introduces the O(state) stall and cache miss the
    transfer module exists to prevent.  Exclude-scoped: the sanctioned
    modules are listed in ``DEFAULT_EXCLUDES["PERF004"]``.
    """
    for node in ast.walk(info.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MATERIALIZE_METHODS
        ):
            yield _finding(
                info, "PERF004", node,
                f"call to .{node.func.attr}() materializes whole group "
                "state outside repro.core.transfer",
            )


# --------------------------------------------------------------------------
# EFF001: isinstance dispatch over Effect types
# --------------------------------------------------------------------------

#: Concrete effect-type names, derived from the events catalogue so the
#: rule tracks new effect types automatically.
def _effect_type_names() -> frozenset[str]:
    from repro.core import events

    return frozenset(
        name
        for name in events.__all__
        if isinstance(getattr(events, name), type)
        and issubclass(getattr(events, name), events.Effect)
    )


def _effect_isinstance_targets(
    call: ast.Call, imports: dict[str, str], effect_names: frozenset[str]
) -> list[str]:
    """Effect-type names this ``isinstance(...)`` call tests against."""
    if not (
        isinstance(call.func, ast.Name)
        and call.func.id == "isinstance"
        and len(call.args) == 2
    ):
        return []
    second = call.args[1]
    candidates = second.elts if isinstance(second, ast.Tuple) else [second]
    hits = []
    for candidate in candidates:
        qual = _qualified_name(candidate, imports)
        if qual is None:
            continue
        name = qual.rsplit(".", 1)[-1]
        if name in effect_names and (
            qual == name or qual == f"repro.core.events.{name}"
        ):
            hits.append(name)
    return hits


def _check_effect_dispatch(info: ModuleInfo) -> Iterator[Finding]:
    """Flag ``if isinstance(x, <EffectType>)`` branching (dispatch).

    Only branch conditions count: a filter comprehension that selects
    effects of one type is observation, not dispatch, and stays legal.
    """
    effect_names = _effect_type_names()
    imports = _import_map(info.tree)
    for node in ast.walk(info.tree):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        for call in ast.walk(node.test):
            if not isinstance(call, ast.Call):
                continue
            for name in _effect_isinstance_targets(call, imports, effect_names):
                yield _finding(
                    info, "EFF001", call,
                    f"isinstance(..., {name}) branch re-implements effect "
                    "dispatch outside the interpreter",
                )


# --------------------------------------------------------------------------
# entry point used by the lint driver
# --------------------------------------------------------------------------

def check_module(info: ModuleInfo, rule_ids: list[str]) -> list[Finding]:
    """Run the statement-level rules named in *rule_ids* over one module."""
    findings: list[Finding] = []
    for rule_id in rule_ids:
        if rule_id in ("DET001", "DET002", "NET001"):
            findings.extend(_check_banned_calls(info, rule_id))
        elif rule_id == "DET003":
            findings.extend(_check_set_iteration(info))
        elif rule_id == "LOCK001":
            findings.extend(_check_guarded_mutation(info))
        elif rule_id == "PERF001":
            findings.extend(_check_fanout_encode(info))
        elif rule_id == "PERF003":
            findings.extend(_check_unbounded_outbox(info))
        elif rule_id == "PERF004":
            findings.extend(_check_whole_state_materialize(info))
        elif rule_id == "EFF001":
            findings.extend(_check_effect_dispatch(info))
    return findings
