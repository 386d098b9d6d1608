"""Tests for the whole-program model behind ``repro deepcheck``."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.program import ProgramGraph, TypeRef


def graph_of(**modules: str) -> ProgramGraph:
    """Build a graph from ``pkg_mod="source"`` keyword sources."""
    return ProgramGraph.from_sources({
        name.replace("__", "/") + ".py": source
        for name, source in modules.items()
    })


class TestModuleModel:
    def test_module_names_follow_package_layout(self):
        graph = graph_of(
            repro__core__a="x = 1",
            repro__runtime__b="y = 2",
        )
        assert set(graph.modules) == {"repro.core.a", "repro.runtime.b"}

    def test_functions_and_classes_register_qualnames(self):
        graph = graph_of(repro__m="""
class C:
    def method(self): pass

def helper(): pass

async def amain(): pass
""")
        assert "repro.m.C" in graph.classes
        assert "repro.m.C.method" in graph.functions
        assert "repro.m.helper" in graph.functions
        assert graph.functions["repro.m.amain"].is_async
        assert not graph.functions["repro.m.helper"].is_async

    def test_syntax_error_module_is_skipped(self):
        graph = graph_of(repro__bad="def broken(:", repro__ok="x = 1")
        assert set(graph.modules) == {"repro.ok"}


class TestAttributeOwnership:
    def test_annotated_class_attribute(self):
        graph = graph_of(repro__m="""
class C:
    count: int
""")
        assert graph.class_attr_type("repro.m.C", "count") == TypeRef("builtins.int")

    def test_self_assignment_in_init_infers_constructor_type(self):
        graph = graph_of(repro__m="""
class Inner: pass

class Outer:
    def __init__(self):
        self.inner = Inner()
        self.items = []
""")
        assert graph.class_attr_type("repro.m.Outer", "inner") == TypeRef(
            "repro.m.Inner"
        )
        assert graph.class_attr_type("repro.m.Outer", "items") == TypeRef("builtins.list")

    def test_attr_type_from_cross_module_return_annotation(self):
        graph = graph_of(
            repro__a="""
class Engine: pass

def build_engine() -> Engine:
    return Engine()
""",
            repro__b="""
from repro.a import build_engine

class Holder:
    def __init__(self):
        self.engine = build_engine()
""",
        )
        assert graph.class_attr_type("repro.b.Holder", "engine") == TypeRef(
            "repro.a.Engine"
        )

    def test_attr_inherited_through_mro(self):
        graph = graph_of(repro__m="""
import threading

class Base:
    def _init(self):
        self.thread = threading.Thread()

class Child(Base):
    pass
""")
        assert graph.class_attr_type("repro.m.Child", "thread") == TypeRef(
            "threading.Thread"
        )

    def test_optional_and_union_annotations_resolve_to_payload(self):
        graph = graph_of(repro__m="""
class S: pass

class C:
    a: S | None
    b: list[S]
""")
        assert graph.class_attr_type("repro.m.C", "a") == TypeRef("repro.m.S")
        b = graph.class_attr_type("repro.m.C", "b")
        assert b.base == "builtins.list" and b.elem == "repro.m.S"


class TestCallResolution:
    def test_method_call_through_typed_attribute(self):
        graph = graph_of(repro__m="""
class Store:
    def flush(self): pass

class Host:
    def __init__(self):
        self.store = Store()
    def run(self):
        self.store.flush()
""")
        callees = {
            s.callee for s in graph.calls.get("repro.m.Host.run", [])
        }
        assert "repro.m.Store.flush" in callees

    def test_cross_module_function_call(self):
        graph = graph_of(
            repro__util="def helper(): pass",
            repro__use="""
from repro.util import helper

def caller():
    helper()
""",
        )
        callees = {
            s.callee for s in graph.calls.get("repro.use.caller", [])
        }
        assert "repro.util.helper" in callees

    def test_external_calls_marked_out_of_program(self):
        graph = graph_of(repro__m="""
import os

def f():
    os.fsync(3)
""")
        sites = graph.calls.get("repro.m.f", [])
        assert sites and not any(s.in_program for s in sites if "fsync" in s.callee)

    def test_comprehension_target_is_typed_from_container_elem(self):
        graph = graph_of(repro__m="""
class W:
    def __init__(self):
        self.n = 0
    def poke(self): pass

class Front:
    workers: list[W]
    def touch_all(self):
        return [w.poke() for w in self.workers]
""")
        callees = {
            s.callee for s in graph.calls.get("repro.m.Front.touch_all", [])
        }
        assert "repro.m.W.poke" in callees


class TestSubclassesAndMro:
    def test_subclasses_and_mro(self):
        graph = graph_of(repro__m="""
class A: pass
class B(A): pass
class C(B): pass
""")
        assert graph.mro("repro.m.C")[:3] == [
            "repro.m.C", "repro.m.B", "repro.m.A"
        ]
        assert set(graph.subclasses("repro.m.A")) >= {"repro.m.B", "repro.m.C"}

    def test_forward_reference_annotation(self):
        graph = graph_of(repro__m="""
class Later: pass

class C:
    ref: "Later"
""")
        assert graph.class_attr_type("repro.m.C", "ref") == TypeRef("repro.m.Later")


class TestRepoGraph:
    def test_loads_whole_repro_package(self):
        graph = ProgramGraph.load(Path("src"))
        assert "repro.runtime.shard.ShardedHost" in graph.classes
        assert "repro.core.interpreter.EffectInterpreter" in graph.classes
        # worker typing that SHARD004's lease side depends on
        assert graph.class_attr_type(
            "repro.runtime.shard._ShardWorker", "_mailbox"
        ) == TypeRef("collections.deque")
        assert graph.find_method(
            "repro.runtime.shard._ShardWorker", "process_item"
        ) == "repro.runtime.sharding.ShardWorkerBase.process_item"
        # the shared front holds its workers as the backend-free base
        # (resolved through ShardedHost's mro)
        workers = graph.class_attr_type("repro.runtime.shard.ShardedHost", "workers")
        assert workers is not None and workers.base == "builtins.list"
        assert workers.elem == "repro.runtime.sharding.ShardWorkerBase"
        assert "repro.runtime.shard._ShardWorker" in graph.subclasses(workers.elem)
