"""Each coronalint rule: fires on a minimal bad example, stays silent on
the corresponding good example (acceptance criterion of the analysis PR)."""

from repro.analysis.lint import LintConfig, lint_source

#: A path inside the deterministic protocol zone (every rule applies).
CORE = "src/repro/core/somemodule.py"


def rule_ids(source: str, path: str = CORE, config: LintConfig | None = None):
    return [f.rule_id for f in lint_source(source, path, config)]


class TestDET001WallClock:
    def test_fires_on_time_time(self):
        src = "import time\n\ndef stamp():\n    return time.time()\n"
        assert "DET001" in rule_ids(src)

    def test_fires_on_datetime_now(self):
        src = (
            "from datetime import datetime\n\n"
            "def stamp():\n    return datetime.now()\n"
        )
        assert "DET001" in rule_ids(src)

    def test_fires_on_from_import_alias(self):
        src = "from time import monotonic as mono\n\nx = mono()\n"
        assert "DET001" in rule_ids(src)

    def test_silent_on_injected_clock(self):
        src = (
            "def stamp(clock):\n"
            "    return clock.now()\n"
        )
        assert rule_ids(src) == []

    def test_silent_outside_protocol_scope(self):
        src = "import time\n\ndef stamp():\n    return time.time()\n"
        assert "DET001" not in rule_ids(src, path="src/repro/runtime/host.py")


class TestDET002Randomness:
    def test_fires_on_module_level_random(self):
        src = "import random\n\nx = random.random()\n"
        assert "DET002" in rule_ids(src)

    def test_fires_on_uuid4_and_urandom(self):
        src = "import os\nimport uuid\n\na = uuid.uuid4()\nb = os.urandom(8)\n"
        assert rule_ids(src).count("DET002") == 2

    def test_silent_on_seeded_instance(self):
        src = (
            "import random\n\n"
            "rng = random.Random(42)\n"
            "x = rng.random()\n"
        )
        assert rule_ids(src) == []

    def test_silent_in_ids_module(self):
        src = "import uuid\n\nx = uuid.uuid4()\n"
        assert "DET002" not in rule_ids(src, path="src/repro/core/ids.py")


class TestDET003SetIteration:
    def test_fires_on_for_over_set(self):
        src = "items = {1, 2, 3}\nfor item in items:\n    print(item)\n"
        assert "DET003" in rule_ids(src)

    def test_fires_on_dict_comp_over_set_typed_attr(self):
        src = (
            "class Node:\n"
            "    def __init__(self):\n"
            "        self._peers: set[str] = set()\n"
            "    def fanout(self):\n"
            "        return [p for p in self._peers]\n"
        )
        assert "DET003" in rule_ids(src)

    def test_fires_on_set_union(self):
        src = (
            "def merge(a, b):\n"
            "    keys = set(a) | set(b)\n"
            "    return {k: 1 for k in keys}\n"
        )
        assert "DET003" in rule_ids(src)

    def test_silent_on_sorted_iteration(self):
        src = "items = {1, 2, 3}\nfor item in sorted(items):\n    print(item)\n"
        assert rule_ids(src) == []

    def test_silent_on_order_free_reducers(self):
        src = (
            "def merge(a, b):\n"
            "    keys = set(a) | set(b)\n"
            "    return all(k > 0 for k in keys) and sum(k for k in keys)\n"
        )
        assert rule_ids(src) == []

    def test_silent_on_membership(self):
        src = "items = {1, 2, 3}\nok = 2 in items\n"
        assert rule_ids(src) == []


class TestNET001BlockingIO:
    def test_fires_on_open(self):
        src = "def load(path):\n    return open(path).read()\n"
        assert "NET001" in rule_ids(src)

    def test_fires_on_socket(self):
        src = (
            "import socket\n\n"
            "def dial(host):\n"
            "    return socket.create_connection((host, 7700))\n"
        )
        assert "NET001" in rule_ids(src)

    def test_silent_in_storage_and_net(self):
        src = "def load(path):\n    return open(path).read()\n"
        assert "NET001" not in rule_ids(src, path="src/repro/storage/wal.py")
        assert "NET001" not in rule_ids(src, path="src/repro/net/tcp.py")


class TestLOCK001GuardedMutation:
    def test_fires_on_increments_assignment(self):
        src = "def rollback(obj):\n    obj.increments = []\n"
        assert "LOCK001" in rule_ids(src)

    def test_fires_on_mutating_call(self):
        src = "def sneak(obj, x):\n    obj.increments.append(x)\n"
        assert "LOCK001" in rule_ids(src)

    def test_fires_on_lock_holder_assignment(self):
        src = "def steal(lock, me):\n    lock.holder = me\n"
        assert "LOCK001" in rule_ids(src)

    def test_silent_on_reads_and_methods(self):
        src = (
            "def peek(obj):\n"
            "    size = len(obj.increments)\n"
            "    obj.truncate(3)\n"
            "    return size, obj.base_seqno\n"
        )
        assert rule_ids(src) == []

    def test_silent_in_owning_modules(self):
        src = "def grant(lock, who):\n    lock.holder = who\n"
        assert "LOCK001" not in rule_ids(src, path="src/repro/core/locks.py")


class TestPERF001FanoutEncode:
    #: A module on the fan-out path (PERF001 is include-scoped to these).
    FANOUT = "src/repro/core/server.py"

    def test_fires_on_direct_encode_in_server(self):
        src = (
            "from repro.wire import codec\n\n"
            "def deliver(conns, msg):\n"
            "    for conn in conns:\n"
            "        push(conn, codec.encode(msg))\n"
        )
        assert "PERF001" in rule_ids(src, path=self.FANOUT)

    def test_fires_on_encoded_size_in_sim_host(self):
        src = (
            "from repro.wire import codec\n\n"
            "def cost(msg):\n"
            "    return codec.encoded_size(msg) + 4\n"
        )
        assert "PERF001" in rule_ids(src, path="src/repro/sim/host.py")

    def test_fires_on_from_import(self):
        src = (
            "from repro.wire.codec import encode\n\n"
            "def deliver(conn, msg):\n"
            "    push(conn, encode(msg))\n"
        )
        assert "PERF001" in rule_ids(src, path="src/repro/net/tcp.py")

    def test_silent_on_frame_cache_path(self):
        src = (
            "from repro.wire import frames\n\n"
            "def deliver(conns, msg):\n"
            "    frame = frames.encoded_frame(msg).frame\n"
            "    for conn in conns:\n"
            "        push(conn, frame)\n"
        )
        assert rule_ids(src, path=self.FANOUT) == []

    def test_silent_on_decode(self):
        src = (
            "from repro.wire import codec\n\n"
            "def receive(data):\n"
            "    return codec.decode(data)\n"
        )
        assert rule_ids(src, path=self.FANOUT) == []

    def test_silent_outside_fanout_modules(self):
        src = (
            "from repro.wire import codec\n\n"
            "def snapshot(obj):\n"
            "    return codec.encode(obj)\n"
        )
        assert "PERF001" not in rule_ids(src)  # CORE is not fan-out-scoped
        assert "PERF001" not in rule_ids(src, path="src/repro/storage/wal.py")

    def test_noqa_suppresses(self):
        src = (
            "from repro.wire import codec\n\n"
            "def deliver(conn, msg):\n"
            "    push(conn, codec.encode(msg))  # corona: noqa(PERF001)\n"
        )
        assert rule_ids(src, path=self.FANOUT) == []


class TestPERF003UnboundedOutbox:
    #: A module on the server send path (PERF003 is include-scoped).
    HOST = "src/repro/runtime/host.py"

    def test_fires_on_unbounded_asyncio_queue(self):
        src = (
            "import asyncio\n\n"
            "def make_mailbox():\n"
            "    return asyncio.Queue()\n"
        )
        assert "PERF003" in rule_ids(src, path=self.HOST)

    def test_silent_on_bounded_queue(self):
        src = (
            "import asyncio\n\n"
            "def make_mailbox(size):\n"
            "    return asyncio.Queue(size)\n"
        )
        assert "PERF003" not in rule_ids(src, path=self.HOST)
        src_kw = (
            "import asyncio\n\n"
            "def make_mailbox(size):\n"
            "    return asyncio.Queue(maxsize=size)\n"
        )
        assert "PERF003" not in rule_ids(src_kw, path=self.HOST)

    def test_fires_on_adhoc_outbox_append(self):
        src = (
            "def deliver(self, conn, frame):\n"
            "    self._outboxes[conn].append(frame)\n"
        )
        assert "PERF003" in rule_ids(src, path=self.HOST)

    def test_fires_on_outbox_put_nowait_in_sim(self):
        src = (
            "def deliver(self, conn, frame):\n"
            "    self.outbox.put_nowait(frame)\n"
        )
        assert "PERF003" in rule_ids(src, path="src/repro/sim/host.py")

    def test_silent_on_bounded_outbox_push(self):
        src = (
            "def deliver(self, conn, frame):\n"
            "    return self._outboxes[conn].push(frame)\n"
        )
        assert "PERF003" not in rule_ids(src, path=self.HOST)

    def test_silent_in_transport_layer(self):
        # repro.net owns the sanctioned bounding (BoundedOutbox's deques,
        # the rx queues that model kernel socket buffers).
        src = (
            "import asyncio\n\n"
            "def make_rx():\n"
            "    return asyncio.Queue()\n"
        )
        assert "PERF003" not in rule_ids(src, path="src/repro/net/memory.py")

    def test_silent_in_client_event_queue(self):
        src = (
            "import asyncio\n\n"
            "def make_events():\n"
            "    return asyncio.Queue()\n"
        )
        assert "PERF003" not in rule_ids(
            src, path="src/repro/runtime/client.py"
        )

    def test_noqa_suppresses(self):
        src = (
            "import asyncio\n\n"
            "def make_mailbox():\n"
            "    return asyncio.Queue()  # corona: noqa(PERF003)\n"
        )
        assert "PERF003" not in rule_ids(src, path=self.HOST)


class TestPERF004WholeStateMaterialize:
    def test_fires_on_materialize_all(self):
        src = (
            "def snapshot(group):\n"
            "    return group.state.materialize_all()\n"
        )
        assert "PERF004" in rule_ids(src, path="src/repro/core/server.py")

    def test_fires_on_materialize_selected(self):
        src = (
            "def subset(view, ids):\n"
            "    return view.state.materialize_selected(ids)\n"
        )
        assert "PERF004" in rule_ids(src, path="src/repro/apps/pubsub.py")

    def test_silent_in_transfer_module(self):
        src = (
            "def build(group):\n"
            "    return group.state.materialize_all()\n"
        )
        assert "PERF004" not in rule_ids(src, path="src/repro/core/transfer.py")

    def test_silent_in_state_and_baselines(self):
        src = (
            "def flatten(state):\n"
            "    return state.materialize_all()\n"
        )
        for owner in (
            "src/repro/core/state.py",
            "src/repro/baselines/isis.py",
        ):
            assert "PERF004" not in rule_ids(src, path=owner), owner

    def test_silent_on_single_object_materialized(self):
        src = (
            "def read(view, oid):\n"
            "    return view.state.get(oid).materialized()\n"
        )
        assert "PERF004" not in rule_ids(src, path="src/repro/apps/chat.py")

    def test_noqa_suppresses(self):
        src = (
            "def snapshot(group):\n"
            "    return group.state.materialize_all()  # corona: noqa(PERF004)\n"
        )
        assert "PERF004" not in rule_ids(src, path="src/repro/core/server.py")


class TestSuppression:
    BAD = "import time\nx = time.time()  # corona: noqa(DET001) -- edge code\n"

    def test_named_noqa_silences(self):
        assert rule_ids(self.BAD) == []

    def test_bare_noqa_silences_everything(self):
        src = "import time\nx = time.time()  # corona: noqa\n"
        assert rule_ids(src) == []

    def test_noqa_for_other_rule_does_not_silence(self):
        src = "import time\nx = time.time()  # corona: noqa(DET002)\n"
        assert "DET001" in rule_ids(src)


class TestConfig:
    def test_rule_enable_list(self):
        config = LintConfig(rules=("DET002",))
        src = "import time\nx = time.time()\n"
        assert rule_ids(src, config=config) == []

    def test_per_rule_exclude_override(self):
        config = LintConfig()
        config.per_rule_exclude["DET001"] = ("somemodule",)
        src = "import time\nx = time.time()\n"
        assert rule_ids(src, path="somemodule.py", config=config) == []

    def test_parse_error_is_a_finding(self):
        findings = lint_source("def broken(:\n", CORE)
        assert [f.rule_id for f in findings] == ["PARSE"]


def test_shipped_tree_is_clean():
    """The acceptance bar: `repro lint src/ --strict` exits 0."""
    from pathlib import Path

    from repro.analysis.lint import lint_paths, load_config

    root = Path(__file__).resolve().parents[2]
    config = load_config(root / "pyproject.toml")
    assert lint_paths([root / "src"], config) == []


class TestEFF001EffectDispatch:
    def test_fires_on_isinstance_if_chain(self):
        src = (
            "from repro.core.events import SendMessage, StartTimer\n\n"
            "def execute(effect):\n"
            "    if isinstance(effect, SendMessage):\n"
            "        send(effect)\n"
            "    elif isinstance(effect, StartTimer):\n"
            "        arm(effect)\n"
        )
        assert rule_ids(src).count("EFF001") == 2

    def test_fires_on_tuple_of_effect_types(self):
        src = (
            "from repro.core.events import CancelTimer, StartTimer\n\n"
            "def is_timer(effect):\n"
            "    return 1 if isinstance(effect, (StartTimer, CancelTimer)) else 0\n"
        )
        assert rule_ids(src).count("EFF001") == 2

    def test_fires_on_module_attribute_access(self):
        src = (
            "from repro.core import events\n\n"
            "def execute(effect):\n"
            "    if isinstance(effect, events.ShutDown):\n"
            "        stop()\n"
        )
        assert "EFF001" in rule_ids(src)

    def test_silent_on_filter_comprehension(self):
        src = (
            "from repro.core.events import SendMessage\n\n"
            "def sends(effects):\n"
            "    return [e for e in effects if isinstance(e, SendMessage)]\n"
        )
        assert rule_ids(src) == []

    def test_silent_on_non_effect_isinstance(self):
        src = (
            "from repro.wire.messages import Ack\n\n"
            "def handle(message):\n"
            "    if isinstance(message, Ack):\n"
            "        return True\n"
        )
        assert rule_ids(src) == []

    def test_silent_in_interpreter_module(self):
        src = (
            "from repro.core.events import SendMessage\n\n"
            "def dispatch(effect):\n"
            "    if isinstance(effect, SendMessage):\n"
            "        deliver(effect)\n"
        )
        assert rule_ids(src, path="src/repro/core/interpreter.py") == []
