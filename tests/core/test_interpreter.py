"""Unit tests for the shared effect interpreter (repro.core.interpreter):
middleware ordering, unknown-effect errors, fault injection, and batch
staging semantics, independent of any real host."""

import logging

import pytest

from repro.core.events import (
    CancelTimer,
    Effect,
    Notify,
    SendFanout,
    SendMessage,
    SendMulticast,
    ShutDown,
    StartTimer,
    TruncateWal,
)
from repro.core.interpreter import (
    EffectBackend,
    EffectInterpreter,
    FaultInjector,
    UnknownEffectError,
    build_interpreter,
    metrics_middleware,
    trace_middleware,
)


class RecordingBackend(EffectBackend):
    """Backend that records every call; conns outside *known* are gone."""

    def __init__(self, known_conns=(1, 2)):
        self.known = set(known_conns)
        self.actions = []

    def deliver(self, conn, message):
        if conn not in self.known:
            return False
        self.actions.append(("deliver", conn, message))
        return True

    def deliver_batch(self, conn, messages):
        if conn not in self.known:
            return False
        self.actions.append(("batch", conn, tuple(messages)))
        return True

    def start_timer(self, key, delay):
        self.actions.append(("start_timer", key, delay))

    def cancel_timer(self, key):
        self.actions.append(("cancel_timer", key))

    def open_connection(self, address, key):
        self.actions.append(("open", address, key))

    def close_connection(self, conn):
        self.actions.append(("close", conn))

    def notify(self, kind, payload):
        self.actions.append(("notify", kind, payload))

    def shutdown(self, reason):
        self.actions.append(("shutdown", reason))


class TestDispatch:
    def test_unregistered_effect_subclass_raises(self):
        class Orphan(Effect):
            pass

        interp = EffectInterpreter()
        with pytest.raises(UnknownEffectError):
            interp.dispatch(Orphan())

    def test_non_effect_object_raises_type_error(self):
        interp = build_interpreter(RecordingBackend())
        with pytest.raises(TypeError):
            interp.execute([object()])

    def test_subclass_resolves_through_mro_and_is_cached(self):
        class FancyNotify(Notify):
            pass

        backend = RecordingBackend()
        interp = build_interpreter(backend)
        interp.execute([FancyNotify("k", 1)])
        assert backend.actions == [("notify", "k", 1)]
        # resolved once: the subclass now has its own registry entry
        assert FancyNotify in interp._chains

    def test_register_batch_requires_register_first(self):
        interp = EffectInterpreter()
        with pytest.raises(LookupError):
            interp.register_batch(
                SendMessage, key=lambda e: e.conn, flush=lambda k, run: None
            )

    def test_drop_counters_and_warning(self, caplog):
        backend = RecordingBackend(known_conns=(1,))
        interp = build_interpreter(backend)
        with caplog.at_level(logging.WARNING, logger="repro.core.interpreter"):
            interp.execute([
                SendMessage(1, "ok"),
                SendMessage(9, "lost"),
                SendMulticast((1, 9, 8), "mc"),
            ])
        assert interp.stats.sends == 1
        assert interp.stats.send_drops == 1
        assert interp.stats.multicast_fanout == 1
        assert interp.stats.multicast_drops == 2
        assert backend.actions[0] == ("deliver", 1, "ok")
        assert any("unknown or kicked connection" in r.message for r in caplog.records)


class TestFanout:
    def test_default_backend_delivers_per_recipient_in_tuple_order(self):
        backend = RecordingBackend(known_conns=(1, 2, 3))
        interp = build_interpreter(backend)
        interp.execute([SendFanout((3, 1, 2), "d"), SendMessage(2, "ack")])
        # a fan-out never joins a same-connection run with what follows
        assert backend.actions == [
            ("deliver", 3, "d"), ("deliver", 1, "d"), ("deliver", 2, "d"),
            ("deliver", 2, "ack"),
        ]
        assert interp.stats.sends == 4 and interp.stats.send_drops == 0

    def test_counters_are_per_recipient_but_the_warning_is_per_fanout(self, caplog):
        backend = RecordingBackend(known_conns=(1,))
        interp = build_interpreter(backend)
        with caplog.at_level(logging.WARNING, logger="repro.core.interpreter"):
            interp.execute([SendFanout((9, 1, 8, 7), "d")])
            interp.execute([SendFanout((1,), "all delivered")])
        assert (interp.stats.sends, interp.stats.send_drops) == (2, 3)
        (record,) = caplog.records  # one line for three dead recipients
        assert "3" in record.getMessage() and "4" in record.getMessage()

    def test_a_backend_override_replaces_the_loop(self):
        class OneShot(RecordingBackend):
            def deliver_fanout(self, conns, message):
                self.actions.append(("fanout", tuple(conns), message))
                return len(conns) - 1

        backend = OneShot()
        interp = build_interpreter(backend)
        interp.execute([SendFanout((1, 2, 3), "d")])
        assert backend.actions == [("fanout", (1, 2, 3), "d")]
        assert (interp.stats.sends, interp.stats.send_drops) == (2, 1)

    def test_unicast_multicast_degrades_to_the_fanout_loop(self):
        backend = RecordingBackend(known_conns=(1, 2))
        interp = build_interpreter(backend)
        interp.execute([SendMulticast((1, 9, 2), "mc")])
        assert backend.actions == [("deliver", 1, "mc"), ("deliver", 2, "mc")]
        assert (interp.stats.multicast_fanout, interp.stats.multicast_drops) == (2, 1)
        assert interp.stats.sends == 0

    def test_middleware_sees_one_effect_and_a_fault_drops_every_recipient(self):
        backend = RecordingBackend()
        counters = {}
        faults = FaultInjector()
        faults.drop(SendFanout, lambda e: 2 in e.conns, times=1)
        interp = build_interpreter(backend, [metrics_middleware(counters), faults])
        interp.execute([SendFanout((1, 2), "lost"), SendFanout((1, 2), "kept")])
        assert counters == {"SendFanout": 2}
        assert faults.dropped == [SendFanout((1, 2), "lost")]
        assert backend.actions == [("deliver", 1, "kept"), ("deliver", 2, "kept")]
        assert interp.stats.sends == 2 and interp.stats.send_drops == 0


class TestBatching:
    def test_consecutive_sends_to_one_conn_flush_once(self):
        backend = RecordingBackend(known_conns=(1, 2))
        interp = build_interpreter(backend)
        interp.execute([
            SendMessage(1, "a"),
            SendMessage(1, "b"),
            SendMessage(2, "c"),
        ])
        assert backend.actions == [
            ("batch", 1, ("a", "b")),
            ("deliver", 2, "c"),
        ]
        assert interp.stats.sends == 3

    def test_non_consecutive_sends_do_not_coalesce(self):
        backend = RecordingBackend(known_conns=(1, 2))
        interp = build_interpreter(backend)
        interp.execute([
            SendMessage(1, "a"),
            SendMessage(2, "b"),
            SendMessage(1, "c"),
        ])
        assert backend.actions == [
            ("deliver", 1, "a"),
            ("deliver", 2, "b"),
            ("deliver", 1, "c"),
        ]

    def test_middleware_sees_each_staged_effect_individually(self):
        backend = RecordingBackend()
        seen = []
        interp = build_interpreter(backend, [trace_middleware(seen.append)])
        run = [SendMessage(1, "a"), SendMessage(1, "b")]
        interp.execute(run)
        assert seen == run
        assert backend.actions == [("batch", 1, ("a", "b"))]

    def test_dropped_staged_effects_are_excluded_from_flush(self):
        backend = RecordingBackend()
        faults = FaultInjector()
        faults.drop(SendMessage, lambda e: e.message == "b")
        interp = build_interpreter(backend, [faults])
        interp.execute([SendMessage(1, "a"), SendMessage(1, "b")])
        assert backend.actions == [("batch", 1, ("a",))]
        assert faults.dropped == [SendMessage(1, "b")]

    def test_fully_dropped_run_never_reaches_backend(self):
        backend = RecordingBackend()
        faults = FaultInjector()
        faults.drop(SendMessage)
        interp = build_interpreter(backend, [faults])
        interp.execute([SendMessage(1, "a"), SendMessage(1, "b")])
        assert backend.actions == []


class TestMiddleware:
    def test_registration_order_outermost_first(self):
        order = []

        def make(tag):
            def middleware(effect, nxt):
                order.append(f"{tag}-pre")
                nxt(effect)
                order.append(f"{tag}-post")

            return middleware

        interp = build_interpreter(RecordingBackend(), [make("a"), make("b")])
        interp.execute([Notify("k", None)])
        assert order == ["a-pre", "b-pre", "b-post", "a-post"]

    def test_middleware_may_drop_by_not_calling_next(self):
        backend = RecordingBackend()

        def swallow_timers(effect, nxt):
            if type(effect) is not StartTimer:
                nxt(effect)

        interp = build_interpreter(backend, [swallow_timers])
        interp.execute([StartTimer("t", 1.0), CancelTimer("t")])
        assert backend.actions == [("cancel_timer", "t")]
        assert interp.stats.timers_started == 0
        assert interp.stats.timers_cancelled == 1

    def test_metrics_middleware_counts_per_type(self):
        counters = {}
        interp = build_interpreter(
            RecordingBackend(), [metrics_middleware(counters)]
        )
        interp.execute([
            StartTimer("t", 1.0),
            StartTimer("u", 1.0),
            ShutDown("bye"),
        ])
        assert counters == {"StartTimer": 2, "ShutDown": 1}

    def test_fault_injector_fail_raises_limited_times(self):
        backend = RecordingBackend()
        faults = FaultInjector()
        faults.fail(TruncateWal, RuntimeError("disk on fire"), times=1)
        interp = build_interpreter(backend, [faults])
        with pytest.raises(RuntimeError):
            interp.execute([TruncateWal("g", 3)])
        interp.execute([TruncateWal("g", 4)])  # rule exhausted
        assert interp.stats.wal_truncates == 1
