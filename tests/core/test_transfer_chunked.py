"""Chunked/resumable state transfer: planner, server, client, and the
byte-identity property (contract: docs/protocol.md §3.5).

Three layers of sans-io unit tests plus a Hypothesis property:

* :class:`OutgoingTransfer` — windowing, ack clocking, two-phase
  (per round trip, then per interval) bandwidth adaptation, pause/resume;
* the server core — marker replies, chunk pumping, resume handling,
  TTL expiry;
* the client core — reassembly, catch-up buffering, progress events;
* property — for arbitrary chunk configurations, update interleavings
  and disconnect points, a chunked join converges to state byte-identical
  to a monolithic FULL join.

The warm start — a transfer opens at the bandwidth the last finished
transfer to the same peer host measured — is covered at the planner,
server-core and simulator levels.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import ClientConfig, ClientCore
from repro.core.clock import ManualClock
from repro.core.errors import (
    NoSuchGroupError,
    NotAMemberError,
    ProtocolError,
    RequestTimeoutError,
)
from repro.core.events import (
    NOTIFY_TRANSFER_PROGRESS,
    CloseConnection,
    Notify,
    SendMessage,
    StartTimer,
)
from repro.core.server import ServerConfig, ServerCore
from repro.core.transfer import (
    DEFAULT_TRANSFER,
    OutgoingTransfer,
    TransferConfig,
    chunk_marker,
    transfer_knobs,
)
from repro.sim.harness import CoronaWorld
from repro.sim.profiles import MODEM_28_8
from repro.wire import frames
from repro.wire.messages import (
    SNAP_CHUNKED,
    SNAP_DELTA,
    Ack,
    BcastUpdateRequest,
    ChunkAck,
    CreateGroupRequest,
    Delivery,
    ErrorReply,
    GroupDeletedNotice,
    Hello,
    HelloReply,
    JoinGroupRequest,
    JoinReply,
    MemberRole,
    ObjectState,
    StateChunk,
    StateSnapshot,
    TransferPolicy,
    TransferResume,
    TransferSpec,
    UpdateKind,
    UpdateRecord,
)
from tests.core.helpers import CoreDriver, sends_in


def _snapshot(payload_bytes=1000):
    return StateSnapshot(
        "g", 0, (ObjectState("o", b"\xab" * payload_bytes),), (), 1
    )


def _transfer(payload_bytes=1000, **cfg_kwargs):
    defaults = dict(
        chunk_threshold_bytes=0, initial_chunk_bytes=64,
        chunk_floor_bytes=16, chunk_ceiling_bytes=256,
        inflight_chunks=2, target_chunk_seconds=1.0,
        bandwidth_gain=0.5, resume_ttl=30.0,
    )
    defaults.update(cfg_kwargs)
    transfer = OutgoingTransfer(
        group="g", client="c", transfer_id=1,
        snapshot=_snapshot(payload_bytes),
        config=TransferConfig(**defaults), now=0.0,
    )
    return transfer


class TestTransferConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            TransferConfig(chunk_floor_bytes=0)
        with pytest.raises(ValueError):
            TransferConfig(chunk_floor_bytes=64, chunk_ceiling_bytes=32)
        with pytest.raises(ValueError):
            TransferConfig(initial_chunk_bytes=1)  # below the floor
        with pytest.raises(ValueError):
            TransferConfig(inflight_chunks=0)
        with pytest.raises(ValueError):
            TransferConfig(bandwidth_gain=0.0)
        with pytest.raises(ValueError):
            TransferConfig(resume_ttl=0.0)

    def test_the_knob_set_is_unchanged(self):
        # the warm start reuses these knobs; a new one is a contract
        # change (docs/protocol.md §3.5 and tools/check_docs.py move too)
        assert transfer_knobs() == (
            "chunk_threshold_bytes", "initial_chunk_bytes",
            "chunk_floor_bytes", "chunk_ceiling_bytes", "inflight_chunks",
            "target_chunk_seconds", "bandwidth_gain", "resume_ttl",
        )


class TestOutgoingTransfer:
    def test_initial_window(self):
        t = _transfer()
        chunks = t.next_chunks()
        # exactly one in-flight window of initial-size chunks
        assert [c.offset for c in chunks] == [0, 64]
        assert all(len(c.data) == 64 for c in chunks)
        assert all(c.total_bytes == t.total_bytes for c in chunks)
        assert t.next_chunks() == []  # window full until an ack

    def test_ack_releases_the_window(self):
        t = _transfer()
        t.next_chunks()
        released = t.on_ack(64, now=0.1)
        assert [c.offset for c in released] == [128]
        assert t.acked_offset == 64

    def test_stale_and_duplicate_acks_ignored(self):
        t = _transfer()
        t.next_chunks()
        t.on_ack(64, now=0.1)
        assert t.on_ack(64, now=0.2) == []
        assert t.on_ack(0, now=0.3) == []
        assert t.acked_offset == 64

    def test_reassembly_is_byte_identical(self):
        t = _transfer(payload_bytes=777)  # not a chunk multiple
        received = bytearray()
        chunks = t.next_chunks()
        while chunks:
            for chunk in chunks:
                assert chunk.offset == len(received)
                received += chunk.data
            chunks = t.on_ack(len(received), now=0.0)
        assert bytes(received) == t.payload
        assert t.done
        # `last` marks exactly the final chunk
        assert received[-1:] == t.payload[-1:]

    def test_last_flag_only_on_final_chunk(self):
        t = _transfer(payload_bytes=300)
        seen = []
        chunks = t.next_chunks()
        got = 0
        while chunks:
            for chunk in chunks:
                got += len(chunk.data)
                seen.append(chunk.last)
            chunks = t.on_ack(got, now=0.0)
        assert seen[-1] is True
        assert not any(seen[:-1])

    def test_adaptation_waits_for_a_full_interval(self):
        t = _transfer(payload_bytes=4000)
        t.next_chunks()
        # acks inside the sample interval accumulate, no sample yet
        t.on_ack(64, now=0.5)
        assert t.bandwidth == 0.0
        assert t.chunk_bytes == 64
        # the interval closes: one honest sample over the whole window
        t.on_ack(128, now=1.0)
        assert t.bandwidth == pytest.approx(128.0)  # 128 bytes / 1.0 s
        assert t.chunk_bytes == 128  # bw * target_chunk_seconds, clamped

    def test_fast_flight_samples_once_per_round_from_its_send_time(self):
        t = _transfer(payload_bytes=4000, chunk_ceiling_bytes=4096)
        t.next_chunks()  # the first flight, [0, 128), leaves at 0.0
        t.on_ack(64, now=0.1)  # half of it: no sample, one chunk released
        assert (t.bandwidth, t.chunk_bytes, t.sent_offset) == (0.0, 64, 192)
        # all of it, well inside the interval: one sample over its 0.2 s
        t.on_ack(128, now=0.2)
        assert t.bandwidth == pytest.approx(640.0)
        assert t.chunk_bytes == 640
        # the next round is everything in flight after that sample
        # (window 2 x 640), timed from 0.2 when its last chunk left
        assert t.sent_offset == 1472
        t.on_ack(192, now=0.25)
        t.on_ack(832, now=0.3)
        assert t.bandwidth == pytest.approx(640.0)  # round not over yet
        t.on_ack(1472, now=0.4)
        # (1472 - 128) bytes / 0.2 s = 6720, folded in with gain 0.5
        assert t.bandwidth == pytest.approx(3680.0)

    def test_first_interval_sample_ends_slow_start_for_good(self):
        # A first ack slower than the interval is the parent's rule
        # exactly, and shrinks the chunk.  The window is then full of
        # already-delivered bytes whose acks come back to back (ack
        # compression): that burst completes a round in a millisecond
        # and must not be sampled.
        t = _transfer(payload_bytes=4000)
        t.next_chunks()
        t.on_ack(64, now=8.0)
        assert (t.bandwidth, t.chunk_bytes) == (pytest.approx(8.0), 16)
        t.on_ack(128, now=8.001)  # everything outstanding, 1 ms later
        for offset in (144, 160, 176, 192):  # and whole windows after it
            t.on_ack(offset, now=8.002)
        assert (t.bandwidth, t.chunk_bytes) == (pytest.approx(8.0), 16)
        # the burst folds into the next interval's one honest sample
        t.on_ack(208, now=9.0)
        assert t.bandwidth == pytest.approx(8.0 + 0.5 * (144.0 - 8.0))

    def test_a_round_with_no_time_in_it_takes_no_sample(self):
        t = _transfer(payload_bytes=4000)
        t.next_chunks()
        t.on_ack(128, now=0.0)  # a clock that has not moved says nothing
        assert (t.bandwidth, t.chunk_bytes) == (0.0, 64)

    def test_chunk_size_clamped_to_floor_and_ceiling(self):
        t = _transfer(payload_bytes=100_000)
        t.next_chunks()
        t.on_ack(128, now=1000.0)  # glacial: sample ~0.128 B/s
        assert t.chunk_bytes == 16  # floor
        fast = _transfer(payload_bytes=100_000)
        fast.next_chunks()
        fast.on_ack(128, now=1e-4)  # one round trip at 1.28 MB/s
        assert fast.chunk_bytes == 256  # ceiling, after a single round

    def test_ack_beyond_what_was_sent_is_clamped(self):
        t = _transfer(payload_bytes=4000)
        t.next_chunks()  # sent through 128
        released = t.on_ack(4000, now=1.0)
        assert t.acked_offset == 128 and not t.done
        assert t.bandwidth == pytest.approx(128.0)  # only bytes that moved
        assert released and released[0].offset == 128

    def test_pause_blocks_planning_and_arms_ttl(self):
        t = _transfer()
        t.next_chunks()
        t.pause(now=5.0)
        assert t.expires_at == 35.0
        assert t.next_chunks() == []
        assert t.on_ack(64, now=6.0) == []

    def test_resume_rewinds_without_resending_acked_bytes(self):
        t = _transfer(payload_bytes=1000)
        t.next_chunks()
        t.on_ack(64, now=0.1)
        t.pause(now=1.0)
        assert t.resume(offset=64, now=2.0) is True
        assert t.paused is False and t.expires_at is None
        assert (t.sent_offset, t.acked_offset) == (64, 64)
        assert [c.offset for c in t.next_chunks()] == [64, 128]

    def test_resume_rejects_an_offset_never_sent(self):
        t = _transfer()
        t.next_chunks()  # sent through 128
        assert t.resume(offset=4096, now=0.0) is False
        assert t.resume(offset=-1, now=0.0) is False

    def test_resume_ends_slow_start(self):
        t = _transfer(payload_bytes=4000)
        t.next_chunks()
        t.pause(now=0.05)
        assert t.resume(offset=0, now=0.1) is True
        t.next_chunks()
        t.on_ack(128, now=0.2)  # a whole window in 0.1 s: not sampled
        assert (t.bandwidth, t.chunk_bytes) == (0.0, 64)


class TestChunkMarker:
    def test_marker_is_empty_and_flagged(self):
        snapshot = _snapshot()
        marker = chunk_marker(snapshot)
        assert marker.flags & SNAP_CHUNKED
        assert marker.objects == () and marker.updates == ()
        assert marker.base_seqno == snapshot.base_seqno
        assert marker.next_seqno == snapshot.next_seqno

    def test_marker_preserves_delta_flag(self):
        snapshot = StateSnapshot("g", 0, (), (), 1, flags=SNAP_DELTA)
        assert chunk_marker(snapshot).flags == SNAP_DELTA | SNAP_CHUNKED


# --------------------------------------------------------------------------
# server core
# --------------------------------------------------------------------------

#: Small knobs so a few-kB state exercises the chunked path.
_SERVER_CFG = TransferConfig(
    chunk_threshold_bytes=256, initial_chunk_bytes=128,
    chunk_floor_bytes=32, chunk_ceiling_bytes=512,
    inflight_chunks=2, target_chunk_seconds=0.5,
    bandwidth_gain=0.5, resume_ttl=30.0,
)


def _server(clock):
    return CoreDriver(
        ServerCore(ServerConfig(server_id="s1", transfer=_SERVER_CFG), clock)
    )


def _connect(driver, client_id):
    conn = driver.connect()
    driver.deliver(conn, Hello(client_id=client_id))
    return conn


def _seed_group(driver, conn, state_bytes=2000, rid=1):
    driver.deliver(conn, CreateGroupRequest(
        rid, "g", False, (ObjectState("o", b"\xcd" * state_bytes),)
    ))
    driver.deliver(conn, JoinGroupRequest(
        rid + 1, "g", MemberRole.PRINCIPAL,
        TransferSpec(policy=TransferPolicy.NONE), False,
    ))


def _chunks_to(driver, conn, effects=None):
    return [m for m in driver.sent_to(conn, effects) if isinstance(m, StateChunk)]


class TestServerChunkedTransfer:
    def test_big_chunked_join_gets_marker_and_chunks(self):
        driver = _server(ManualClock())
        seeder = _connect(driver, "seeder")
        _seed_group(driver, seeder)
        joiner = _connect(driver, "joiner")
        effects = driver.deliver(joiner, JoinGroupRequest(
            2, "g", MemberRole.PRINCIPAL,
            TransferSpec(chunked=True), False,
        ))
        (reply,) = [m for m in driver.sent_to(joiner, effects)
                    if isinstance(m, JoinReply)]
        assert reply.snapshot.flags & SNAP_CHUNKED
        assert reply.snapshot.objects == ()
        chunks = _chunks_to(driver, joiner, effects)
        assert chunks and chunks[0].offset == 0
        assert len(chunks) == _SERVER_CFG.inflight_chunks
        assert driver.core.stats.chunked_transfers == 1

    def test_small_chunked_join_stays_monolithic(self):
        driver = _server(ManualClock())
        seeder = _connect(driver, "seeder")
        _seed_group(driver, seeder, state_bytes=50)
        joiner = _connect(driver, "joiner")
        effects = driver.deliver(joiner, JoinGroupRequest(
            2, "g", MemberRole.PRINCIPAL, TransferSpec(chunked=True), False,
        ))
        (reply,) = [m for m in driver.sent_to(joiner, effects)
                    if isinstance(m, JoinReply)]
        assert not reply.snapshot.flags & SNAP_CHUNKED
        assert reply.snapshot.objects  # the state is in the reply itself
        assert _chunks_to(driver, joiner, effects) == []
        assert driver.core.stats.chunked_transfers == 0

    def _start_join(self, driver):
        seeder = _connect(driver, "seeder")
        _seed_group(driver, seeder)
        joiner = _connect(driver, "joiner")
        effects = driver.deliver(joiner, JoinGroupRequest(
            2, "g", MemberRole.PRINCIPAL, TransferSpec(chunked=True), False,
        ))
        chunks = _chunks_to(driver, joiner, effects)
        return seeder, joiner, chunks

    def test_acks_clock_the_stream_to_completion(self):
        driver = _server(ManualClock())
        _seeder, joiner, chunks = self._start_join(driver)
        received = bytearray()
        transfer_id = chunks[0].transfer_id
        while chunks:
            for chunk in chunks:
                assert chunk.offset == len(received)
                received += chunk.data
            effects = driver.deliver(joiner, ChunkAck(
                "g", transfer_id, len(received)
            ))
            chunks = _chunks_to(driver, joiner, effects)
        # reassembled payload decodes to the full snapshot
        from repro.wire import codec
        snapshot = codec.decode(bytes(received))
        assert isinstance(snapshot, StateSnapshot)
        assert snapshot.objects[0].data == b"\xcd" * 2000
        # the session is gone once everything is acked
        assert driver.deliver(joiner, ChunkAck("g", transfer_id, 1)) == []

    def test_live_updates_fan_out_during_transfer(self):
        driver = _server(ManualClock())
        seeder, joiner, _chunks = self._start_join(driver)
        effects = driver.deliver(seeder, BcastUpdateRequest(
            9, "g", "o", b"live",
        ))
        deliveries = driver.deliveries_to(joiner, effects)
        assert deliveries and deliveries[0].update.data == b"live"

    def test_disconnect_pauses_and_resume_continues(self):
        clock = ManualClock()
        driver = _server(clock)
        _seeder, joiner, chunks = self._start_join(driver)
        transfer_id = chunks[0].transfer_id
        received = bytearray()
        for chunk in chunks:
            received += chunk.data
        driver.deliver(joiner, ChunkAck("g", transfer_id, len(received)))
        driver.close(joiner)
        # reconnect and resume at the first byte we lack
        joiner2 = _connect(driver, "joiner")
        driver.clear()
        effects = driver.deliver(joiner2, TransferResume(
            3, "g", transfer_id, len(received), 0
        ))
        (reply,) = [m for m in driver.sent_to(joiner2, effects)
                    if isinstance(m, JoinReply)]
        assert reply.request_id == 3
        assert reply.snapshot.flags & SNAP_CHUNKED
        resumed = _chunks_to(driver, joiner2, effects)
        assert resumed and resumed[0].offset == len(received)
        assert driver.core.stats.transfer_resumes == 1

    def test_resume_replays_missed_deliveries(self):
        driver = _server(ManualClock())
        seeder, joiner, chunks = self._start_join(driver)
        transfer_id = chunks[0].transfer_id
        driver.close(joiner)
        driver.deliver(seeder, BcastUpdateRequest(9, "g", "o", b"missed"))
        joiner2 = _connect(driver, "joiner")
        driver.clear()
        effects = driver.deliver(joiner2, TransferResume(3, "g", transfer_id, 0, -1))
        deliveries = [m for m in driver.sent_to(joiner2, effects)
                      if isinstance(m, Delivery)]
        assert [d.update.data for d in deliveries] == [b"missed"]

    def test_expired_resume_is_refused(self):
        clock = ManualClock()
        driver = _server(clock)
        _seeder, joiner, chunks = self._start_join(driver)
        transfer_id = chunks[0].transfer_id
        driver.close(joiner)
        clock.advance(_SERVER_CFG.resume_ttl + 1.0)
        joiner2 = _connect(driver, "joiner")
        driver.clear()
        effects = driver.deliver(joiner2, TransferResume(3, "g", transfer_id, 0, -1))
        (reply,) = [m for m in driver.sent_to(joiner2, effects)
                    if isinstance(m, ErrorReply)]
        assert reply.request_id == 3

    def test_fresh_join_supersedes_a_paused_transfer(self):
        driver = _server(ManualClock())
        _seeder, joiner, chunks = self._start_join(driver)
        old_id = chunks[0].transfer_id
        driver.close(joiner)
        joiner2 = _connect(driver, "joiner")
        driver.clear()
        effects = driver.deliver(joiner2, JoinGroupRequest(
            4, "g", MemberRole.PRINCIPAL, TransferSpec(chunked=True), False,
        ))
        fresh = _chunks_to(driver, joiner2, effects)
        assert fresh and fresh[0].transfer_id != old_id
        assert fresh[0].offset == 0
        # the old session is gone: resuming it now fails
        effects = driver.deliver(joiner2, TransferResume(5, "g", old_id, 0, -1))
        assert any(isinstance(m, ErrorReply)
                   for m in driver.sent_to(joiner2, effects))


# --------------------------------------------------------------------------
# warm start: a transfer opens at its peer host's last measurement
# --------------------------------------------------------------------------

BALLAST = bytes(range(256)) * 1024  # 256 KiB, the real harness's ballast


def _ballast_server():
    """A default-knob server holding the 256 KiB group "g"; its seeder
    connects from a host of its own."""
    clock = ManualClock()
    driver = CoreDriver(ServerCore(ServerConfig(server_id="s1"), clock))
    seeder = driver.connect(peer="seed-host")
    driver.deliver(seeder, Hello(client_id="seeder"))
    driver.deliver(seeder, CreateGroupRequest(
        1, "g", False, (ObjectState("o", BALLAST),)
    ))
    return driver, clock


def _chunked_join(driver, peer, client_id):
    """Connect *client_id* from *peer* and ask for a chunked join of "g";
    returns the connection and the first flight of chunks."""
    conn = driver.connect(peer)
    driver.deliver(conn, Hello(client_id=client_id))
    effects = driver.deliver(conn, JoinGroupRequest(
        2, "g", MemberRole.PRINCIPAL, TransferSpec(chunked=True), False,
    ))
    return conn, _chunks_to(driver, conn, effects)


def _ack_through(driver, clock, conn, chunks):
    """Ack each chunk and each chunk it releases, 1 ms apart (a fast
    link); returns the bytes received."""
    received = bytearray()
    while chunks:
        chunk = chunks.pop(0)
        assert chunk.offset == len(received)
        received += chunk.data
        clock.advance(0.001)
        chunks += _chunks_to(driver, conn, driver.deliver(
            conn, ChunkAck("g", chunk.transfer_id, len(received))
        ))
    return bytes(received)


def _cold_flight():
    cfg = DEFAULT_TRANSFER
    return [cfg.initial_chunk_bytes] * cfg.inflight_chunks


class TestWarmStart:
    def test_a_warm_second_join_sends_the_whole_payload_at_once(self):
        driver, clock = _ballast_server()
        conn, first = _chunked_join(driver, "lan", "first")
        assert [len(c.data) for c in first] == _cold_flight()
        payload = _ack_through(driver, clock, conn, first)
        _conn, warm = _chunked_join(driver, "lan", "second")
        # the first next_chunks() call holds every byte: the ceiling
        # chunk and a short tail
        assert b"".join(c.data for c in warm) == payload
        assert [c.last for c in warm] == [False, True]
        assert len(warm) == math.ceil(
            len(payload) / DEFAULT_TRANSFER.chunk_ceiling_bytes
        )

    def test_a_join_from_another_peer_host_still_starts_cold(self):
        driver, clock = _ballast_server()
        conn, first = _chunked_join(driver, "lan", "lan-1")
        _ack_through(driver, clock, conn, first)
        # a modem beside the LAN client: its link was never measured
        _modem, flight = _chunked_join(driver, "modem", "modem-1")
        assert [len(c.data) for c in flight] == _cold_flight()
        # and the LAN host kept its own estimate
        _lan, warm = _chunked_join(driver, "lan", "lan-2")
        assert len(warm[0].data) == DEFAULT_TRANSFER.chunk_ceiling_bytes

    def test_tcp_peers_are_keyed_by_address_without_the_port(self):
        driver, clock = _ballast_server()
        conn, first = _chunked_join(driver, "127.0.0.1:40001", "first")
        _ack_through(driver, clock, conn, first)
        _conn, warm = _chunked_join(driver, "127.0.0.1:40002", "second")
        assert len(warm) == 2
        _conn, cold = _chunked_join(driver, "10.0.0.9:40001", "third")
        assert [len(c.data) for c in cold] == _cold_flight()

    def test_a_resume_after_a_warm_start_never_resends_acked_bytes(self):
        driver, clock = _ballast_server()
        conn, first = _chunked_join(driver, "lan", "first")
        payload = _ack_through(driver, clock, conn, first)
        conn, warm = _chunked_join(driver, "lan", "second")
        acked = _ack_through(driver, clock, conn, warm[:1])
        assert len(acked) == DEFAULT_TRANSFER.chunk_ceiling_bytes
        driver.close(conn)
        back = driver.connect("lan")
        driver.deliver(back, Hello(client_id="second"))
        effects = driver.deliver(back, TransferResume(
            3, "g", warm[0].transfer_id, len(acked), 0
        ))
        resumed = _chunks_to(driver, back, effects)
        assert resumed[0].offset == len(acked)
        assert acked + b"".join(c.data for c in resumed) == payload

    def test_a_slow_client_behind_a_warm_address_shrinks_after_one_sample(self):
        # NAT or a proxy: a modem shares its address with a fast client
        driver, clock = _ballast_server()
        creator = driver.connect(peer="seed-host")
        driver.deliver(creator, Hello(client_id="creator"))
        driver.deliver(creator, CreateGroupRequest(
            1, "big", False, (ObjectState("o", BALLAST * 8),)
        ))
        conn, first = _chunked_join(driver, "nat", "fast")
        _ack_through(driver, clock, conn, first)
        slow = driver.connect("nat")
        driver.deliver(slow, Hello(client_id="slow"))
        flight = _chunks_to(driver, slow, driver.deliver(slow, JoinGroupRequest(
            2, "big", MemberRole.PRINCIPAL, TransferSpec(chunked=True), False,
        )))
        cfg = DEFAULT_TRANSFER
        # the fast client's estimate sized the first flight ...
        assert [len(c.data) for c in flight] == (
            [cfg.chunk_ceiling_bytes] * cfg.inflight_chunks
        )
        acked, later = 0, []
        for chunk in flight:
            acked += len(chunk.data)
            clock.advance(len(chunk.data) / 3600)  # 28.8 kbit/s
            later += _chunks_to(driver, slow, driver.deliver(
                slow, ChunkAck("big", chunk.transfer_id, acked)
            ))
        # ... and the slow client's first sample replaced it: everything
        # after that flight is sized by the modem, not by the seed
        assert later
        assert {len(c.data) for c in later} == {cfg.chunk_floor_bytes}

    def test_the_link_table_empties_once_every_connection_closes(self):
        driver, clock = _ballast_server()
        conn, first = _chunked_join(driver, "lan", "first")
        _ack_through(driver, clock, conn, first)
        assert driver.core._links["lan"].bandwidth > 0.0
        _chunked_join(driver, "lan", "second")
        _chunked_join(driver, "modem", "third")
        for open_conn in list(driver.core._conn_addr):
            driver.close(open_conn)
            # a host's entry lives exactly as long as its connections
            assert set(driver.core._links) == set(
                driver.core._conn_addr.values()
            )
        assert driver.core._links == {} and driver.core._conn_addr == {}


# --------------------------------------------------------------------------
# client core
# --------------------------------------------------------------------------

def _client_driver():
    core = ClientCore(
        ClientConfig("c", auto_reconnect=True, reconnect_backoff=1.0),
        ManualClock(),
    )
    driver = CoreDriver(core)
    driver.invoke("connect", ("host", 1))
    conn = driver.connect(key="server")
    driver.deliver(conn, HelloReply(server_id="s1"))
    return driver, core, conn


def _marker_join(driver, conn, snapshot, rid=None):
    """Issue a chunked join and answer it with the chunk marker."""
    request_id = driver.invoke(
        "join_group", "g", MemberRole.PRINCIPAL,
        TransferSpec(chunked=True), False,
    )
    driver.deliver(conn, JoinReply(request_id, chunk_marker(snapshot), ()))
    return request_id


def _payload_chunks(snapshot, size, transfer_id=7):
    payload = frames.payload_of(snapshot)
    out = []
    for offset in range(0, len(payload), size):
        end = min(offset + size, len(payload))
        out.append(StateChunk("g", transfer_id, offset, payload[offset:end],
                              len(payload), end >= len(payload)))
    return out


class TestClientReassembly:
    def test_chunks_reassemble_into_the_view(self):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        rid = _marker_join(driver, conn, snapshot)
        assert rid in core._pending  # join stays open during the stream
        for chunk in _payload_chunks(snapshot, 128):
            driver.deliver(conn, chunk)
        view = core.views["g"]
        assert view.state.get("o").materialized() == b"\xab" * 500
        replies = [n for n in driver.notifications("reply")
                   if n.payload.request_id == rid]
        assert replies and replies[0].payload.ok

    def test_every_chunk_is_acked_and_reported(self):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        _marker_join(driver, conn, snapshot)
        driver.clear()
        chunks = _payload_chunks(snapshot, 128)
        for chunk in chunks:
            driver.deliver(conn, chunk)
        acks = [m for m in driver.sent_to(conn) if isinstance(m, ChunkAck)]
        assert [a.offset for a in acks] == [
            c.offset + len(c.data) for c in chunks
        ]
        progress = driver.notifications(NOTIFY_TRANSFER_PROGRESS)
        assert len(progress) == len(chunks)
        assert progress[-1].payload.received_bytes == progress[-1].payload.total_bytes

    def test_deliveries_buffer_and_replay_after_the_last_chunk(self):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        _marker_join(driver, conn, snapshot)
        chunks = _payload_chunks(snapshot, 128)
        # a live update arrives mid-stream, before the replica exists
        from repro.wire.messages import UpdateKind, UpdateRecord
        record = UpdateRecord(1, UpdateKind.UPDATE, "o", b"+live", "seeder", 0.0)
        driver.deliver(conn, chunks[0])
        effects = driver.deliver(conn, Delivery("g", record))
        # the application hears it immediately...
        assert any(isinstance(e, Notify) and e.kind == "delivery"
                   for e in effects)
        for chunk in chunks[1:]:
            driver.deliver(conn, chunk)
        # ...and the replica includes it after reassembly
        view = core.views["g"]
        assert view.state.get("o").materialized() == b"\xab" * 500 + b"+live"
        assert view.next_seqno == 2

    def test_chunk_gap_is_a_protocol_error(self):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        _marker_join(driver, conn, snapshot)
        chunks = _payload_chunks(snapshot, 128)
        driver.deliver(conn, chunks[0])
        with pytest.raises(ProtocolError):
            core.on_message(conn, chunks[2])  # skipped chunks[1]

    @pytest.mark.parametrize("tamper", [
        lambda c: StateChunk(c.group, c.transfer_id, c.offset,
                             c.data + b"x" * 500, c.total_bytes, c.last),
        lambda c: StateChunk(c.group, c.transfer_id, c.offset, c.data,
                             c.total_bytes + 1, c.last),
        lambda c: StateChunk(c.group, c.transfer_id, c.offset, c.data,
                             c.total_bytes, True),
    ], ids=["overruns-total", "total-changes", "last-too-early"])
    def test_chunk_that_contradicts_total_bytes_is_a_protocol_error(
        self, tamper
    ):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        _marker_join(driver, conn, snapshot)
        chunks = _payload_chunks(snapshot, 128)
        driver.deliver(conn, chunks[0])
        with pytest.raises(ProtocolError):
            core.on_message(conn, tamper(chunks[1]))
        # nothing of the bad chunk was kept or acknowledged
        assert core._streams["g"].received_bytes == 128

    def test_duplicate_chunk_after_resume_race_is_dropped(self):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        _marker_join(driver, conn, snapshot)
        chunks = _payload_chunks(snapshot, 128)
        driver.deliver(conn, chunks[0])
        driver.deliver(conn, chunks[0])  # duplicate: ignored
        for chunk in chunks[1:]:
            driver.deliver(conn, chunk)
        assert core.views["g"].state.get("o").materialized() == b"\xab" * 500

    def test_a_leave_acked_mid_transfer_ends_the_join_at_once(self):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        rid = _marker_join(driver, conn, snapshot)
        driver.deliver(conn, _payload_chunks(snapshot, 128)[0])
        leave = driver.invoke("leave_group", "g")
        driver.clear()
        driver.deliver(conn, Ack(leave))
        replies = {n.payload.request_id: n.payload
                   for n in driver.notifications("reply")}
        assert isinstance(replies[rid].error, NotAMemberError)
        assert replies[leave].ok
        assert f"req-{rid}" in {t.key for t in driver.timers_cancelled()}
        assert not core._streams and not core._pending
        assert "g" not in core.views

    def test_chunks_after_an_acked_leave_are_ignored(self):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        _marker_join(driver, conn, snapshot)
        chunks = _payload_chunks(snapshot, 128)
        driver.deliver(conn, chunks[0])
        driver.deliver(conn, Ack(driver.invoke("leave_group", "g")))
        driver.clear()
        for chunk in chunks[1:]:  # queued behind the Ack on the bulk lane
            assert driver.deliver(conn, chunk) == []
        assert "g" not in core.views and not core._streams

    def test_reconnect_sends_resume_with_byte_cursor(self):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        _marker_join(driver, conn, snapshot)
        chunks = _payload_chunks(snapshot, 128)
        driver.deliver(conn, chunks[0])
        driver.close(conn)
        driver.fire_timer("reconnect")
        conn2 = driver.connect(key="server")
        driver.clear()
        driver.deliver(conn2, HelloReply(server_id="s1"))
        resumes = [m for m in driver.sent_to(conn2)
                   if isinstance(m, TransferResume)]
        assert len(resumes) == 1
        assert resumes[0].offset == len(chunks[0].data)
        assert resumes[0].transfer_id == chunks[0].transfer_id
        # no duplicate join: the resume carries the session forward
        assert not [m for m in driver.sent_to(conn2)
                    if isinstance(m, JoinGroupRequest)]

    def test_resume_has_no_app_visible_reply(self):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        _marker_join(driver, conn, snapshot)
        chunks = _payload_chunks(snapshot, 128)
        driver.deliver(conn, chunks[0])
        driver.close(conn)
        driver.fire_timer("reconnect")
        conn2 = driver.connect(key="server")
        driver.deliver(conn2, HelloReply(server_id="s1"))
        (resume,) = [m for m in driver.sent_to(conn2)
                     if isinstance(m, TransferResume)]
        driver.clear()
        driver.deliver(conn2, JoinReply(
            resume.request_id, chunk_marker(snapshot), ()
        ))
        assert driver.notifications("reply") == []

    def test_rejected_resume_restarts_the_join(self):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        rid = _marker_join(driver, conn, snapshot)
        driver.deliver(conn, _payload_chunks(snapshot, 128)[0])
        driver.close(conn)
        driver.fire_timer("reconnect")
        conn2 = driver.connect(key="server")
        driver.deliver(conn2, HelloReply(server_id="s1"))
        (resume,) = [m for m in driver.sent_to(conn2)
                     if isinstance(m, TransferResume)]
        driver.clear()
        driver.deliver(conn2, ErrorReply(resume.request_id, "corona.stale", ""))
        joins = [m for m in driver.sent_to(conn2)
                 if isinstance(m, JoinGroupRequest)]
        assert len(joins) == 1
        assert joins[0].request_id == rid  # the original await completes


def _replies(driver):
    return {n.payload.request_id: n.payload
            for n in driver.notifications("reply")}


class TestClientJoinEndsOnce:
    """Every join ends exactly once, and a join never adopts a chunk of
    a stream this client abandoned (docs/protocol.md §3.5.2)."""

    def test_a_deleted_group_ends_a_streaming_join_at_once(self):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        rid = _marker_join(driver, conn, snapshot)
        driver.deliver(conn, _payload_chunks(snapshot, 128)[0])
        driver.clear()
        driver.deliver(conn, GroupDeletedNotice("g"))
        assert isinstance(_replies(driver)[rid].error, NoSuchGroupError)
        assert f"req-{rid}" in {t.key for t in driver.timers_cancelled()}
        assert not core._streams and not core._pending and not core._joins
        assert driver.notifications("group_deleted")

    @staticmethod
    def _rejoin_after_leaving(driver, conn, old, first_chunks):
        """Join with stream A, receive *first_chunks* of it, leave, and
        join again; returns the second join's request id."""
        _marker_join(driver, conn, old)
        for chunk in first_chunks:
            driver.deliver(conn, chunk)
        driver.deliver(conn, Ack(driver.invoke("leave_group", "g")))
        return _marker_join(driver, conn, _snapshot(payload_bytes=300))

    @pytest.mark.parametrize("received", [1, 0], ids=[
        "abandoned-after-its-first-chunk", "abandoned-before-its-first-chunk",
    ])
    def test_a_new_join_skips_the_tail_of_an_abandoned_stream(self, received):
        # The leave's Ack and the new marker ride the control lane, so
        # they can overtake stream A's chunks queued on the bulk lane.
        driver, core, conn = _client_driver()
        old, new = _snapshot(payload_bytes=500), _snapshot(payload_bytes=300)
        old_chunks = _payload_chunks(old, 128, transfer_id=7)
        rid = self._rejoin_after_leaving(
            driver, conn, old, old_chunks[:received]
        )
        for chunk in old_chunks[received:]:
            driver.deliver(conn, chunk)
        assert "g" not in core.views and rid in core._pending
        for chunk in _payload_chunks(new, 128, transfer_id=8):
            driver.deliver(conn, chunk)
        assert _replies(driver)[rid].ok
        assert core.views["g"].state.get("o").materialized() == b"\xab" * 300
        assert not core._streams and not core._unstarted

    def test_a_closed_connection_forgets_abandoned_streams(self):
        driver, core, conn = _client_driver()
        self._rejoin_after_leaving(driver, conn, _snapshot(500), ())
        assert core._unstarted == {"g": 1}
        driver.close(conn)
        assert not core._unstarted

    def test_two_streams_abandoned_before_their_first_chunks(self):
        driver, core, conn = _client_driver()
        old = _snapshot(payload_bytes=500)
        for _ in range(2):  # join, and leave before any chunk arrives
            _marker_join(driver, conn, old)
            driver.deliver(conn, Ack(driver.invoke("leave_group", "g")))
        assert core._unstarted == {"g": 2}
        new = _snapshot(payload_bytes=300)
        rid = _marker_join(driver, conn, new)
        for transfer_id in (7, 8, 9):
            for chunk in _payload_chunks(
                new if transfer_id == 9 else old, 128, transfer_id
            ):
                driver.deliver(conn, chunk)
        assert _replies(driver)[rid].ok
        assert core.views["g"].state.get("o").materialized() == b"\xab" * 300

    @pytest.mark.parametrize("chunked", [True, False], ids=["marker", "full"])
    def test_a_new_join_ends_a_stream_whose_leave_ack_came_late(self, chunked):
        # The leave timed out, so its Ack is ignored; the server taking
        # a new join shows that the membership ended all the same.
        driver, core, conn = _client_driver()
        old = _snapshot(payload_bytes=500)
        first = _marker_join(driver, conn, old)
        old_chunks = _payload_chunks(old, 128, transfer_id=7)
        driver.deliver(conn, old_chunks[0])
        leave = driver.invoke("leave_group", "g")
        driver.fire_timer(f"req-{leave}")
        driver.deliver(conn, Ack(leave))
        assert first in core._pending
        new = _snapshot(payload_bytes=300)
        if chunked:
            second = _marker_join(driver, conn, new)
            new_chunks = _payload_chunks(new, 128, transfer_id=8)
        else:
            second = driver.invoke("join_group", "g")
            driver.deliver(conn, JoinReply(second, new, ()))
            new_chunks = []
        assert isinstance(_replies(driver)[first].error, NotAMemberError)
        for chunk in old_chunks[1:] + new_chunks:
            driver.deliver(conn, chunk)
        assert _replies(driver)[second].ok
        assert core.views["g"].state.get("o").materialized() == b"\xab" * 300

    @pytest.mark.parametrize("flags", [0, SNAP_CHUNKED], ids=["full", "marker"])
    def test_a_join_reply_after_the_join_timed_out_is_ignored(self, flags):
        driver, core, conn = _client_driver()
        rid = driver.invoke("join_group", "g")
        driver.fire_timer(f"req-{rid}")
        assert isinstance(_replies(driver)[rid].error, RequestTimeoutError)
        driver.clear()
        snapshot = _snapshot(payload_bytes=500)
        if flags:
            snapshot = chunk_marker(snapshot)
        assert driver.deliver(conn, JoinReply(rid, snapshot, ())) == []
        assert "g" not in core.views and not core._streams

    def test_a_delivery_from_before_a_leave_is_not_replayed(self):
        # Deliveries ride the bulk lane, so the leave's Ack and the next
        # join's marker can overtake one; the new snapshot already has it.
        driver, core, conn = _client_driver()
        rid = driver.invoke("join_group", "g")
        driver.deliver(conn, JoinReply(rid, _snapshot(payload_bytes=300), ()))
        driver.deliver(conn, Ack(driver.invoke("leave_group", "g")))
        record = UpdateRecord(1, UpdateKind.UPDATE, "o", b"+", "other", 0.0)
        replica = StateSnapshot(
            "g", 1, (ObjectState("o", b"\xab" * 300 + b"+"),), (), 2
        )
        again = _marker_join(driver, conn, replica)
        driver.deliver(conn, Delivery("g", record))
        for chunk in _payload_chunks(replica, 128):
            driver.deliver(conn, chunk)
        assert _replies(driver)[again].ok
        view = core.views["g"]
        assert view.state.get("o").materialized() == b"\xab" * 300 + b"+"
        assert view.next_seqno == 2

    def test_pipelined_join_leave_join_completes_the_second_join(self):
        # The leave's Ack arrives after the second join went out: it ends
        # only a join whose stream had started, not the second one.
        driver, core, conn = _client_driver()
        first = _snapshot(payload_bytes=500)
        _marker_join(driver, conn, first)
        for chunk in _payload_chunks(first, 128, transfer_id=7):
            driver.deliver(conn, chunk)
        leave = driver.invoke("leave_group", "g")
        second = driver.invoke(
            "join_group", "g", MemberRole.PRINCIPAL,
            TransferSpec(chunked=True), False,
        )
        driver.deliver(conn, Ack(leave))
        assert second in core._pending and "g" not in core.views
        replica = _snapshot(payload_bytes=300)
        driver.deliver(conn, JoinReply(second, chunk_marker(replica), ()))
        for chunk in _payload_chunks(replica, 128, transfer_id=8):
            driver.deliver(conn, chunk)
        assert _replies(driver)[second].ok
        assert core.views["g"].state.get("o").materialized() == b"\xab" * 300


class TestClientRestartsAJoin:
    def _reconnect(self, driver):
        driver.fire_timer("reconnect")
        conn = driver.connect(key="server")
        driver.clear()
        driver.deliver(conn, HelloReply(server_id="s1"))
        return conn

    def test_a_refused_resume_restarts_only_its_own_join(self):
        driver, core, conn = _client_driver()
        rids = {}
        for group, transfer_id in (("g", 7), ("h", 8)):
            snapshot = StateSnapshot(
                group, 0, (ObjectState("o", bytes(500)),), (), 1
            )
            rids[group] = driver.invoke(
                "join_group", group, MemberRole.PRINCIPAL,
                TransferSpec(chunked=True), False,
            )
            driver.deliver(conn, JoinReply(
                rids[group], chunk_marker(snapshot), ()
            ))
            payload = frames.payload_of(snapshot)
            driver.deliver(conn, StateChunk(
                group, transfer_id, 0, payload[:128], len(payload), False
            ))
        driver.close(conn)
        conn2 = self._reconnect(driver)
        resumes = {m.group: m for m in driver.sent_to(conn2)}
        assert set(resumes) == {"g", "h"}
        driver.clear()
        driver.deliver(conn2, ErrorReply(
            resumes["h"].request_id, "corona.stale_state", ""
        ))
        (join,) = driver.sent_to(conn2)
        assert isinstance(join, JoinGroupRequest) and join.group == "h"
        assert join.request_id == rids["h"]
        assert core._streams["g"].resume_request_id == resumes["g"].request_id
        assert "h" not in core._streams

    def test_a_stream_with_no_chunk_yet_restarts_on_reconnect(self):
        driver, core, conn = _client_driver()
        rid = _marker_join(driver, conn, _snapshot(payload_bytes=500))
        driver.close(conn)
        conn2 = self._reconnect(driver)
        (join,) = driver.sent_to(conn2)
        assert isinstance(join, JoinGroupRequest) and join.request_id == rid
        assert join.transfer.chunked and not core._streams

    @pytest.mark.parametrize("late", ["marker", "error"])
    def test_a_stalled_resume_restarts_the_join_once(self, late):
        driver, core, conn = _client_driver()
        snapshot = _snapshot(payload_bytes=500)
        rid = _marker_join(driver, conn, snapshot)
        chunks = _payload_chunks(snapshot, 128, transfer_id=7)
        driver.deliver(conn, chunks[0])
        driver.close(conn)
        conn2 = self._reconnect(driver)
        (resume,) = driver.sent_to(conn2)
        driver.clear()
        driver.fire_timer(f"req-{resume.request_id}")
        (join,) = driver.sent_to(conn2)
        assert isinstance(join, JoinGroupRequest) and join.request_id == rid
        driver.clear()
        # the server answers the resume before it sees the restart
        driver.deliver(conn2, JoinReply(
            resume.request_id, chunk_marker(snapshot), ()
        ) if late == "marker" else ErrorReply(
            resume.request_id, "corona.stale_state", ""
        ))
        assert resume.request_id not in core._pending
        assert not any(isinstance(m, JoinGroupRequest)
                       for m in driver.sent_to(conn2))
        driver.deliver(conn2, JoinReply(rid, chunk_marker(snapshot), ()))
        for chunk in chunks[1:] + _payload_chunks(snapshot, 128, transfer_id=8):
            driver.deliver(conn2, chunk)
        assert _replies(driver)[rid].ok
        assert core.views["g"].state.get("o").materialized() == b"\xab" * 500
        assert not core._pending and not core._unstarted

    def test_a_stream_that_is_not_a_snapshot_is_a_protocol_error(self):
        driver, core, conn = _client_driver()
        _marker_join(driver, conn, _snapshot(payload_bytes=500))
        payload = frames.payload_of(Ack(1))
        with pytest.raises(ProtocolError):
            core.on_message(conn, StateChunk(
                "g", 7, 0, payload, len(payload), True
            ))


# --------------------------------------------------------------------------
# the byte-identity property
# --------------------------------------------------------------------------

class _Loop:
    """Message relay between one ServerCore and one ClientCore, with a
    seeder connection for concurrent updates and a cuttable link."""

    def __init__(self, transfer_config: TransferConfig):
        self.clock = ManualClock()
        self.server = ServerCore(
            ServerConfig(server_id="s1", transfer=transfer_config), self.clock
        )
        self.client = ClientCore(
            ClientConfig(
                "joiner", auto_reconnect=True, reconnect_backoff=1.0,
                request_timeout=1e9,
            ),
            self.clock,
        )
        self._conns = itertools.count(100)
        self.s_conn = None
        self.c_conn = None
        self.to_server: list = []
        self.to_client: list = []
        self.chunks_seen = 0
        self.seeder_conn = next(self._conns)
        self._collect_server(
            self.server.on_connected(self.seeder_conn, peer="seed", key="")
        )
        self._collect_server(
            self.server.on_message(self.seeder_conn, Hello(client_id="seeder"))
        )
        self.client.connect(("host", 1))
        self.client.drain()
        self._dial()

    # -- wiring ------------------------------------------------------------

    def _dial(self):
        self.s_conn = next(self._conns)
        self.c_conn = next(self._conns)
        self._collect_server(
            self.server.on_connected(self.s_conn, peer="c", key="")
        )
        self._collect_client(
            self.client.on_connected(self.c_conn, peer="s", key="server")
        )

    def _collect_server(self, effects):
        for effect in effects:
            if isinstance(effect, CloseConnection) and effect.conn == self.s_conn:
                self.cut()
            else:
                self.to_client.extend(
                    m for to, m in sends_in([effect]) if to == self.s_conn
                )

    def _collect_client(self, effects):
        for effect in effects:
            if isinstance(effect, SendMessage):
                self.to_server.append(effect.message)

    def cut(self):
        """Drop the link and every in-flight message on it."""
        s_conn, c_conn = self.s_conn, self.c_conn
        self.s_conn = self.c_conn = None
        self.to_server.clear()
        self.to_client.clear()
        self._collect_server(self.server.on_closed(s_conn))
        self._collect_client(self.client.on_closed(c_conn))

    def reconnect(self):
        self._dial()
        # redeliver the reconnect handshake: Hello went to_server on dial
        self.run()

    def seed(self, message):
        """A request from the seeder client (its replies are discarded,
        but fan-out effects to the joiner's connection still flow)."""
        self._collect_server(self.server.on_message(self.seeder_conn, message))

    # -- pumping -----------------------------------------------------------

    def step(self) -> bool:
        """Deliver one queued message; False when both queues are idle."""
        if self.to_server and self.s_conn is not None:
            message = self.to_server.pop(0)
            self.clock.advance(0.05)
            self._collect_server(self.server.on_message(self.s_conn, message))
            return True
        if self.to_client and self.c_conn is not None:
            message = self.to_client.pop(0)
            self.clock.advance(0.05)
            if isinstance(message, StateChunk):
                self.chunks_seen += 1
            self._collect_client(self.client.on_message(self.c_conn, message))
            return True
        return False

    def run(self):
        while self.step():
            pass


_CONFIGS = st.builds(
    lambda floor, initial_extra, ceiling_extra, inflight, gain: TransferConfig(
        chunk_threshold_bytes=100,
        chunk_floor_bytes=floor,
        initial_chunk_bytes=floor + initial_extra,
        chunk_ceiling_bytes=floor + initial_extra + ceiling_extra,
        inflight_chunks=inflight,
        target_chunk_seconds=0.25,
        bandwidth_gain=gain,
        resume_ttl=1e9,
    ),
    floor=st.integers(8, 64),
    initial_extra=st.integers(0, 128),
    ceiling_extra=st.integers(0, 400),
    inflight=st.integers(1, 4),
    gain=st.floats(0.1, 1.0),
)


@settings(max_examples=30, deadline=None)
@given(
    config=_CONFIGS,
    objects=st.lists(st.integers(50, 400), min_size=1, max_size=3),
    # (after how many delivered chunks, which object, payload byte)
    updates=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 2), st.integers(0, 255)),
        max_size=4,
    ),
    disconnect_after=st.one_of(st.none(), st.integers(1, 12)),
)
def test_chunked_join_byte_identical_to_monolithic(
    config, objects, updates, disconnect_after
):
    """For arbitrary chunk sizes, concurrent-update interleavings and
    disconnect points, a chunked join converges to the same bytes a
    monolithic FULL join of the final state sees."""
    loop = _Loop(config)
    initial = tuple(
        ObjectState(f"o{i}", bytes([i % 251]) * size)
        for i, size in enumerate(objects)
    )
    loop.seed(CreateGroupRequest(1, "g", False, initial))
    loop.seed(JoinGroupRequest(
        2, "g", MemberRole.PRINCIPAL,
        TransferSpec(policy=TransferPolicy.NONE), False,
    ))
    loop.run()

    join_rid = loop.client.join_group(
        "g", MemberRole.PRINCIPAL, TransferSpec(chunked=True), False
    )
    loop._collect_client(loop.client.drain())

    pending = sorted(updates, key=lambda u: u[0])
    rid = itertools.count(50)
    cut_done = disconnect_after is None
    while True:
        progressed = loop.step()
        while pending and pending[0][0] <= loop.chunks_seen:
            _at, obj, byte = pending.pop(0)
            loop.seed(BcastUpdateRequest(
                next(rid), "g", f"o{obj % len(objects)}", bytes([byte])
            ))
            progressed = True
        if not cut_done and loop.chunks_seen >= disconnect_after:
            cut_done = True
            loop.cut()
            loop.reconnect()
            progressed = True
        if not progressed:
            if pending:
                # stream ended before the trigger point: flush the rest
                for _at, obj, byte in pending:
                    loop.seed(BcastUpdateRequest(
                        next(rid), "g", f"o{obj % len(objects)}", bytes([byte])
                    ))
                pending = []
                loop.run()
                continue
            if not cut_done:
                cut_done = True
                loop.cut()
                loop.reconnect()
                continue
            break

    assert join_rid not in loop.client._pending
    view = loop.client.views["g"]

    # the reference: a monolithic FULL join of the final state
    reference = ClientCore(ClientConfig("ref"), loop.clock)
    ref_conn = next(loop._conns)
    reference.connect(("host", 1))
    reference.drain()
    to_ref_server = []
    for effect in reference.on_connected(ref_conn, peer="s", key="server"):
        if isinstance(effect, SendMessage):
            to_ref_server.append(effect.message)
    srv_conn = next(loop._conns)
    loop.server.on_connected(srv_conn, peer="ref", key="")
    while to_ref_server:
        for effect in loop.server.on_message(srv_conn, to_ref_server.pop(0)):
            if isinstance(effect, SendMessage) and effect.conn == srv_conn:
                reference.on_message(ref_conn, effect.message)
                for eff in reference.drain():
                    if isinstance(eff, SendMessage):
                        to_ref_server.append(eff.message)
    reference.join_group("g", MemberRole.PRINCIPAL, TransferSpec(), False)
    for effect in reference.drain():
        if isinstance(effect, SendMessage):
            for back in loop.server.on_message(srv_conn, effect.message):
                if isinstance(back, SendMessage) and back.conn == srv_conn:
                    reference.on_message(ref_conn, back.message)
                    reference.drain()
    ref_view = reference.views["g"]

    assert sorted(view.state.object_ids()) == sorted(ref_view.state.object_ids())
    for object_id in ref_view.state.object_ids():
        assert (view.state.get(object_id).materialized()
                == ref_view.state.get(object_id).materialized()), object_id
    assert view.next_seqno == ref_view.next_seqno


# --------------------------------------------------------------------------
# slow links keep the plan they had before slow start
# --------------------------------------------------------------------------

def _interval_only_plan(total, cfg, gaps):
    """Reference: the chunk plan of the planner before slow start existed
    (one sample per ``target_chunk_seconds``, nothing else), acking one
    chunk per entry of *gaps* in send order."""
    plan, unacked = [], []
    sent = acked = pending = 0
    chunk, bandwidth, now, sampled_at = cfg.initial_chunk_bytes, 0.0, 0.0, 0.0

    def send():
        nonlocal sent
        while sent < total and sent - acked < cfg.inflight_chunks * chunk:
            size = min(chunk, total - sent)
            plan.append((sent, size))
            unacked.append(sent + size)
            sent += size

    send()
    for gap in gaps:
        if not unacked:
            break
        now += gap
        offset = unacked.pop(0)
        pending += offset - acked
        acked = offset
        elapsed = now - sampled_at
        if elapsed >= cfg.target_chunk_seconds:
            sample = pending / elapsed
            bandwidth = (sample if bandwidth <= 0.0
                         else bandwidth + cfg.bandwidth_gain * (sample - bandwidth))
            chunk = max(cfg.chunk_floor_bytes, min(
                cfg.chunk_ceiling_bytes, int(bandwidth * cfg.target_chunk_seconds)
            ))
            pending, sampled_at = 0, now
        send()
    return plan


class TestSlowLinksKeepTheirPlan:
    """Where the first ack takes a full interval, slow start never fires
    and the plan is the old planner's, chunk for chunk — whatever the
    acks do afterwards."""

    @settings(max_examples=100, deadline=None)
    @given(
        config=_CONFIGS,
        first_gap=st.floats(0.25, 5.0),
        later_gaps=st.lists(st.floats(0.0, 1.0), max_size=120),
    )
    def test_plan_equals_the_interval_only_planner(
        self, config, first_gap, later_gaps
    ):
        gaps = [first_gap, *later_gaps]
        transfer = OutgoingTransfer(
            group="g", client="c", transfer_id=1, snapshot=_snapshot(3000),
            config=config, now=0.0,
        )
        plan, now = [], 0.0
        pending = transfer.next_chunks()
        for gap in gaps:
            if not pending:
                break
            chunk = pending.pop(0)
            plan.append((chunk.offset, len(chunk.data)))
            now += gap
            pending += transfer.on_ack(chunk.offset + len(chunk.data), now)
        plan += [(c.offset, len(c.data)) for c in pending]
        expected = _interval_only_plan(transfer.total_bytes, config, gaps)
        assert plan == expected


# --------------------------------------------------------------------------
# any warm seed keeps the stream correct and windowed
# --------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    config=_CONFIGS,
    seed=st.one_of(st.just(0.0), st.floats(1e-3, 1e9)),
    payload_bytes=st.integers(100, 4000),
    gaps=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=40),
)
def test_any_seed_bandwidth_reassembles_the_full_snapshot(
    config, seed, payload_bytes, gaps
):
    """Whatever bandwidth a transfer is seeded with, its chunks
    reassemble into the FULL snapshot's exact bytes, no chunk leaves
    while ``inflight_chunks * chunk_bytes`` bytes are unacked, and the
    seeded first flight itself never exceeds that window.  (A later
    flight can end past the window when the chunk just grew: the rule
    is about starting a chunk, as it always was.)"""
    snapshot = _snapshot(payload_bytes)
    transfer = OutgoingTransfer(
        group="g", client="c", transfer_id=1, snapshot=snapshot,
        config=config, now=0.0, bandwidth=seed,
    )

    def flight(chunks):
        window = config.inflight_chunks * transfer.chunk_bytes
        for chunk in chunks:
            assert chunk.offset - transfer.acked_offset < window
        return chunks

    in_flight = flight(transfer.next_chunks())
    assert transfer.sent_offset <= config.inflight_chunks * transfer.chunk_bytes
    received, now, pauses = bytearray(), 0.0, itertools.cycle(gaps)
    while in_flight:
        chunk = in_flight.pop(0)
        assert chunk.offset == len(received)
        received += chunk.data
        now += next(pauses)
        in_flight += flight(transfer.on_ack(len(received), now))
    assert transfer.done
    assert bytes(received) == frames.payload_of(snapshot)


# --------------------------------------------------------------------------
# the simulator: one link per client host
# --------------------------------------------------------------------------

def _first_chunk_bytes(client):
    """Bytes of the first chunk of *client*'s latest chunked join."""
    progress = client.events_of_kind(NOTIFY_TRANSFER_PROGRESS)
    return progress[-1].received_bytes if progress else None


@pytest.mark.parametrize("sharded", [False, True], ids=["flat", "sharded"])
def test_sim_lan_client_warms_up_a_modem_client_stays_cold(sharded):
    world = CoronaWorld()
    if sharded:
        server = world.add_sharded_server(shards=2)
        cores = [worker.core for worker in server.host.workers]
    else:
        server = world.add_server()
        cores = [server.core]
    world.add_segment("modem", MODEM_28_8)
    seeder = world.add_client(host_id="seeder")
    world.run()
    seeder.call("create_group", "g", True, (ObjectState("o", bytes(70_000)),))
    world.run()
    lan = world.add_client(host_id="lan")
    modem = world.add_client(
        host_id="modem", segment="modem", request_timeout=600.0
    )
    world.run()

    def join(client):
        seen = len(client.events_of_kind(NOTIFY_TRANSFER_PROGRESS))
        call = client.call("join_group", "g", transfer=TransferSpec(chunked=True))
        world.run()
        assert call.ok, call.error
        return client.events_of_kind(NOTIFY_TRANSFER_PROGRESS)[seen].received_bytes

    cold = DEFAULT_TRANSFER.initial_chunk_bytes
    assert join(lan) == cold
    lan.call("leave_group", "g")
    world.run()
    assert join(lan) > cold  # the same host again: warm
    assert join(modem) == cold  # a host of its own: cold
    for client in (seeder, lan, modem):
        client.host.crash()
    world.run()
    for core in cores:
        assert core._links == {} and core._conn_addr == {}
    if sharded:
        assert server.host.sessions._conn_addr == {}


def test_sim_replicated_server_warms_up_and_forgets_closed_hosts():
    world = CoronaWorld()
    cluster = world.add_replicated_cluster(
        2, heartbeat_interval=0.5, suspicion_timeout=1.0
    )
    world.run_for(1.0)
    core = cluster[1].core
    seeder = world.add_client(host_id="seeder", server="srv-1")
    lan = world.add_client(host_id="lan", server="srv-1")
    world.run_for(0.5)
    seeder.call("create_group", "g", True, (ObjectState("o", bytes(70_000)),))
    world.run_for(0.5)

    def join():
        seen = len(lan.events_of_kind(NOTIFY_TRANSFER_PROGRESS))
        call = lan.call("join_group", "g", transfer=TransferSpec(chunked=True))
        world.run_for(1.0)
        assert call.ok, call.error
        return lan.events_of_kind(NOTIFY_TRANSFER_PROGRESS)[seen].received_bytes

    cold = DEFAULT_TRANSFER.initial_chunk_bytes
    assert join() == cold
    lan.call("leave_group", "g")
    world.run_for(0.5)
    assert join() > cold  # the same host again: warm
    for client in (seeder, lan):
        client.host.crash()
    world.run_for(1.0)
    # only the peer server's link stays: its connection is still open
    assert set(core._links) == {core._host_of(c) for c in core._conn_addr}
    assert not {"seeder", "lan"} & set(core._links)
    cluster[0].host.crash()
    world.run_for(2.0)
    assert core._links == {} and core._conn_addr == {}
