"""Wire codec microbenchmark: compiled fast path vs reference interpreter.

The acceptance bar for the encode-once PR: the compiled per-class
encoder/decoder pair must be at least 2x the reference interpreter
(the seed codec's field-walking loop, kept as the executable spec) on a
representative message corpus, and fanning a broadcast out through the
frame cache must beat per-receiver serialization.

Emits ``BENCH_wire_codec.json`` (see :mod:`repro.bench.results`).
"""

import time

from repro.bench.report import format_table
from repro.bench.results import save_results
from repro.wire import codec, frames
from repro.wire.messages import (
    Ack,
    Delivery,
    ObjectState,
    StateSnapshot,
    UpdateKind,
    UpdateRecord,
)

#: Representative traffic: the hot broadcast message (1000 B payload, the
#: paper's figure 3 size), the tiny ack, and a bulky join-time snapshot.
_RECORD = UpdateRecord(
    seqno=42, kind=UpdateKind.UPDATE, object_id="object-7",
    data=b"\xab" * 1000, sender="client-3", timestamp=12.5,
)
CORPUS = (
    Delivery(group="room", update=_RECORD),
    Ack(7),
    StateSnapshot(
        group="room",
        base_seqno=100,
        objects=tuple(ObjectState(f"obj-{i}", bytes([i]) * 64) for i in range(20)),
        updates=tuple(
            UpdateRecord(100 + i, UpdateKind.UPDATE, f"obj-{i}", b"u" * 48,
                         "client-1", float(i))
            for i in range(5)
        ),
        next_seqno=105,
    ),
)

ITERATIONS = 3000
FANOUT = 64


def _best_of(fn, repeats: int = 3) -> float:
    """min-of-N wall time for one call of ``fn`` (standard timeit hygiene)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def wire_codec_results() -> dict:
    blobs = [codec.reference_encode(m) for m in CORPUS]

    def encode_reference():
        for _ in range(ITERATIONS):
            for m in CORPUS:
                codec.reference_encode(m)

    def encode_compiled():
        for _ in range(ITERATIONS):
            for m in CORPUS:
                codec.encode(m)

    def decode_reference():
        for _ in range(ITERATIONS):
            for b in blobs:
                codec.reference_decode(b)

    def decode_compiled():
        for _ in range(ITERATIONS):
            for b in blobs:
                codec.decode(b)

    # fan-out: one fresh broadcast per round, FANOUT receivers each.
    sink = bytearray()

    def fanout_per_receiver():
        for _ in range(ITERATIONS // 10):
            msg = Delivery(group="room", update=_RECORD)
            for _ in range(FANOUT):
                sink[:] = codec.reference_encode(msg)  # seed: encode per send

    def fanout_cached_frame():
        for _ in range(ITERATIONS // 10):
            msg = Delivery(group="room", update=_RECORD)
            frame = frames.encoded_frame(msg)
            for _ in range(FANOUT):
                sink[:] = frame

    enc_ref = _best_of(encode_reference)
    enc_new = _best_of(encode_compiled)
    dec_ref = _best_of(decode_reference)
    dec_new = _best_of(decode_compiled)
    fan_ref = _best_of(fanout_per_receiver)
    fan_new = _best_of(fanout_cached_frame)

    return {
        "iterations": ITERATIONS,
        "corpus": [type(m).__name__ for m in CORPUS],
        "fanout": FANOUT,
        "encode": {"reference_s": enc_ref, "compiled_s": enc_new,
                   "speedup": enc_ref / enc_new},
        "decode": {"reference_s": dec_ref, "compiled_s": dec_new,
                   "speedup": dec_ref / dec_new},
        "fanout_64": {"per_receiver_s": fan_ref, "cached_frame_s": fan_new,
                      "speedup": fan_ref / fan_new},
    }


def test_wire_codec(benchmark, paper_report):
    results = benchmark.pedantic(wire_codec_results, rounds=1, iterations=1)

    enc = results["encode"]["speedup"]
    dec = results["decode"]["speedup"]
    fan = results["fanout_64"]["speedup"]
    assert enc >= 2.0, f"compiled encode only {enc:.2f}x the reference codec"
    assert dec >= 2.0, f"compiled decode only {dec:.2f}x the reference codec"
    assert fan >= 2.0, f"cached-frame fan-out only {fan:.2f}x per-receiver encode"

    save_results("wire_codec", results)
    paper_report(format_table(
        "Wire codec — compiled fast path vs reference interpreter",
        ["stage", "reference (s)", "compiled (s)", "speedup"],
        [
            ["encode", results["encode"]["reference_s"],
             results["encode"]["compiled_s"], f"{enc:.2f}x"],
            ["decode", results["decode"]["reference_s"],
             results["decode"]["compiled_s"], f"{dec:.2f}x"],
            [f"fan-out x{FANOUT}", results["fanout_64"]["per_receiver_s"],
             results["fanout_64"]["cached_frame_s"], f"{fan:.2f}x"],
        ],
        note=(
            f"corpus: {', '.join(results['corpus'])}; {ITERATIONS} passes,\n"
            "best of 3. Fan-out compares per-receiver serialization (seed\n"
            "behaviour) against one cached frame reused for every receiver."
        ),
    ))
