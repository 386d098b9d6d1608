"""What a run does: plan the rounds, run them, boil them down.

``run.py`` is the command line around this module.  A run is three
set-ups, a warm-up, a paced phase and a saturated phase of short rounds,
and the correctness gate (``loadgen.Session`` does the work); what is
here decides how many rounds, and how a round's readings become the
metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

from statistics import median

import hoststat
from loadgen import (
    FLUSH_IDLE_S,
    JOINS_PER_ROUND,
    OUT_DIR,
    ROUND_S,
    Session,
    percentile,
)
from tracer import LAYER_OF
from workloads import Traffic, Workload

__all__ = [
    "E2E_METRICS",
    "TRACE_METRICS",
    "Plan",
    "run_end_to_end",
    "run_traced",
]

#: (name, unit, better) of every end-to-end metric, in report order.
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("bcast_ops_s", "ops/s", "higher"),
    ("bcast_rtt_p50_us", "us", "lower"),
    ("bcast_rtt_p95_us", "us", "lower"),
    ("fanout_lag_p50_us", "us", "lower"),
    ("srv_cpu_us_per_op", "us", "lower"),
    ("srv_bytes_out_per_op", "B", "lower"),
    ("srv_rss_peak_mb", "MiB", "lower"),
    ("join_full_ms_p50", "ms", "lower"),
    ("join_chunked_ms_p50", "ms", "lower"),
)

#: (name, unit, better) of the traced-run metrics; the micro-benchmark
#: ones are ``micro.METRICS``.
TRACE_METRICS = (
    ("trace.read_decode_us_per_op", "us", "lower"),
    ("trace.front_us_per_op", "us", "lower"),
    ("trace.hop_wait_us_p50", "us", "lower"),
    ("trace.core_us_per_op", "us", "lower"),
    ("trace.interp_us_per_op", "us", "lower"),
    ("trace.wal_us_per_op", "us", "lower"),
    ("trace.outbox_push_us_per_op", "us", "lower"),
    ("trace.outbox_dwell_us_p50", "us", "lower"),
    ("trace.encode_us_per_op", "us", "lower"),
    ("trace.sock_write_us_per_op", "us", "lower"),
    ("trace.unattributed_us_per_op", "us", "lower"),
    ("trace.srv_cpu_us_per_op", "us", "lower"),
    ("trace.encodes_per_op", "count", "lower"),
    ("trace.writes_per_op", "count", "lower"),
    ("trace.frames_per_write", "count", "higher"),
    ("trace.frames_per_write_sat", "count", "higher"),
    ("trace.wal_appends_per_op", "count", "lower"),
    ("trace.fsyncs_per_s", "1/s", "lower"),
    ("trace.outbox_peak_depth", "count", "lower"),
    ("trace.overhead_pct", "pct", "lower"),
    ("storage.recover_s_run", "s", "lower"),
)

#: Span layers, in the order a request passes through them.
_TRACE_LAYERS = (
    "read_decode", "front", "core", "interp", "wal", "outbox_push",
    "encode", "sock_write",
)

#: The whole set-up is repeated this often and ``setup_s`` is the median.
SETUPS = 3
WARMUP_S = 1.0
#: Share of ``--seconds`` spent in the paced phase; the saturated phase
#: has as many rounds, each sized to about 0.35 s.
PACED_SHARE = 0.55
#: Every third paced round carries the joiners, the others none: a 256 KiB
#: join holds the loop for a millisecond or more, and with four joins in
#: every round about one broadcast in twenty queued behind one -- exactly
#: at the 95th percentile, which then read 40 % higher and measured the
#: joins in one run and the broadcasts in the next.
JOIN_ROUND_EVERY = 3
#: The traced run: this many paced rounds untraced, as many traced, then
#: a few half-size saturated rounds.
TRACE_PACED_ROUNDS = 6
TRACE_SAT_ROUNDS = 3


class Plan:
    """How many rounds of what a run of ``--seconds`` makes."""

    def __init__(self, seconds: int, smoke: bool) -> None:
        self.round_s = ROUND_S
        if smoke:
            self.setups, self.warmup_s = 1, 0.3
            self.paced_rounds, self.sat_rounds = 3, 2
            return
        self.setups, self.warmup_s = SETUPS, WARMUP_S
        self.paced_rounds = max(3, round(PACED_SHARE * seconds / ROUND_S))
        self.sat_rounds = self.paced_rounds


def _nominal(result) -> float:
    """A round's slow-down against nominal host speed."""
    return result.speed


def _as_read(result) -> float:
    return 1.0


def _median(rounds: list, value, speed=_nominal) -> float:
    """Median over *rounds* of the time ``value(round)`` brought to
    nominal host speed: divided by the round's slow-down."""
    return median([value(r) / speed(r) for r in rounds])


def _pooled(rounds: list, samples, q: float, speed=_nominal) -> float:
    """Percentile *q* of every round's ``samples(round)`` pooled, each
    sample first brought to nominal host speed."""
    return percentile([x / speed(r) for r in rounds for x in samples(r)], q)


def _timings(paced: list, joined: list, sat: list, speed) -> dict:
    """The metrics that are times or rates, every round's readings
    divided by ``speed(round)``."""
    return {
        # per second of *server* CPU: the generator shares the CPU
        "bcast_ops_s": median([r.acked / r.srv_cpu_s * speed(r) for r in sat]),
        "bcast_rtt_p50_us": 1e6 * _median(paced, lambda r: percentile(r.rtts, 0.50), speed),
        "bcast_rtt_p95_us": 1e6 * _median(paced, lambda r: percentile(r.rtts, 0.95), speed),
        # pooled: on the rooms the probe sees 1 op in 32, 8 a round
        "fanout_lag_p50_us": 1e6 * _pooled(paced, lambda r: r.lags, 0.50, speed),
        "srv_cpu_us_per_op": 1e6 * _median(paced, lambda r: r.srv_cpu_s / r.acked, speed),
        "join_full_ms_p50": 1e3 * _pooled(joined, lambda r: r.joins_full, 0.50, speed),
        "join_chunked_ms_p50": 1e3 * _pooled(joined, lambda r: r.joins_chunked, 0.50, speed),
    }


async def _open_session(workload: Workload, traffic: Traffic, setups: int,
                        trace: bool = False):
    """Set up *setups* times; keeps the last session.  Returns it with
    every set-up's time at nominal host speed, and as the clock read it."""
    times, raw = [], []
    for attempt in range(setups):
        session = Session(workload, traffic, tag=str(attempt), trace=trace)
        try:
            await session.open()
        except BaseException:
            await session.close(orderly=False)
            raise
        speed = median(session.setup_calib) / hoststat.CALIBRATION_NOMINAL_MS
        idle = FLUSH_IDLE_S if workload.durable else 0.0  # sleeping is not work
        times.append((session.setup_s - idle) / speed + idle)
        raw.append(session.setup_s)
        if attempt < setups - 1:
            await session.close(orderly=False)
    return session, times, raw


def _diagnostics(paced: list, joined: list, sat: list) -> dict:
    """What is printed beside the metrics and never gated: how the host
    and the generator behaved."""
    rounds = paced + joined + sat
    lates = [x for r in paced for x in r.lates]
    return {
        "host.speed_index": (median([r.speed for r in rounds]), "x"),
        "host.steal_pct": (100.0 * median([r.steal_share for r in rounds]), "pct"),
        "run.rounds": (float(len(rounds)), "count"),
        "loadgen.cpu_pct": (
            100.0 * median([r.gen_cpu_s / r.elapsed for r in rounds]), "pct"),
        "loadgen.late_p95_us": (1e6 * percentile(lates, 0.95), "us"),
        "run.srv_cpu_util_sat_pct": (
            100.0 * median([r.srv_cpu_s / r.elapsed for r in sat]), "pct"),
        "run.bcast_ops_wall_s": (
            median([r.acked / r.elapsed * r.speed for r in sat]), "ops/s"),
        "run.cpu_us_per_op_sat": (
            1e6 * _median(sat, lambda r: r.srv_cpu_s / r.acked), "us"),
        "run.rtt_p99_us": (
            1e6 * _median(paced, lambda r: percentile(r.rtts, 0.99)), "us"),
        "run.fanout_lag_p95_us": (1e6 * _pooled(paced, lambda r: r.lags, 0.95), "us"),
        # what a 256 KiB join does to the broadcasts around it
        "run.rtt_p95_join_rounds_us": (
            1e6 * _median(joined, lambda r: percentile(r.rtts, 0.95)), "us"),
    }


async def run_end_to_end(workload: Workload, seed: int, plan: Plan,
                         corrupt_fold: bool = False):
    """One untraced run; returns (metrics, diagnostics, attempted, failed)."""
    traffic = Traffic(workload.traffic, seed)
    session, setup_times, setup_raw = await _open_session(workload, traffic, plan.setups)
    try:
        await session.paced_round(plan.warmup_s, joins=2)
        paced, joined = [], []
        for i in range(plan.paced_rounds):
            if i % JOIN_ROUND_EVERY == JOIN_ROUND_EVERY - 1:
                joined.append(await session.paced_round(plan.round_s, JOINS_PER_ROUND))
            else:
                paced.append(await session.paced_round(plan.round_s))
        sat = [await session.sat_round() for _ in range(plan.sat_rounds)]
        expected = None
        if corrupt_fold:
            expected = {"obj-0": b"not what the server holds"}
        await session.verify(expected_fold=expected)
        metrics = {
            "setup_s": median(setup_times),
            **_timings(paced, joined, sat, _nominal),
            # counts, not timings: as measured
            "srv_bytes_out_per_op":
                sum(r.bytes_in for r in paced) / sum(r.acked for r in paced),
            "srv_rss_peak_mb": hoststat.rss_peak_mib(session.server.pid),
        }
        diagnostics = _diagnostics(paced, joined, sat)
        # every scaled metric as the clock read it
        units = {name: unit for name, unit, _better in E2E_METRICS}
        diagnostics["raw.setup_s"] = (median(setup_raw), "s")
        for name, value in _timings(paced, joined, sat, _as_read).items():
            diagnostics[f"raw.{name}"] = (value, units[name])
        if workload.durable:
            diagnostics["storage.recover_s_run"] = (session.recover_s, "s")
            diagnostics["host.store_fs"] = (hoststat.fs_type(session.store_dir), "")
        return metrics, diagnostics, session.attempted, session.failed
    finally:
        await session.close(orderly=True)


async def run_traced(workload: Workload, seed: int, plan: Plan):
    """A shortened run that switches span tracing on half-way.

    The first paced rounds run the untouched server and give the
    untraced CPU per op; then the wrappers are installed and the same
    traffic continues, so ``trace.overhead_pct`` compares like with like.
    """
    traffic = Traffic(workload.traffic, seed)
    session, _, _ = await _open_session(workload, traffic, setups=1, trace=True)
    try:
        await session.paced_round(plan.warmup_s)
        plain = [await session.paced_round(plan.round_s)
                 for _ in range(TRACE_PACED_ROUNDS)]
        session.trace_start()
        traced = [await session.paced_round(plan.round_s)
                  for _ in range(TRACE_PACED_ROUNDS)]
        paced_cut = session.trace_cut("paced")
        sat = [await session.sat_round(workload.sat_round_ops // 2)
               for _ in range(TRACE_SAT_ROUNDS)]
        sat_cut = session.trace_cut("sat")
        await session.verify()
        attempted, failed = session.attempted, session.failed
        recover_s = session.recover_s if workload.durable else session.server.start_s
    finally:
        await session.close(orderly=True)

    # spans were summed over every traced round, so is everything they
    # are compared with; the host speed is the traced rounds' median
    ops = sum(r.acked for r in traced)
    speed = median([r.speed for r in traced])
    layer_us = dict.fromkeys(_TRACE_LAYERS, 0.0)
    for name, (_count, self_ns) in paced_cut["names"].items():
        layer = LAYER_OF.get(name)
        if layer is not None:
            layer_us[layer] += self_ns / 1e3 / ops / speed

    def count(cut: dict, counter: str) -> int:
        return cut["names"].get(counter, [0, 0])[0]

    cpu_traced = 1e6 * sum(r.srv_cpu_s for r in traced) / ops / speed
    cpu_plain = (
        1e6 * sum(r.srv_cpu_s for r in plain) / sum(r.acked for r in plain)
        / median([r.speed for r in plain])
    )
    metrics = {f"trace.{layer}_us_per_op": us for layer, us in layer_us.items()}
    metrics.update({
        "trace.hop_wait_us_p50": paced_cut["hop_wait_us_p50"] / speed,
        "trace.outbox_dwell_us_p50": paced_cut["outbox_dwell_us_p50"] / speed,
        "trace.unattributed_us_per_op": cpu_traced - sum(layer_us.values()),
        "trace.srv_cpu_us_per_op": cpu_traced,
        "trace.encodes_per_op": count(paced_cut, "#encodes") / ops,
        "trace.writes_per_op": count(paced_cut, "#writes") / ops,
        "trace.frames_per_write":
            count(paced_cut, "#frames") / max(1, count(paced_cut, "#writes")),
        "trace.frames_per_write_sat":
            count(sat_cut, "#frames") / max(1, count(sat_cut, "#writes")),
        "trace.wal_appends_per_op": count(paced_cut, "#wal_records") / ops,
        "trace.fsyncs_per_s":
            count(paced_cut, "#sync_points") / paced_cut["elapsed_s"],
        "trace.outbox_peak_depth": float(max(
            paced_cut["outbox_peak_depth"], sat_cut["outbox_peak_depth"])),
        "trace.overhead_pct": 100.0 * (cpu_traced - cpu_plain) / cpu_plain,
        "storage.recover_s_run": recover_s,
    })
    notes = {
        "trace.file": str(OUT_DIR / f"trace-{workload.name}.jsonl"),
        "trace.spans_kept": sat_cut["spans_kept"],
        "trace.ops": ops,
        "trace.sat_ops": sum(r.acked for r in sat),
        "host.speed_index": round(speed, 3),
    }
    return metrics, notes, attempted, failed
