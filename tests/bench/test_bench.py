"""Tests for the benchmark harness: metrics, report rendering, workloads."""

import math

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.metrics import LatencySample, summarize
from repro.bench.report import format_table
from repro.bench.workload import BlastSender, MeasuredSender, build_room
from repro.sim.harness import CoronaWorld


class TestMetrics:
    def test_summarize_basic(self):
        stats = summarize([0.010, 0.020, 0.030])
        assert stats.count == 3
        assert stats.mean_ms == pytest.approx(20.0)
        assert stats.min_ms == pytest.approx(10.0)
        assert stats.max_ms == pytest.approx(30.0)
        assert stats.p50_ms == pytest.approx(20.0)

    def test_empty_sample(self):
        stats = summarize([])
        assert stats.count == 0
        assert math.isnan(stats.mean_ms)

    def test_sample_accumulates(self):
        sample = LatencySample()
        sample.add(0.001)
        sample.add(0.003)
        assert len(sample) == 2
        assert sample.stats().mean_ms == pytest.approx(2.0)

    def test_stats_str(self):
        assert "mean=" in str(summarize([0.01]))


class TestReport:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bbbb"], [[1, 2.5], [10, 3.25]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a " in lines[2] and "bbbb" in lines[2]
        assert "2.50" in text and "3.25" in text

    def test_format_table_note(self):
        text = format_table("T", ["x"], [[1]], note="footnote")
        assert text.endswith("footnote")

    def test_empty_rows(self):
        text = format_table("T", ["col"], [])
        assert "col" in text


class TestWorkloads:
    def test_build_room_joins_everyone(self):
        world = CoronaWorld()
        server = world.add_server()
        clients = build_room(world, 5)
        group = server.core.groups["bench"]
        assert len(group) == 5
        assert [m.client_id for m in group.members()] == [
            c.client_id for c in clients
        ]

    def test_measured_sender_collects_rtts(self):
        world = CoronaWorld()
        world.add_server()
        clients = build_room(world, 3)
        probe = MeasuredSender(world, clients[-1], "bench", count=5, interval=0.05)
        probe.start(at=world.now + 0.1)
        world.run()
        assert len(probe.rtts) == 5
        assert all(v > 0 for v in probe.rtts.values)

    def test_measured_sender_warmup_excluded(self):
        world = CoronaWorld()
        world.add_server()
        clients = build_room(world, 3)
        probe = MeasuredSender(
            world, clients[-1], "bench", count=6, interval=0.05, warmup=2
        )
        probe.start(at=world.now + 0.1)
        world.run()
        assert len(probe.rtts) == 4

    def test_blast_sender_windowed(self):
        world = CoronaWorld()
        server = world.add_server()
        clients = build_room(world, 2)
        blaster = BlastSender(world, clients[0], "bench", size=500,
                              window=3, duration=1.0)
        blaster.start(at=world.now + 0.1)
        world.run_until(world.now + 2.0)
        assert blaster.sent > 10
        # windowed: in flight never exceeded the window
        assert blaster.sent - blaster.acked <= 3
        # every accepted message became a logged update at the server
        assert server.core.groups["bench"].log.next_seqno == blaster.acked


class TestExperimentSmoke:
    """Quick-scale rows of the registered experiments (full runs live in
    benchmarks/)."""

    def test_figure3_smoke(self):
        rows = EXPERIMENTS["fig3"].run(quick=True)
        assert rows[1].stateful_ms > rows[0].stateful_ms
        assert rows[0].overhead_pct < 10

    def test_table1_smoke(self):
        cells = EXPERIMENTS["table1"].run(quick=True)
        assert all(c.delivered_kbps > 0 for c in cells)

    def test_join_latency_smoke(self):
        rows = EXPERIMENTS["join_latency"].run(quick=True)
        assert all(r.corona_ms < r.isis_ms for r in rows)

    def test_failover_smoke(self):
        rows = EXPERIMENTS["failover"].run(quick=True)
        assert all(r.recovery_s > 0 for r in rows)
