"""Backpressure: bounded outboxes, QoS lanes, coalescing and lag-kick.

Setup: one UltraSparc 1 server; a LAN client blasting 2000-byte states
over four rotating object ids into a two-member group whose other member
sits behind a 28.8k modem; a third LAN client joining/leaving the group
as the control-lane probe (each op emits a MembershipNotice to the modem
client).

Claims gated (the flow-control contract, docs/flow-control.md):
  * outbox depth plateaus around the coalesce watermark — superseded
    STATE frames are dropped instead of queued, nobody is kicked;
  * control-lane latency at the congested client stays within the link
    window, while with flow control off it drowns behind the bulk
    backlog (orders of magnitude worse);
  * a non-coalescible UPDATE blast against tiny bounds lag-kicks the
    slow consumer with Disconnect(SLOW_CONSUMER), observed client-side
    as NOTIFY_KICKED;
  * the whole run is deterministic: a second run reproduces every
    counter and latency exactly.
"""

from repro.bench.experiments import _BOUNDED_FLOW, backpressure
from repro.bench.report import format_table
from repro.bench.results import save_results


def test_backpressure(benchmark, paper_report):
    rows = benchmark.pedantic(backpressure, rounds=1, iterations=1)
    by = {r.scenario: r for r in rows}
    quiet, bounded = by["quiet"], by["bounded"]
    unbounded, kick = by["unbounded"], by["kick"]

    # the outbox plateaus: coalescing holds depth near the watermark
    assert bounded.coalesced > 0
    assert bounded.kicks == 0
    assert bounded.peak_depth <= _BOUNDED_FLOW.max_outbox_frames
    assert bounded.peak_depth <= _BOUNDED_FLOW.coalesce_watermark + 8, (
        f"depth {bounded.peak_depth} did not plateau at the watermark"
    )

    # control never queues behind bulk: the saturated client gets every
    # notice the quiet run gets, within the link window, not behind the
    # whole backlog
    assert bounded.ctrl_received == quiet.ctrl_received
    assert bounded.ctrl_p99_ms < 2000.0, (
        f"control-lane p99 {bounded.ctrl_p99_ms:.0f} ms under blast"
    )
    assert unbounded.ctrl_p99_ms > 20.0 * bounded.ctrl_p99_ms, (
        "disabling flow control should drown control traffic"
    )
    assert unbounded.kicks == 0 and unbounded.coalesced == 0

    # non-coalescible overflow kicks the slow consumer, typed + observed
    assert kick.kicks == 1
    assert kick.kicked
    assert kick.coalesced == 0
    assert kick.ctrl_received < quiet.ctrl_received

    # a kicked client stops costing anything; quiet baseline sane
    assert quiet.coalesced == 0 and quiet.kicks == 0
    assert quiet.ctrl_received > 0
    assert quiet.peak_depth <= 2

    # deterministic: every counter and percentile reproduces exactly
    assert backpressure() == rows

    save_results("backpressure", {
        "rows": [
            {"scenario": r.scenario, "peak_depth": r.peak_depth,
             "coalesced": r.coalesced, "kicks": r.kicks,
             "ctrl_p50_ms": r.ctrl_p50_ms, "ctrl_p99_ms": r.ctrl_p99_ms,
             "ctrl_received": r.ctrl_received, "kicked": r.kicked}
            for r in rows
        ],
    })
    paper_report(format_table(
        "Backpressure — slow consumer on a 28.8k modem vs LAN state blast",
        ["scenario", "peak depth", "coalesced", "kicks",
         "ctrl p50 (ms)", "ctrl p99 (ms)", "notices", "kicked"],
        [[r.scenario, r.peak_depth, r.coalesced, r.kicks,
          r.ctrl_p50_ms, r.ctrl_p99_ms, r.ctrl_received, r.kicked]
         for r in rows],
        note=(
            "Flow-control contract (docs/flow-control.md): bounded two-lane\n"
            "outboxes, STATE coalescing above the watermark, lag-kick when\n"
            "coalescing cannot help.  'unbounded' disables the policy."
        ),
    ))
