"""§3.2 (claim): customized state transfer pays off for slow clients.

"Based on the speed of its connection to the server and application
characteristics, the client may request either to receive the whole state
of the group or the latest n updates to the state ... or only the state of
certain objects."

Claims reproduced (``transfer_policies``):
  * on a LAN every policy is fast; on a 28.8k modem the FULL transfer of
    ~100 kB takes tens of seconds while LATEST_N / SELECTED joins remain
    interactive;
  * bytes on the wire shrink proportionally to what the policy excludes.

Gated (``state_transfer`` -> ``BENCH_state_transfer.json``, contract:
docs/protocol.md §state transfer): the chunked streaming path —
  * a chunked join over a modem sees its first *live* update at least 5x
    sooner than the monolithic join, and long before the join converges
    (updates flow during the transfer);
  * a mid-transfer disconnect resumes from the last acked chunk without
    re-sending acked bytes;
  * the reassembled replica is byte-identical to a monolithic FULL join
    in every scenario, including time-varying links;
  * small-state chunked joins ride the monolithic fast path: byte- and
    timing-identical to a plain join.
"""

from repro.bench.experiments import state_transfer, transfer_policies
from repro.bench.report import format_table
from repro.bench.results import save_results


def test_transfer_policies(benchmark, paper_report):
    rows = benchmark.pedantic(transfer_policies, rounds=1, iterations=1)
    by_key = {(r.link, r.policy): r for r in rows}

    modem_full = by_key[("28.8k modem", "FULL")]
    modem_latest = by_key[("28.8k modem", "LATEST_N(10)")]
    modem_selected = by_key[("28.8k modem", "SELECTED(1 obj)")]
    lan_full = by_key[("10 Mbps LAN", "FULL")]

    assert modem_full.join_ms > 20_000, "a 100 kB FULL transfer over 28.8k is slow"
    assert modem_latest.join_ms < modem_full.join_ms / 10
    assert modem_selected.join_ms < modem_full.join_ms / 5
    assert lan_full.join_ms < 1_000
    assert modem_latest.bytes_received < modem_full.bytes_received / 10

    paper_report(format_table(
        "State-transfer policies — join time and bytes (10 objects x 10 kB + 20 updates)",
        ["link", "policy", "join (ms)", "bytes received"],
        [[r.link, r.policy, r.join_ms, r.bytes_received] for r in rows],
        note=(
            "Paper: clients pick the transfer policy that matches their\n"
            "connection speed and application needs."
        ),
    ))


def test_state_transfer(benchmark, paper_report):
    rows = benchmark.pedantic(state_transfer, rounds=1, iterations=1)
    by = {r.scenario: r for r in rows}
    mono = by["monolithic/modem"]
    chunked = by["chunked/modem"]
    outage = by["chunked/modem+outage"]
    ramp = by["chunked/ramp"]
    sawtooth = by["chunked/sawtooth"]
    small_mono = by["small/monolithic"]
    small_chunked = by["small/chunked"]

    # every scenario ends byte-identical to a monolithic FULL join
    assert all(r.parity for r in rows), [r.scenario for r in rows if not r.parity]

    # chunking makes the join interactive: the first live update lands
    # >= 5x sooner than behind the monolithic snapshot...
    assert chunked.first_update_ms * 5 <= mono.first_update_ms, (
        f"first update {chunked.first_update_ms:.0f} ms vs monolithic "
        f"{mono.first_update_ms:.0f} ms"
    )
    # ...and long before the transfer itself converges (live updates
    # interleave with chunks instead of waiting for them)
    assert chunked.first_update_ms < chunked.converged_ms / 5
    # streaming costs little total time over the same link
    assert chunked.converged_ms < mono.converged_ms * 1.15
    assert chunked.chunked_transfers == 1 and chunked.resumes == 0

    # disconnect mid-stream: exactly one resume, no acked byte re-sent
    # (total received stays within framing overhead of the payload), and
    # the total time only stretches by roughly the outage window
    assert outage.resumes == 1
    assert outage.bytes_received < chunked.bytes_received * 1.05
    assert outage.converged_ms < chunked.converged_ms + 25_000

    # bandwidth adaptation: when the link ramps modem->LAN the transfer
    # finishes several times sooner than on the fixed modem
    assert ramp.converged_ms * 2 < chunked.converged_ms
    assert sawtooth.parity and sawtooth.chunked_transfers == 1

    # small-state fast path: a chunked request below the threshold is
    # served monolithically — byte- and timing-identical
    assert small_chunked.bytes_received == small_mono.bytes_received
    assert small_chunked.converged_ms == small_mono.converged_ms
    assert small_chunked.chunked_transfers == 0

    save_results("state_transfer", {
        "rows": [
            {"scenario": r.scenario, "state_kb": r.state_kb,
             "first_update_ms": round(r.first_update_ms, 1),
             "converged_ms": round(r.converged_ms, 1),
             "bytes_received": r.bytes_received,
             "chunked_transfers": r.chunked_transfers,
             "resumes": r.resumes, "parity": r.parity}
            for r in rows
        ],
    })
    paper_report(format_table(
        "Streaming state transfer — first live update vs converged join",
        ["scenario", "state (kB)", "first update (ms)", "converged (ms)",
         "bytes", "resumes"],
        [[r.scenario, r.state_kb, r.first_update_ms, r.converged_ms,
          r.bytes_received, r.resumes] for r in rows],
        note=(
            "Chunked joins deliver live updates while the snapshot\n"
            "streams; disconnects resume from the last acked chunk."
        ),
    ))
