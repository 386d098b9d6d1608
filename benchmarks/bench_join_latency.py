"""§1/§2/§6 (claims): member-independent joins vs ISIS-like state transfer.

"In ISIS the join of a new member involves the execution of a join
protocol among all group members, and slow members can slow down the join
operation. [...] the time to complete the join reflects the timeout for
failure detection and making an additional request to another client."

Claims reproduced:
  * Corona's join time is independent of member health — it is served
    from the service's own state copy, even when every member crashed;
  * the ISIS-like join degrades with a slow donor and pays the full
    failure-detection timeout for a hung one.
"""

from repro.bench.experiments import join_latency, join_policy_matrix
from repro.bench.report import format_table


def test_join_latency(benchmark, paper_report):
    rows = benchmark.pedantic(join_latency, rounds=1, iterations=1)
    healthy, slow, hung = rows

    # Corona: insensitive to member condition (within measurement noise)
    corona_times = [r.corona_ms for r in rows]
    assert max(corona_times) < 2 * min(corona_times)
    # ISIS-like: the slow donor adds its delay...
    assert slow.isis_ms > healthy.isis_ms + 1400
    # ...and a hung donor costs at least the 5 s failure timeout
    assert hung.isis_ms > 5000
    # Corona wins every scenario
    for row in rows:
        assert row.corona_ms < row.isis_ms

    paper_report(format_table(
        "Join latency (ms), 100 kB group state — Corona vs ISIS-like baseline",
        ["scenario", "Corona", "ISIS-like"],
        [[r.scenario, r.corona_ms, r.isis_ms] for r in rows],
        note=(
            "Paper: Corona joins do not involve existing members; ISIS-\n"
            "style joins inherit member slowness and failure-detection\n"
            "timeouts."
        ),
    ))


def test_join_policy_matrix(benchmark, paper_report):
    """Modem-link join across every TransferPolicy, monolithic and
    chunked: partial policies stay interactive, and only transfers above
    the chunk threshold actually stream."""
    rows = benchmark.pedantic(join_policy_matrix, rounds=1, iterations=1)
    by = {(r.policy, r.chunked): r for r in rows}

    full = by[("FULL", False)]
    # partial policies exclude most of the state — interactive joins
    for policy in ("LATEST_N", "SELECTED", "SINCE_SEQNO", "NONE"):
        assert by[(policy, False)].join_ms < full.join_ms / 5, policy
        assert by[(policy, False)].bytes_received < full.bytes_received / 5
    # bytes shrink monotonically with what the policy excludes
    assert by[("NONE", False)].bytes_received < by[("SINCE_SEQNO", False)].bytes_received
    assert by[("SELECTED", False)].bytes_received < full.bytes_received

    # below the chunk threshold, a chunked request is served on the
    # monolithic fast path: byte- and timing-identical
    for policy in ("LATEST_N", "SELECTED", "SINCE_SEQNO", "NONE"):
        assert by[(policy, True)].join_ms == by[(policy, False)].join_ms, policy
        assert by[(policy, True)].bytes_received == by[(policy, False)].bytes_received
    # FULL is the only transfer big enough to stream; chunk framing and
    # ack clocking cost a little total time, never an order of magnitude
    full_chunked = by[("FULL", True)]
    assert full_chunked.bytes_received != full.bytes_received
    assert full_chunked.join_ms < full.join_ms * 1.25

    paper_report(format_table(
        "Join by transfer policy over a 28.8k modem (10 x 10 kB objects + 20 updates)",
        ["policy", "chunked", "join (ms)", "bytes received"],
        [[r.policy, str(r.chunked), r.join_ms, r.bytes_received] for r in rows],
        note=(
            "Every policy composes with chunked streaming; only payloads\n"
            "above the chunk threshold leave the monolithic fast path."
        ),
    ))
