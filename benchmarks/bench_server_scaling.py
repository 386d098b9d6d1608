"""§4.1 ablation: fan-out latency vs number of servers sharing a group.

The paper's design rationale for splitting a group over multiple servers:
it "eliminates some of the network traffic due to the broadcast of a
message to large groups and also reduces the load per server. This
approach is more scalable for large groups."

Claim reproduced: at a fixed group size, multicast RTT drops steeply as
servers are added (fan-out CPU and per-segment wire time divide), with
diminishing returns as the constant sequencing hop starts to dominate.
"""

from repro.bench.experiments import server_scaling
from repro.bench.report import format_table


def test_server_scaling(benchmark, paper_report):
    rows = benchmark.pedantic(server_scaling, rounds=1, iterations=1)
    rtts = {r.fanout_servers: r.rtt_ms for r in rows}
    # strictly better with each doubling of servers
    assert rtts[2] < rtts[1]
    assert rtts[3] < rtts[2]
    assert rtts[6] < rtts[3]
    # but with diminishing returns (not a perfect 1/k)
    assert rtts[6] > rtts[1] / 6

    paper_report(format_table(
        "Server-count ablation — 240-client group, 1000 B multicast",
        ["fan-out servers", "RTT (ms)"],
        [[r.fanout_servers, r.rtt_ms] for r in rows],
        note=(
            "Paper §4.1: splitting each group over multiple servers scales\n"
            "large groups; the sequencing hop is the non-divisible part."
        ),
    ))
