"""§5.3 ablation: IP-multicast vs point-to-point TCP fan-out.

"We have also developed a version of the communication system which uses
both IP-multicast, whenever possible, and point-to-point TCP connections
in order to implement scalable and reliable group communication."

Claims reproduced:
  * multicast delivery is faster at every group size and its advantage
    grows with the group (the wire/CPU fan-out term disappears);
  * wire traffic drops from one copy per receiver to one per segment.
"""

from repro.bench.experiments import multicast_ablation
from repro.bench.report import format_table


def test_multicast_ablation(benchmark, paper_report):
    rows = benchmark.pedantic(multicast_ablation, rounds=1, iterations=1)
    for row in rows:
        assert row.multicast_ms < row.p2p_ms
        assert row.multicast_bytes < row.p2p_bytes / 3
    gains = [r.p2p_ms / r.multicast_ms for r in rows]
    assert gains[-1] > gains[0], "multicast should help more as groups grow"

    paper_report(format_table(
        "IP-multicast ablation — 1000 B multicast RTT and wire bytes per probe window",
        ["clients", "p2p RTT (ms)", "mcast RTT (ms)", "p2p bytes", "mcast bytes"],
        [[r.clients, r.p2p_ms, r.multicast_ms, r.p2p_bytes, r.multicast_bytes]
         for r in rows],
        note=(
            "Paper §5.3: the hybrid IP-multicast/point-to-point variant\n"
            "exists precisely because p2p fan-out is linear in receivers."
        ),
    ))
