"""Table 2: multicast RTT — single server vs the replicated service.

Paper setup: 1000-byte multicasts to groups of 100/200/300 clients spread
over 12 machines, "some of them in different local networks, situated a
few routers away"; the replicated service is a coordinator plus six
servers.

Paper claims reproduced:
  * the replicated service delivers lower round-trip latency at every
    group size;
  * its advantage grows with the number of clients (better scalability),
    because fan-out work is divided across servers and network segments.
"""

from repro.bench.experiments import table2
from repro.bench.report import format_table
from repro.bench.results import save_results


def test_table2(benchmark, paper_report):
    rows = benchmark.pedantic(table2, rounds=1, iterations=1)
    for row in rows:
        assert row.replicated_ms < row.single_ms, (
            f"replication must win at {row.clients} clients"
        )
    speedups = [r.single_ms / r.replicated_ms for r in rows]
    assert speedups[-1] > speedups[0], (
        "the replicated service's advantage should grow with group size"
    )

    save_results("table2", {
        "rows": [
            {"clients": r.clients, "single_ms": r.single_ms,
             "replicated_ms": r.replicated_ms}
            for r in rows
        ],
    })
    paper_report(format_table(
        "Table 2 — multicast RTT (ms), 1000 B: single vs coordinator+6 servers",
        ["clients", "single server", "multiple servers", "speedup"],
        [[r.clients, r.single_ms, r.replicated_ms,
          f"{r.single_ms / r.replicated_ms:.1f}x"] for r in rows],
        note=(
            "Paper: 'by using the replicated service, in addition to\n"
            "increasing the fault-tolerance of the system, better\n"
            "scalability and responsiveness to user requests are achieved.'"
        ),
    ))
