"""Table 1: server throughput for 1000 / 10000 byte multicasts.

Paper setup: 6 clients on separate machines (Sparc 20s / UltraSparc 1s)
"multicasting data as fast as possible" through the Corona server, which
runs either on an UltraSparc 1 (Solaris) or a Pentium II 200 (NT), all on
10 Mbps Ethernet.

Paper claims reproduced (the table's absolute cells were not preserved in
the available text; §5.2.2 gives the anchors):
  * the faster Pentium II server outperforms the UltraSparc at small
    messages (CPU-bound regime);
  * large (10000 B) messages push throughput up to the network's
    capacity, where the two machines converge (network-bound regime);
  * the system sits in the hundreds of KB/s, consistent with the ~600
    KB/s the paper reports sustaining on NT.
"""

from repro.bench.experiments import table1
from repro.bench.report import format_table
from repro.bench.results import save_results


def test_table1(benchmark, paper_report):
    cells = benchmark.pedantic(table1, rounds=1, iterations=1)
    by_key = {(c.machine, c.size): c for c in cells}

    usparc_1k = by_key[("UltraSparc-1", 1000)].delivered_kbps
    pii_1k = by_key[("PentiumII-200", 1000)].delivered_kbps
    usparc_10k = by_key[("UltraSparc-1", 10000)].delivered_kbps
    pii_10k = by_key[("PentiumII-200", 10000)].delivered_kbps

    assert pii_1k > usparc_1k * 1.2, "Pentium II should win the CPU-bound regime"
    assert usparc_10k > usparc_1k, "big messages must raise byte throughput"
    assert abs(pii_10k - usparc_10k) / usparc_10k < 0.15, (
        "at 10000 B both machines should converge on the network ceiling"
    )
    assert 300 < pii_1k < 1300, "throughput should be in the paper's regime"

    save_results("table1", {
        "delivered_kbps": {
            "UltraSparc-1": {"1000": usparc_1k, "10000": usparc_10k},
            "PentiumII-200": {"1000": pii_1k, "10000": pii_10k},
        },
    })
    paper_report(format_table(
        "Table 1 — server throughput (KB/s delivered), 6 blasting clients",
        ["server", "1000 B", "10000 B"],
        [
            ["UltraSparc-1", usparc_1k, usparc_10k],
            ["PentiumII-200", pii_1k, pii_10k],
        ],
        note=(
            "Paper anchor: ~600 KB/s sustained on the NT server; the\n"
            "'limitation ... not as much in the code as in the network\n"
            "capacity' — visible here as both machines converging at 10 kB."
        ),
    ))
