"""§5.2.1 (text): the effect of message size on the RTT curve.

Paper claims reproduced:
  * "for messages of size up to a few hundreds of bytes ... the size
    makes little difference in round-trip times";
  * "the influence of the message size is more evident above 1000 bytes";
  * at 10000 bytes "the delay remained linear with the number of clients,
    but with a higher slope".
"""

import numpy as np

from repro.bench.experiments import msgsize_sweep
from repro.bench.report import format_table


def _slope(row) -> float:
    ns = np.array(list(row.rtt_by_clients), dtype=float)
    ys = np.array(list(row.rtt_by_clients.values()))
    return float(np.polyfit(ns, ys, 1)[0])


def test_msgsize_sweep(benchmark, paper_report):
    rows = benchmark.pedantic(msgsize_sweep, rounds=1, iterations=1)
    by_size = {r.size: r for r in rows}
    slopes = {r.size: _slope(r) for r in rows}
    clients = list(rows[0].rtt_by_clients)

    # small messages: within a few hundred bytes, size barely matters
    small_gap = by_size[300].rtt_by_clients[60] / by_size[100].rtt_by_clients[60]
    assert small_gap < 1.35, f"100->300 B changed RTT by {small_gap:.2f}x"
    # above 1000 B the per-client slope rises markedly
    assert slopes[10000] > 3 * slopes[1000], (
        f"slope at 10 kB ({slopes[10000]:.2f}) should dwarf 1 kB ({slopes[1000]:.2f})"
    )
    # and the 10 kB curve stays linear
    ns = np.array(clients, dtype=float)
    ys = np.array([by_size[10000].rtt_by_clients[n] for n in clients])
    fit = np.polyval(np.polyfit(ns, ys, 1), ns)
    r2 = 1 - ((ys - fit) ** 2).sum() / ((ys - ys.mean()) ** 2).sum()
    assert r2 > 0.98

    paper_report(format_table(
        "Message-size sweep — mean RTT (ms) by group size",
        ["size (B)"] + [f"{n} clients" for n in clients] + ["ms/client slope"],
        [[r.size] + [r.rtt_by_clients[n] for n in clients] + [slopes[r.size]]
         for r in rows],
        note=(
            "Paper: size matters little below a few hundred bytes; above\n"
            "1000 B the linear-delay slope grows."
        ),
    ))
