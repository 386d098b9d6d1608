"""Figure 3: group multicast round-trip delay vs number of clients.

Paper setup: one UltraSparc 1 server on 10 Mbps Ethernet, 1000-byte
messages, one sender/receiver probe client measuring worst-case (last in
fan-out) RTT, all other clients pure receivers.

Paper claims reproduced:
  * RTT grows approximately linearly with the number of clients;
  * the stateful and stateless (sequencer-only) curves are nearly
    identical — state maintenance is a small constant per multicast.
"""

import numpy as np

from repro.bench.experiments import fig3
from repro.bench.report import format_table
from repro.bench.results import save_results


def test_fig3(benchmark, paper_report):
    rows = benchmark.pedantic(fig3, rounds=1, iterations=1)
    # linearity: a straight-line fit should explain almost all variance
    ns = np.array([r.clients for r in rows], dtype=float)
    ys = np.array([r.stateful_ms for r in rows])
    slope, intercept = np.polyfit(ns, ys, 1)
    fit = slope * ns + intercept
    r2 = 1 - ((ys - fit) ** 2).sum() / ((ys - ys.mean()) ** 2).sum()
    assert r2 > 0.99, f"delay vs clients is not linear (R^2={r2:.4f})"
    # stateful ~= stateless (paper: "the two curves are very close")
    for row in rows:
        assert row.overhead_pct < 5.0, (
            f"state overhead {row.overhead_pct:.1f}% at {row.clients} clients"
        )
    # and the overhead is constant, so its share shrinks with group size
    assert rows[-1].overhead_pct <= rows[0].overhead_pct + 0.5

    save_results("fig3", {
        "slope_ms_per_client": slope,
        "intercept_ms": intercept,
        "r_squared": r2,
        "rows": [
            {"clients": r.clients, "stateful_ms": r.stateful_ms,
             "stateless_ms": r.stateless_ms, "overhead_pct": r.overhead_pct}
            for r in rows
        ],
    })
    paper_report(format_table(
        "Figure 3 — RTT vs #clients (1000 B, single UltraSparc 1 server)",
        ["clients", "stateful (ms)", "stateless (ms)", "overhead (%)"],
        [[r.clients, r.stateful_ms, r.stateless_ms, r.overhead_pct] for r in rows],
        note=(
            f"linear fit: {slope:.2f} ms/client + {intercept:.2f} ms (R^2={r2:.4f}).\n"
            "Paper: curves 'very close to each other', delay 'increases\n"
            "approximately linearly with the number of clients'."
        ),
    ))
