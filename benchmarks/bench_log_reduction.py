"""§3.2 (claim): state-log reduction bounds the server's memory.

"The history of state updates for a group may be trimmed up to a point
and replaced with the consistent group state existing at that point."
(and §6: unbounded state "may cause a server to exceed its available
resources").

Claims reproduced:
  * without reduction the retained log grows linearly with updates;
  * with a count-based policy it stays bounded, while the folded object
    state still reflects every update (nothing user-visible is lost);
  * late joins stay cheap either way thanks to LATEST_N.
"""

from repro.bench.experiments import log_reduction
from repro.bench.report import format_table


def test_log_reduction(benchmark, paper_report):
    rows = benchmark.pedantic(log_reduction, rounds=1, iterations=1)
    never, bounded = rows

    assert never.log_records == 2000
    assert never.log_bytes == 2000 * 500
    assert bounded.log_records <= 200
    assert bounded.log_bytes <= 200 * 500
    # the folded state still carries all the bytes ever appended
    assert bounded.state_bytes == never.state_bytes == 2000 * 500

    paper_report(format_table(
        "State-log reduction (2000 updates x 500 B)",
        ["policy", "log records", "log bytes", "state bytes", "late join (ms)"],
        [[r.policy, r.log_records, r.log_bytes, r.state_bytes, r.late_join_ms]
         for r in rows],
        note=(
            "Reduction trims the history and folds it into the objects'\n"
            "byte-stream state — 'equivalent with the initial state plus\n"
            "the history of state updates'."
        ),
    ))
