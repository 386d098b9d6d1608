"""§6 (claims): logging is off the critical path; made synchronous it
would be disk-bound.

"State logging does not depend on the semantics of the data and it is not
in the critical path as far as communication latency is concerned; the
server can multicast data to a group in parallel with disk logging."
"State logging could limit the throughput due to disk I/O (typical disk
transfer rate is around 3-5 Mbytes/sec)."

Claims reproduced:
  * asynchronous logging (the paper's design) costs almost nothing in
    either latency or throughput relative to a stateless server;
  * forcing each multicast to wait for its disk write (synchronous
    logging) cuts throughput toward the disk's bandwidth.
"""

from repro.bench.experiments import logging_ablation
from repro.bench.report import format_table


def test_logging_ablation(benchmark, paper_report):
    rows = benchmark.pedantic(logging_ablation, rounds=1, iterations=1)
    stateless, async_log, sync_log = rows

    # async logging ~ free (within 5% of stateless on both axes)
    assert async_log.delivered_kbps > stateless.delivered_kbps * 0.95
    assert async_log.rtt_ms < stateless.rtt_ms * 1.05 + 0.5
    # synchronous logging visibly hurts
    assert sync_log.delivered_kbps < async_log.delivered_kbps * 0.9
    assert sync_log.rtt_ms > async_log.rtt_ms

    paper_report(format_table(
        "Logging ablation (10000 B msgs, 100 Mbps net, busy 500 KB/s log device)",
        ["mode", "delivered KB/s", "probe RTT (ms)"],
        [[r.mode, r.delivered_kbps, r.rtt_ms] for r in rows],
        note=(
            "Paper: logging runs in parallel with delivery, so the\n"
            "stateful service matches the stateless one; only a\n"
            "synchronous-durability variant would be disk-bound."
        ),
    ))
