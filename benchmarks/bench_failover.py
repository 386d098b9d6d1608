"""§4.2 (claims): coordinator failover and multi-crash tolerance.

"After an interval (greater than the heartbeat interval) in which the
coordinator hasn't been able to communicate ... the first server in the
list becomes the new coordinator. ... A system made up by k+1 servers can
tolerate k simultaneous crashes by using increasing timeouts."

Claims reproduced:
  * the service recovers after a coordinator crash without losing the
    group or its sequencing;
  * recovery time scales with the suspicion timeout;
  * with four servers, two simultaneous crashes (coordinator plus its
    successor) are survived, at roughly double the cost (the increasing-
    timeout ladder).
"""

from repro.bench.experiments import failover
from repro.bench.report import format_table


def test_failover(benchmark, paper_report):
    rows = benchmark.pedantic(failover, rounds=1, iterations=1)
    single = {r.suspicion_timeout: r for r in rows if r.crashed == 1}
    double = {r.suspicion_timeout: r for r in rows if r.crashed == 2}

    # every configuration recovered, with the rightful successor in charge
    for row in rows:
        expected = "srv-1" if row.crashed == 1 else "srv-2"
        assert row.new_coordinator == expected
    # recovery time grows with the suspicion timeout
    assert single[2.0].recovery_s > single[0.5].recovery_s
    # two crashes cost more than one (the position-scaled ladder)
    for timeout in (0.5, 1.0, 2.0):
        assert double[timeout].recovery_s >= single[timeout].recovery_s

    paper_report(format_table(
        "Coordinator failover (4 servers)",
        ["crashed", "suspicion timeout (s)", "recovery (s)", "new coordinator"],
        [[r.crashed, r.suspicion_timeout, r.recovery_s, r.new_coordinator]
         for r in rows],
        note=(
            "Paper: k+1 servers tolerate k simultaneous crashes via\n"
            "increasing timeouts; detection cost ~ the heartbeat timeouts."
        ),
    ))
