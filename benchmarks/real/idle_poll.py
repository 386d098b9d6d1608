"""Idle poller: keeps the CPU it inherits from halting (see ``hoststat``).

Runs at ``SCHED_IDLE``, so every other runnable task preempts it at once,
and ends by itself when its parent is gone.
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    parent = os.getppid()
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError) as err:
        print(f"idle_poll: cannot switch to SCHED_IDLE: {err}", file=sys.stderr)
        return 1
    while os.getppid() == parent:
        for _ in range(2_000_000):
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
