"""Wall-clock benchmark of the real asyncio/TCP runtime.

    python3 benchmarks/real/run.py --workload fanout_hot --seed 1

spawns the server as a child process (``server_proc.py``), drives it over
loopback TCP from this single-threaded process (``loadgen.py``), checks
the outputs (``verify.py``) and prints every metric by name with its
unit.  The last line of stdout is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` (default) reports the ten end-to-end metrics; ``--trace 1``
runs the in-process micro-benchmarks (``micro.py``) and a shortened run
with span tracing switched on half-way (``tracer.py``) and reports the
per-layer metrics.  ``--micro`` prints the micro-benchmarks alone and
``--smoke`` runs every workload for a few seconds.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"


def _print_metrics(metrics: dict[str, float], specs) -> dict:
    out = {}
    for name, unit, _better in specs:
        value = metrics[name]
        print(f"{name:34s} {value:16.4f} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def _run(coro):
    from loadgen import new_event_loop

    loop = new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one of the four workload names")
    parser.add_argument("--seed", type=int, default=1999,
                        help="drives payload bytes, room order and join jitter")
    parser.add_argument("--seconds", type=int, default=20,
                        help="measuring time; sets the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--micro", action="store_true",
                        help="print the in-process micro-benchmarks and exit")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, a few seconds each")
    args = parser.parse_args(argv)

    if not SRC.is_dir():
        print(f"run.py: no source tree at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import hoststat

    # The generator holds every timestamp and every joiner's snapshot until
    # verify; a cyclic-GC pass over all that took milliseconds at random
    # moments and was the largest single source of scatter in the
    # client-side timings (fan-out lag, FULL join).  The server keeps its
    # collector: that is the product's behaviour.
    gc.disable()
    # everything from here on -- this process, the server, the poller --
    # lives on one CPU that never halts (see hoststat)
    cpu = hoststat.pin_to_one_cpu()
    poller = hoststat.IdlePoll()
    polling = cpu is not None and poller.start()
    try:
        return _main(args, parser, cpu if polling else None)
    finally:
        poller.stop()


def _main(args, parser, cpu: int | None) -> int:
    from runner import E2E_METRICS, TRACE_METRICS, Plan, run_end_to_end, run_traced
    from verify import VerifyError
    from workloads import WORKLOADS, workload_named

    if args.micro:
        import micro

        _print_metrics(micro.run_all(), micro.METRICS)
        return 0

    if args.smoke:
        for workload in WORKLOADS:
            try:
                metrics, _diag, attempted, failed = _run(
                    run_end_to_end(workload, args.seed, Plan(args.seconds, smoke=True)))
            except VerifyError as err:
                print(f"smoke {workload.name}: INCORRECT: {err}", file=sys.stderr)
                return 1
            print(f"# smoke {workload.name}: {attempted} attempted, {failed} failed")
            _print_metrics(metrics, E2E_METRICS)
            if failed:
                return 1
        return 0

    if not args.workload:
        parser.error("--workload is required (or --micro / --smoke)")
    try:
        workload = workload_named(args.workload)
    except KeyError as err:
        parser.error(str(err.args[0]))
    plan = Plan(args.seconds, smoke=False)
    print(f"# {workload.name} seed {args.seed}, "
          f"{'CPU %d, idle-polled' % cpu if cpu is not None else 'not pinned'}")
    try:
        if args.trace:
            import micro

            micro_metrics = micro.run_all()
            metrics, notes, attempted, failed = _run(run_traced(workload, args.seed, plan))
            metrics.update(micro_metrics)
            specs = micro.METRICS + TRACE_METRICS
            diagnostics = {}
            for key, value in notes.items():
                print(f"# {key}: {value}")
        else:
            metrics, diagnostics, attempted, failed = _run(
                run_end_to_end(workload, args.seed, plan))
            specs = E2E_METRICS
    except VerifyError as err:
        # a wrong output prints no metrics at all
        print(f"{workload.name}: INCORRECT: {err}", file=sys.stderr)
        return 1
    print(f"# {attempted} attempted, {failed} failed")
    for name, (value, unit) in diagnostics.items():
        if isinstance(value, str):
            print(f"{name:34s} {value:>16s}")
        else:
            print(f"{name:34s} {value:16.4f} {unit}")
    reported = _print_metrics(metrics, specs)
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
