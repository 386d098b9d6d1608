"""A/A check: do two sets of runs of the *same* code agree?

    python3 benchmarks/real/aa_check.py --sets 2 --runs 10 > AA_RESULTS.md

Runs the workloads **interleaved** (A B C D A B C D ..., never AAAA BBBB),
so a host slow-down lands on one run of each workload instead of on every
run of one, each run with its own seed (run *i* of set *s* uses seed
``1000 * s + i + 1``).  For every end-to-end metric and workload it prints,
as a markdown table, each set's median and quartiles, the spread inside a
set (distance between the quartiles as a share of the median -- what the
driver computes), how much worse the last set's median is than the
first's, and the bound from ``BENCHMARK.json``.  Exits non-zero when a
spread or a difference exceeds its bound.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _one_run(contract: dict, workload: str, seed: int) -> dict[str, float]:
    argv = list(contract["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]), "--trace", "0",
    ]
    if argv[0] == "python3":
        argv[0] = sys.executable
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failures")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    workloads = [w["name"] for w in contract["workloads"]]
    specs = {m["name"]: m for m in contract["end_to_end"]}

    #: values[set][workload][metric] -> list over runs
    values = [
        {w: {name: [] for name in specs} for w in workloads} for _ in range(args.sets)
    ]
    began = time.monotonic()
    for set_no in range(args.sets):
        for run_no in range(args.runs):
            for workload in workloads:  # interleaved: one run of each in turn
                seed = 1000 * set_no + run_no + 1
                started = time.monotonic()
                metrics = _one_run(contract, workload, seed)
                for name, series in values[set_no][workload].items():
                    series.append(metrics[name])
                print(
                    f"# set {set_no + 1} run {run_no + 1}/{args.runs} {workload} "
                    f"seed {seed}: {time.monotonic() - started:.1f}s",
                    file=sys.stderr, flush=True,
                )

    print(
        f"A/A check: {args.sets} sets x {args.runs} runs x {len(workloads)} workloads, "
        f"interleaved, {contract['run_seconds']} s per run, "
        f"{time.monotonic() - began:.0f} s in all.\n\n"
        "Spread = (Q3 - Q1) / median inside one set; worse = how much worse the\n"
        "last set's median is than the first's (negative: it was better).\n\n"
        "| workload | metric | unit | "
        + " | ".join(f"set {s + 1} median [Q1, Q3]" for s in range(args.sets))
        + " | max spread | worse | bound | ok |\n"
        "|---|---|---|" + "---|" * args.sets + "---|---|---|---|"
    )
    breaches = 0
    for workload in workloads:
        for name, spec in specs.items():
            cells, spreads, medians = [], [], []
            for set_no in range(args.sets):
                q1, q2, q3 = statistics.quantiles(values[set_no][workload][name], n=4)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
                spreads.append((q3 - q1) / q2)
                medians.append(q2)
            worse = (medians[-1] - medians[0]) / medians[0]
            if spec["better"] == "higher":
                worse = -worse
            spread = max(spreads)
            # setup_s is exempt from the spread rule, not from the median rule
            ok = worse <= spec["bound"] and (name == "setup_s" or spread <= spec["bound"])
            breaches += not ok
            print(
                f"| {workload} | {name} | {spec['unit']} | " + " | ".join(cells)
                + f" | {100 * spread:.1f} % | {100 * worse:+.1f} % | "
                f"{100 * spec['bound']:.1f} % | {'yes' if ok else '**NO**'} |"
            )
    print(f"\n{breaches} breach(es).")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
