#!/usr/bin/env python
"""Paired A/B of two revisions on the real-runtime benchmark.

    python tools/ab_real.py --base HEAD~1 --head worktree \\
        --workload rooms_sharded --pairs 10 --seed 701

exports both sides into temporary directories (``git archive`` for a
revision; for ``--head worktree`` the tracked and unignored files of the
working tree as they are now), then runs each side's own

    <BENCHMARK.json command> --workload W --seed S --seconds 20

once per pair — same seed on both sides, alternating which side goes
first — and parses the final JSON line.  For every ``end_to_end`` metric
of ``BENCHMARK.json`` it prints both sides' quartiles, the ratio of the
medians with its base, the paired relative difference (``head/base - 1``
within each same-seed pair: the median over pairs with a bootstrap 95 %
interval over pairs), the pairs the head won strictly, and every run
made; failed/attempted operations are summed per side.  The output is
the markdown that goes into ``CHANGES.md``.

Nothing here gates CI: timings from a shared runner decide nothing.
``--dry-run`` prints the plan (sides, seeds, order) and runs nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKTREE = "worktree"

#: Bootstrap of the paired difference: resamples, and the fixed seed
#: that makes one set of runs always print one interval.
RESAMPLES = 4000
BOOTSTRAP_SEED = 1999


def export(rev: str, into: Path) -> None:
    """Materialize *rev* (or the working tree) under *into*."""
    into.mkdir(parents=True)
    if rev != WORKTREE:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", rev],
            cwd=REPO, check=True, capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
        return
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO, check=True, capture_output=True,
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = REPO / name
        if source.is_file():  # a tracked file deleted in the tree is absent
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def command(benchmark: dict, workload: str, seed: int, seconds: int) -> list[str]:
    return [
        *benchmark["command"], "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]


def run_once(checkout: Path, argv: list[str]) -> dict:
    """One benchmark run in *checkout*; the parsed final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        argv, cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{checkout.name}: {' '.join(argv)} exited {done.returncode}\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout.name}: {' '.join(argv)} failed verification")
    return result


def plan(pairs: int, seed: int) -> list[tuple[int, tuple[str, str]]]:
    """(seed, order) per pair: base first on even pairs, head on odd."""
    return [
        (seed + i, ("base", "head") if i % 2 == 0 else ("head", "base"))
        for i in range(pairs)
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def paired_change(
    base: list[float], head: list[float]
) -> tuple[float, float, float]:
    """``head/base - 1`` within each same-seed pair: the median over the
    pairs, and the 2.5th / 97.5th percentile of that same median over
    :data:`RESAMPLES` resamples of the pairs (with replacement).  Pairing
    cancels what a seed and its minute on a shared host do to both
    sides; with a handful of pairs the interval is little more than the
    range of the pairs, and it says so by being wide."""
    diffs = [h / b - 1.0 for b, h in zip(base, head)]
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(
        statistics.median(rng.choices(diffs, k=len(diffs)))
        for _ in range(RESAMPLES)
    )
    low = medians[round(0.025 * (RESAMPLES - 1))]
    high = medians[round(0.975 * (RESAMPLES - 1))]
    return statistics.median(diffs), low, high


def _num(value: float) -> str:
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def report(
    workload: str, specs: list[dict], runs: list[tuple[int, dict[str, dict]]]
) -> str:
    """The markdown table plus every run, for one workload; *runs* holds
    (seed, {"base": result, "head": result}) per pair."""
    seeds = [seed for seed, _results in runs]
    ops = ", ".join(
        f"{side} {sum(r[side]['failed'] for _s, r in runs)}/"
        f"{sum(r[side]['attempted'] for _s, r in runs)}"
        for side in ("base", "head")
    )
    out = [
        f"`{workload}` — {len(runs)} pairs, seeds {seeds[0]}–{seeds[-1]}, "
        f"failed/attempted operations: {ops}",
        "",
        "| metric | base q1 / median / q3 | head q1 / median / q3 "
        "| median ratio (base) | paired head/base − 1, median [95 % CI] "
        "| pairs head better |",
        "|---|---|---|---|---|---|",
    ]
    every = []
    for spec in specs:
        name = spec["name"]
        base, head = (
            [r[side]["metrics"][name]["value"] for _s, r in runs]
            for side in ("base", "head")
        )
        lower = spec["better"] == "lower"
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        ties = sum(h == b for b, h in zip(base, head))
        bq, hq = quartiles(base), quartiles(head)
        change, low, high = paired_change(base, head)
        verdict = (
            f"equal in {ties}/{len(runs)}" if ties == len(runs)
            else f"{wins}/{len(runs)}"
        )
        out.append(
            f"| `{name}` | {' / '.join(map(_num, bq))} "
            f"| {' / '.join(map(_num, hq))} "
            f"| {hq[1] / bq[1]:.3f}x ({_num(bq[1])} {spec['unit']}) "
            f"| {change:+.1%} [{low:+.1%}, {high:+.1%}] | {verdict} |"
        )
        every.append(
            f"`{name}`: " + ", ".join(
                f"{s}: {_num(b)} → {_num(h)}" for s, b, h in zip(seeds, base, head)
            )
        )
    out += ["", "Every run (seed: base → head): " + "; ".join(every) + "."]
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument(
        "--head", required=True,
        help=f"the changed revision, or '{WORKTREE}' for the working tree")
    parser.add_argument(
        "--workload", required=True, action="append",
        help="a BENCHMARK.json workload name; repeat for several")
    parser.add_argument("--pairs", type=int, required=True,
                        help="base/head pairs per workload (10 for a claim)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the plan, check nothing out, run nothing")
    args = parser.parse_args(argv)

    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in benchmark["workloads"]]
    for workload in args.workload:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; one of {known}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = args.seconds or benchmark["run_seconds"]
    sides = {"base": args.base, "head": args.head}
    pairs = plan(args.pairs, args.seed)

    if args.dry_run:
        for workload in args.workload:
            for seed, order in pairs:
                for side in order:
                    argv = command(benchmark, workload, seed, seconds)
                    print(f"{side}={sides[side]}: {' '.join(argv)}")
        return 0

    with tempfile.TemporaryDirectory(prefix="ab_real-") as tmp:
        checkouts = {side: Path(tmp) / side for side in sides}
        for side, rev in sides.items():
            export(rev, checkouts[side])
        for workload in args.workload:
            runs = []
            for seed, order in pairs:
                argv = command(benchmark, workload, seed, seconds)
                results = {}
                for side in order:
                    print(f"[{workload}] seed {seed} {side}", file=sys.stderr)
                    results[side] = run_once(checkouts[side], argv)
                runs.append((seed, results))
            print(report(workload, benchmark["end_to_end"], runs), flush=True)
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
