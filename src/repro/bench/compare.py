"""Benchmark regression gate: fresh results vs committed baselines.

``repro benchcheck`` re-reads a freshly generated ``BENCH_<name>.json``
(typically written into ``$CORONA_BENCH_DIR`` by a benchmark run) and
compares every numeric leaf against the committed baseline in the repo
root.  A leaf that drifts by more than the relative tolerance (default
10%) is a deviation and fails the check — this is the CI guard that the
effect-interpreter/runtime refactors do not shift the simulated cost
model.

Only deterministic (simulated-time) benchmarks belong here: the
experiments :data:`~repro.bench.experiments.EXPERIMENTS` marks gated
produce identical payloads on every machine, so any drift is a code
change, not noise.
Wall-clock microbenchmarks (wire_codec) are archived but not gated.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.bench.experiments import EXPERIMENTS
from repro.bench.results import default_baseline_dir

__all__ = [
    "PROVENANCE_KEYS",
    "GATED_BENCHMARKS",
    "compare_results",
    "check_baseline",
    "default_baseline_dir",
]

#: Header keys recording where/when a result was produced — and, in a
#: committed baseline that was refreshed, the ``reason`` why; they differ
#: between the two sides by design and are never compared.
PROVENANCE_KEYS = frozenset(
    {"benchmark", "python", "platform", "generated_by", "reason"}
)

#: Benchmarks deterministic enough to gate (virtual-time simulations).
GATED_BENCHMARKS = tuple(
    name for name, experiment in EXPERIMENTS.items() if experiment.gated
)


def compare_results(
    baseline: Any, fresh: Any, rel_tol: float = 0.10, abs_tol: float = 1e-9
) -> list[str]:
    """Deviations between two result payloads, as human-readable strings.

    Numeric leaves pass when ``|fresh - base| <= rel_tol*|base| + abs_tol``;
    every other leaf must match exactly; both sides must have the same
    shape (keys, lengths, types).  Empty list means within tolerance.
    """
    deviations: list[str] = []
    _compare(baseline, fresh, rel_tol, abs_tol, "$", deviations)
    return deviations


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare(
    base: Any, fresh: Any, rel_tol: float, abs_tol: float,
    path: str, out: list[str],
) -> None:
    if _is_number(base) and _is_number(fresh):
        allowed = rel_tol * abs(base) + abs_tol
        if abs(fresh - base) > allowed:
            pct = (fresh - base) / base * 100.0 if base else float("inf")
            out.append(
                f"{path}: {fresh!r} deviates from baseline {base!r} "
                f"({pct:+.1f}%, tolerance ±{rel_tol * 100:.0f}%)"
            )
        return
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in sorted(base.keys() | fresh.keys()):
            if path == "$" and key in PROVENANCE_KEYS:
                continue
            if key not in fresh:
                out.append(f"{path}.{key}: missing from fresh results")
            elif key not in base:
                out.append(f"{path}.{key}: not in baseline")
            else:
                _compare(base[key], fresh[key], rel_tol, abs_tol,
                         f"{path}.{key}", out)
        return
    if isinstance(base, list) and isinstance(fresh, list):
        if len(base) != len(fresh):
            out.append(
                f"{path}: length {len(fresh)} differs from baseline "
                f"{len(base)}"
            )
            return
        for i, (b, f) in enumerate(zip(base, fresh)):
            _compare(b, f, rel_tol, abs_tol, f"{path}[{i}]", out)
        return
    if base != fresh:
        out.append(f"{path}: {fresh!r} differs from baseline {base!r}")


def check_baseline(
    name: str,
    baseline_dir: Path,
    fresh_dir: Path,
    rel_tol: float = 0.10,
) -> list[str]:
    """Compare ``BENCH_<name>.json`` across two directories."""
    filename = f"BENCH_{name}.json"
    baseline_path = baseline_dir / filename
    fresh_path = fresh_dir / filename
    if not baseline_path.exists():
        return [f"{filename}: no committed baseline in {baseline_dir}"]
    if not fresh_path.exists():
        return [f"{filename}: no fresh results in {fresh_dir}"]
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())
    return compare_results(baseline, fresh, rel_tol=rel_tol)
