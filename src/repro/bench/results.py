"""Machine-readable benchmark baselines (``BENCH_<name>.json``).

Benchmarks render human tables through :mod:`repro.bench.report`; this
module persists the same numbers as JSON so regressions are diffable in
review and CI can archive each run as an artifact.  Files land in the
repo root by default (that is where the committed baselines live);
``CORONA_BENCH_DIR`` redirects them, which CI uses to collect artifacts
without dirtying the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Any

__all__ = ["bench_dir", "default_baseline_dir", "save_results"]

_ENV_VAR = "CORONA_BENCH_DIR"


def default_baseline_dir() -> Path:
    """The repo root, where the committed ``BENCH_*.json`` files live."""
    # src/repro/bench/results.py -> repo root
    return Path(__file__).resolve().parents[3]


def bench_dir() -> Path:
    """Directory where BENCH_*.json files are written."""
    override = os.environ.get(_ENV_VAR)
    return Path(override) if override else default_baseline_dir()


def save_results(name: str, results: dict[str, Any]) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    ``results`` must be JSON-serializable; a small provenance header is
    added so a baseline can be traced to the interpreter that made it.
    """
    payload = {
        "benchmark": name,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        **results,
    }
    out = bench_dir() / f"BENCH_{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return out
