"""tools/ab_real.py: the paired-difference column and its interval.

The tool itself is run by hand (timings from a shared runner gate
nothing); what is pinned here is that one function produces both the
number shown and the interval around it, deterministically.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def ab_real():
    spec = importlib.util.spec_from_file_location(
        "ab_real", REPO_ROOT / "tools" / "ab_real.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [100.0, 110.0, 90.0, 105.0, 95.0, 100.0, 102.0, 98.0, 101.0, 99.0]
HEAD = [65.0, 70.0, 60.0, 70.0, 61.0, 66.0, 66.0, 63.0, 66.0, 64.0]


def test_interval_brackets_the_paired_median_and_repeats(ab_real):
    change, low, high = ab_real.paired_change(BASE, HEAD)
    ratios = sorted(h / b - 1 for b, h in zip(BASE, HEAD))
    assert change == pytest.approx((ratios[4] + ratios[5]) / 2)
    assert ratios[0] <= low <= change <= high <= ratios[-1]
    assert low < high
    assert ab_real.paired_change(BASE, HEAD) == (change, low, high)
    assert ab_real.RESAMPLES >= 2000


def test_pairing_cancels_what_both_sides_share(ab_real):
    # every pair ran 10 % faster on the head, but the seeds differ 3x
    # among themselves: unpaired quartiles overlap, the pairs do not
    base = [100.0, 200.0, 300.0, 150.0]
    head = [90.0, 180.0, 270.0, 135.0]
    change, low, high = ab_real.paired_change(base, head)
    assert (change, low, high) == pytest.approx((-0.1, -0.1, -0.1))
    assert ab_real.paired_change(base, base) == (0.0, 0.0, 0.0)


def test_report_prints_the_column(ab_real):
    specs = [{"name": "m", "unit": "us", "better": "lower"}]
    runs = [
        (seed, {
            side: {"failed": 0, "attempted": 5, "metrics": {"m": {"value": v}}}
            for side, v in (("base", b), ("head", h))
        })
        for seed, (b, h) in enumerate(zip(BASE, HEAD), start=1)
    ]
    table = ab_real.report("w", specs, runs)
    change, low, high = ab_real.paired_change(BASE, HEAD)
    assert f"| {change:+.1%} [{low:+.1%}, {high:+.1%}] | 10/10 |" in table
