"""Uniform per-line suppression for every analysis family.

Two comment spellings silence findings on their line, for all rule
families (DET/NET/LOCK/WIRE/PERF/EFF and the deepcheck SHARD/SCHED/BLOCK
rules) alike:

* ``# corona: noqa`` / ``# corona: noqa(DET001, BLOCK002)`` — the
  project-native form;
* ``# noqa`` / ``# noqa: DET001,BLOCK002`` — the standard form most
  editors and reviewers already know.

A bare suppression (either spelling, no rule list) silences every rule
on the line; a rule list silences exactly the named rules.  Suppressions
should carry a justifying comment after the directive.
"""

from __future__ import annotations

import re

from repro.analysis.findings import Finding

__all__ = ["line_suppresses", "filter_suppressed"]

_CORONA_NOQA = re.compile(r"#\s*corona:\s*noqa(?:\(([A-Za-z0-9_,\s]*)\))?")
_STD_NOQA = re.compile(r"#\s*noqa(?::\s*([A-Za-z0-9_,\s]+))?", re.IGNORECASE)


def _named_rules(spec: str | None) -> set[str] | None:
    """Rule ids from a directive's list; None means "all rules"."""
    if spec is None or not spec.strip():
        return None
    return {part.strip().upper() for part in spec.split(",") if part.strip()}


def line_suppresses(line: str, rule_id: str) -> bool:
    """True when *line* carries a noqa directive covering *rule_id*."""
    for pattern in (_CORONA_NOQA, _STD_NOQA):
        match = pattern.search(line)
        if match is None:
            continue
        named = _named_rules(match.group(1))
        if named is None or rule_id.upper() in named:
            return True
    return False


def filter_suppressed(findings: list[Finding], lines: list[str]) -> list[Finding]:
    """Drop findings whose source line carries a covering directive."""
    kept = []
    for finding in findings:
        if 1 <= finding.line <= len(lines) and line_suppresses(
            lines[finding.line - 1], finding.rule_id
        ):
            continue
        kept.append(finding)
    return kept
