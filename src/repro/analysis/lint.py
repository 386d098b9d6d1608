"""coronalint driver: config, file walking, suppression, reporting.

Usage from the CLI (``repro lint src/ --strict``), from tests
(:func:`lint_source`), and from CI.  Configuration lives in
``[tool.corona-lint]`` in ``pyproject.toml``:

.. code-block:: toml

    [tool.corona-lint]
    exclude = ["tests", "benchmarks"]        # path substrings to skip
    rules = ["DET001", "DET002", ...]        # enable list (default: all)

    [tool.corona-lint.per-rule-exclude]      # replaces built-in scopes
    DET001 = ["repro.core.clock", "repro.runtime"]

Suppression is per line: ``# corona: noqa`` silences every rule on that
line, ``# corona: noqa(DET003)`` (comma-separated ids allowed) silences
only the named rules.  Suppressions should carry a justifying comment.
"""

from __future__ import annotations

import ast
import subprocess
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from repro.analysis.deepcheck import ALL_DEEP_RULES, DEEP_RULES
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import (
    DEFAULT_EXCLUDES,
    RULE_DOCS,
    ModuleInfo,
    check_module,
)
from repro.analysis.suppress import line_suppresses
from repro.analysis.wirecheck import check_wire_module, module_defines_messages

__all__ = [
    "LintConfig",
    "load_config",
    "lint_paths",
    "lint_source",
    "changed_paths",
    "ALL_RULES",
]

ALL_RULES: tuple[str, ...] = tuple(sorted(RULE_DOCS))

#: Every id the config (per-rule-exclude, noqa) may legally name: the
#: per-file rules plus the whole-program deepcheck rules.
KNOWN_RULES: frozenset[str] = frozenset(RULE_DOCS) | frozenset(DEEP_RULES)


@dataclass
class LintConfig:
    """Effective linter configuration."""

    rules: tuple[str, ...] = ALL_RULES
    #: Path substrings that exclude a file entirely.
    exclude_paths: tuple[str, ...] = ()
    #: rule id -> module-name prefixes the rule does not apply to.
    #: Shared by the per-file rules and the deepcheck rule families.
    per_rule_exclude: dict[str, tuple[str, ...]] = dc_field(
        default_factory=lambda: dict(DEFAULT_EXCLUDES)
    )
    #: Whole-program rules ``repro deepcheck`` runs (SHARD/SCHED/BLOCK).
    deepcheck_rules: tuple[str, ...] = ALL_DEEP_RULES
    #: Committed known-findings file ``repro deepcheck`` diffs against.
    deepcheck_baseline: str = "deepcheck-baseline.json"


def load_config(pyproject: Path | None = None) -> LintConfig:
    """Build a :class:`LintConfig` from ``[tool.corona-lint]``.

    Missing file or section (or a Python without ``tomllib``) yields the
    built-in defaults, so the linter always runs.  A rule id the table
    names that no checker defines raises :class:`ValueError` naming it:
    a typo or a retired id would otherwise turn nothing on, silently.
    """
    config = LintConfig()
    if pyproject is None or not pyproject.is_file():
        return config
    try:
        import tomllib
    except ImportError:  # pragma: no cover - py3.10 fallback
        return config
    try:
        table = tomllib.loads(pyproject.read_text()).get("tool", {}).get(
            "corona-lint", {}
        )
    except tomllib.TOMLDecodeError:
        return config
    per_rule_exclude = table.get("per-rule-exclude", {})
    unknown = [
        *(rule for rule in table.get("rules", ()) if rule not in RULE_DOCS),
        *(rule for rule in table.get("deepcheck-rules", ())
          if rule not in DEEP_RULES),
        *(rule for rule in per_rule_exclude if rule not in KNOWN_RULES),
    ]
    if unknown:
        raise ValueError(
            f"unknown rule id(s) in {pyproject}: {', '.join(unknown)}"
        )
    if "rules" in table:
        config.rules = tuple(table["rules"])
    if "deepcheck-rules" in table:
        config.deepcheck_rules = tuple(table["deepcheck-rules"])
    if "deepcheck-baseline" in table:
        config.deepcheck_baseline = str(table["deepcheck-baseline"])
    if "exclude" in table:
        config.exclude_paths = tuple(table["exclude"])
    for rule_id, prefixes in per_rule_exclude.items():
        config.per_rule_exclude[rule_id] = tuple(prefixes)
    return config


def changed_paths(repo_root: Path | None = None, base: str = "HEAD") -> list[Path]:
    """The ``.py`` files touched relative to *base* per ``git diff``,
    plus untracked ones — the file set behind ``repro lint --changed``.

    Returns an empty list when git is unavailable or the directory is
    not a repository (callers fall back to a full run or a clean exit).
    """
    root = Path(repo_root) if repo_root is not None else Path(".")
    out: list[Path] = []
    for args in (
        ["git", "diff", "--name-only", base, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                args, cwd=root, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return []
        if proc.returncode != 0:
            return []
        for line in proc.stdout.splitlines():
            name = line.strip()
            if name.endswith(".py"):
                path = root / name
                if path.is_file():
                    out.append(path)
    return sorted(set(out))


def _module_name(path: Path) -> str:
    """Dotted module name used for rule scoping.

    The name starts at the ``repro`` package when the path contains one
    (``src/repro/core/state.py`` -> ``repro.core.state``); otherwise it is
    just the file stem, which makes every rule apply to loose files.
    """
    parts = list(path.parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = [path.name]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _scoped_rules(config: LintConfig, module: str) -> list[str]:
    scoped = []
    for rule_id in config.rules:
        excludes = config.per_rule_exclude.get(rule_id, ())
        if any(module == p or module.startswith(p + ".") for p in excludes):
            continue
        scoped.append(rule_id)
    return scoped


def _suppressed(finding: Finding, lines: list[str]) -> bool:
    # shared with deepcheck: both spellings, multi-rule lists
    if not 1 <= finding.line <= len(lines):
        return False
    return line_suppresses(lines[finding.line - 1], finding.rule_id)


def lint_source(source: str, path: str, config: LintConfig | None = None) -> list[Finding]:
    """Lint one in-memory module; *path* drives rule scoping."""
    config = config or LintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule_id="PARSE",
                severity=Severity.ERROR,
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"cannot parse module: {exc.msg}",
            )
        ]
    module = _module_name(Path(path))
    info = ModuleInfo(path=path, module=module, tree=tree, source=source)
    rule_ids = _scoped_rules(config, module)
    findings = check_module(info, rule_ids)
    if "WIRE001" in rule_ids and module_defines_messages(tree):
        findings.extend(check_wire_module(info))
    lines = source.splitlines()
    findings = [f for f in findings if not _suppressed(f, lines)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def _iter_py_files(paths: list[Path], config: LintConfig) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    out = []
    for file in files:
        posix = file.as_posix()
        if any(part.startswith(".") for part in file.parts):
            continue
        if any(pattern in posix for pattern in config.exclude_paths):
            continue
        out.append(file)
    return out


def lint_paths(paths: list[Path], config: LintConfig | None = None) -> list[Finding]:
    """Lint every ``.py`` file under *paths*; returns sorted findings."""
    config = config or LintConfig()
    findings: list[Finding] = []
    for file in _iter_py_files(paths, config):
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(
                    rule_id="PARSE",
                    severity=Severity.ERROR,
                    path=file.as_posix(),
                    line=0,
                    col=0,
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        findings.extend(lint_source(source, file.as_posix(), config))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings
