"""The per-file visitor engine: discovery, rule dispatch, suppressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.lint import rules as _rules  # noqa: F401 — populates the registry
from repro.lint.config import LintConfig
from repro.lint.context import FileContext
from repro.lint.findings import (
    PARSE_ERROR_RULE_ID,
    SUPPRESSION_RULE_ID,
    Finding,
    Suppression,
    scan_suppressions,
)
from repro.lint.registry import RULES, Rule


@dataclass
class FileReport:
    """Outcome of linting one file."""

    path: str
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def discover_files(paths: Sequence[str | Path], config: LintConfig) -> list[Path]:
    """Expand files/directories into the sorted list of ``.py`` targets,
    honouring the config's ``exclude`` patterns."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen or config.is_excluded(candidate):
                continue
            seen.add(resolved)
            out.append(candidate)
    return sorted(out)


class Linter:
    """Runs the registered rules over files, applying config and
    suppression comments."""

    def __init__(self, config: LintConfig | None = None) -> None:
        self.config = config if config is not None else LintConfig()
        unknown = sorted(
            (set(self.config.select) | set(self.config.ignore))
            - set(RULES)
            - {SUPPRESSION_RULE_ID}
        )
        if unknown:
            raise ValueError(f"unknown rule id(s) in configuration: {', '.join(unknown)}")
        # Program-scope rules (R010+) need the whole-program index and are
        # dispatched by repro.lint.program.driver, not per file.
        self._rules: dict[str, Rule] = {
            rid: cls() for rid, cls in sorted(RULES.items()) if cls.scope == "file"
        }

    # ------------------------------------------------------------------
    def lint_file(self, path: str | Path) -> FileReport:
        report, _ctx, _suppressions = self.lint_file_full(path)
        return report

    def lint_file_full(
        self, path: str | Path
    ) -> tuple[FileReport, FileContext | None, dict[int, Suppression]]:
        """Read ``path`` (an unreadable file is an E001) and lint it with
        :meth:`lint_source_full`."""
        path = Path(path)
        report = FileReport(path=str(path))
        try:
            # utf-8-sig: a UTF-8 BOM is metadata, not source — strip it so
            # BOM'd files lint like any other instead of tripping the parser.
            source = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            report.findings.append(
                Finding(PARSE_ERROR_RULE_ID, str(path), 1, 1, f"cannot read file: {exc}")
            )
            return report, None, {}
        return self.lint_source_full(source, str(path), report)

    def lint_source(
        self, source: str, path: str = "<string>", report: FileReport | None = None
    ) -> FileReport:
        report, _ctx, _suppressions = self.lint_source_full(source, path, report)
        return report

    def lint_source_full(
        self, source: str, path: str = "<string>", report: FileReport | None = None
    ) -> tuple[FileReport, FileContext | None, dict[int, Suppression]]:
        """Like :meth:`lint_source`, but also returns the parsed context and
        suppression map so the whole-program driver can extract its file
        summary from the same parse instead of re-reading the source."""
        report = report if report is not None else FileReport(path=path)
        if source.startswith("\ufeff"):  # BOM survives direct lint_source calls
            source = source.lstrip("\ufeff")
        lines = source.splitlines()
        suppressions, suppression_findings = scan_suppressions(path, lines)
        report.findings.extend(suppression_findings)
        try:
            ctx = FileContext.parse(path, source)
        except SyntaxError as exc:
            report.findings.append(
                Finding(
                    PARSE_ERROR_RULE_ID,
                    path,
                    exc.lineno or 1,
                    (exc.offset or 0) + 1 if exc.offset is not None else 1,
                    f"syntax error: {exc.msg}",
                )
            )
            return report, None, suppressions
        except ValueError as exc:
            # e.g. null bytes: older interpreters raise ValueError rather
            # than SyntaxError; either way it is an E001, not a traceback.
            report.findings.append(
                Finding(PARSE_ERROR_RULE_ID, path, 1, 1, f"cannot parse file: {exc}")
            )
            return report, None, suppressions
        active = self.config.rules_for(Path(path), sorted(self._rules))
        for rule_id in active:
            rule = self._rules[rule_id]
            for finding in rule.check(ctx):
                suppression = suppressions.get(finding.line)
                if suppression is not None and suppression.covers(finding.rule):
                    report.suppressed.append(finding)
                else:
                    report.findings.append(finding)
        report.findings.sort(key=Finding.sort_key)
        report.suppressed.sort(key=Finding.sort_key)
        return report, ctx, suppressions


__all__ = [
    "FileReport",
    "Linter",
    "discover_files",
]
