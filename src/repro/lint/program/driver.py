"""Orchestration: discover → parse once, per-file rules + summary → program rules.

``run_program_analysis`` is the entry point the CLI calls.  It subsumes
the per-file pass: every file is read and parsed once, gets its per-file
findings exactly as ``Linter.lint_file`` produces them, and yields a
:class:`~repro.lint.program.summary.FileSummary` extracted from the same
parse.  Summaries are grouped into analysis scopes and the whole-program
rules (R010–R014) run over a
:class:`~repro.lint.program.graph.ProgramIndex` per scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.lint.config import LintConfig
from repro.lint.engine import FileReport, Linter, discover_files
from repro.lint.findings import Finding
from repro.lint.program import passes as _passes  # noqa: F401 — registers R010-R014
from repro.lint.program.graph import ProgramIndex, group_by_scope, module_name_for
from repro.lint.program.summary import FileSummary, extract_summary
from repro.lint.registry import RULES


@dataclass
class ProgramResult:
    """Outcome of one whole-program lint run."""

    reports: list[FileReport] = field(default_factory=list)

    @property
    def findings(self) -> list[Finding]:
        return [f for report in self.reports for f in report.findings]


def run_program_analysis(
    paths: Sequence[str | Path], config: LintConfig
) -> ProgramResult:
    """Lint ``paths`` with both the per-file and whole-program rules."""
    linter = Linter(config)  # validates select/ignore rule ids up front
    reports: dict[str, FileReport] = {}
    summaries: list[FileSummary] = []
    for path in discover_files(paths, config):
        report, ctx, suppressions = linter.lint_file_full(path)
        reports[report.path] = report
        if ctx is not None:
            module, package, is_init = module_name_for(path)
            summaries.append(
                extract_summary(
                    ctx,
                    module,
                    package,
                    is_init,
                    suppressions={
                        line: sorted(s.codes) for line, s in suppressions.items()
                    },
                )
            )

    rules = [cls() for _, cls in sorted(RULES.items()) if cls.scope == "program"]
    program_ids = sorted(rule.id for rule in rules)
    for scope in group_by_scope(summaries):
        index = ProgramIndex(scope)
        suppression_map = {s.path: s.suppressions for s in scope}
        for rule in rules:
            for finding in rule.check_program(index):
                report = reports[finding.path]
                active = config.rules_for(Path(finding.path), program_ids)
                if finding.rule not in active:
                    continue
                codes = suppression_map[finding.path].get(finding.line)
                if codes and (finding.rule in codes or "all" in codes):
                    report.suppressed.append(finding)
                else:
                    report.findings.append(finding)

    for report in reports.values():
        report.findings.sort(key=Finding.sort_key)
        report.suppressed.sort(key=Finding.sort_key)
    return ProgramResult(reports=[reports[p] for p in sorted(reports)])


__all__ = ["ProgramResult", "run_program_analysis"]
