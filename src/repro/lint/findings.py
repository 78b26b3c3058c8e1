"""Finding and suppression primitives shared by the engine and reporters."""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Rule id reserved for engine-level diagnostics about suppression comments.
SUPPRESSION_RULE_ID = "R000"
#: Rule id reserved for files the engine cannot parse.
PARSE_ERROR_RULE_ID = "E001"

#: ``# reprolint: disable=R001,R002 <mandatory reason>``.  Codes must match
#: ``R<3 digits>`` (or the literal ``all``) exactly — anything else is not
#: treated as a suppression, so the underlying finding still surfaces.
#: Whitespace is tolerated around the commas (``disable=R001, R002 why``);
#: every listed code is honored, not just the first.
_SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*disable="
    r"(?P<codes>(?:[A-Z]\d{3}|all)(?:\s*,\s*(?:[A-Z]\d{3}|all))*)"
    r"(?:[ \t]+(?P<reason>\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class Suppression:
    """An inline ``# reprolint: disable=...`` comment."""

    line: int
    codes: frozenset[str]
    reason: str

    def covers(self, rule_id: str) -> bool:
        return rule_id in self.codes or "all" in self.codes


def scan_suppressions(
    path: str, lines: list[str]
) -> tuple[dict[int, Suppression], list[Finding]]:
    """Extract suppression comments from raw source lines.

    Returns a ``{line_no: Suppression}`` map (1-based) plus R000 findings
    for suppressions missing their mandatory reason string.  R000 findings
    cannot themselves be suppressed — the whole point of the mandatory
    reason is an auditable paper trail.
    """
    suppressions: dict[int, Suppression] = {}
    findings: list[Finding] = []
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        codes = frozenset(c.strip() for c in match.group("codes").split(",") if c.strip())
        reason = (match.group("reason") or "").strip()
        if not reason:
            findings.append(
                Finding(
                    rule=SUPPRESSION_RULE_ID,
                    path=path,
                    line=lineno,
                    col=match.start() + 1,
                    message=(
                        "suppression is missing its mandatory reason string "
                        "(`# reprolint: disable=RXXX <why this is safe>`)"
                    ),
                )
            )
            continue
        suppressions[lineno] = Suppression(line=lineno, codes=codes, reason=reason)
    return suppressions, findings
