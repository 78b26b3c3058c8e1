"""Rule base class and the global rule registry."""

from __future__ import annotations

from typing import Iterable, Type

from repro.lint.context import FileContext
from repro.lint.findings import Finding


class Rule:
    """One lint rule: an id, a human summary, and a per-file check.

    Subclasses set the class attributes and implement :meth:`check`, which
    yields :class:`Finding` objects for one parsed file.  Rules must be
    stateless across files — the engine instantiates each rule once per
    run and calls ``check`` per file.
    """

    #: Stable identifier, ``R`` + three digits (used in suppressions/config).
    id: str = ""
    #: Short kebab-case name shown in ``--list-rules``.
    name: str = ""
    #: One-line rationale shown in ``--list-rules`` and docs.
    summary: str = ""
    #: ``"file"`` rules run per file on a :class:`FileContext`;
    #: ``"program"`` rules run once over the whole-program index (see
    #: :mod:`repro.lint.program`) and are skipped by the per-file engine.
    scope: str = "file"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(self, ctx: FileContext, node, message: str) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


class ProgramRule(Rule):
    """A rule that needs the whole-program index rather than one file.

    Subclasses implement :meth:`check_program`; the per-file engine skips
    them (``scope == "program"``) and the program driver runs them after
    every file summary is available.
    """

    scope = "program"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_program(self, index) -> Iterable[Finding]:
        """Yield findings over a :class:`repro.lint.program.ProgramIndex`."""
        raise NotImplementedError


#: Registry of all known rules, keyed by rule id.
RULES: dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id or not cls.name:
        raise ValueError(f"rule {cls.__name__} must define `id` and `name`")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


def rule_catalog() -> list[tuple[str, str, str]]:
    """``(id, name, summary)`` triples, sorted by rule id."""
    return sorted((rid, r.name, r.summary) for rid, r in RULES.items())
