"""The whole-program index: modules, symbols, classes, taint fixpoints.

Built from per-file :class:`~repro.lint.program.summary.FileSummary`
objects, one index per *analysis scope* (a top-level package, or a
directory of loose scripts).  It answers the cross-module questions the
program rules ask:

- symbol resolution across re-exports (``repro.parallel.derive_run_seeds``
  -> ``repro.parallel.spec.derive_run_seeds``);
- the transitive set of ``Optimizer`` subclasses, wherever they live;
- the global fixpoint of *seed-returning* and *clock-returning*
  functions, which upgrades per-file "depends on callee X" taint
  verdicts into definite ones;
- the union of attribute names ever read, so a seed stored to an
  attribute nobody reads still counts as dropped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.program.summary import ClassFacts, FileSummary, FunctionFacts


# ----------------------------------------------------------------------
# module naming
# ----------------------------------------------------------------------
def module_name_for(path: Path) -> tuple[str, str, bool]:
    """``(dotted module, top-level package, is_init)`` for a file.

    Walks up while ``__init__.py`` exists, so ``src/repro/lint/engine.py``
    maps to ``repro.lint.engine`` regardless of where the tree is rooted.
    Files outside any package get their stem as module name and ``""`` as
    package — they can still contribute and receive findings, but no one
    can import from them by dotted name.
    """
    path = Path(path)
    is_init = path.name == "__init__.py"
    parts: list[str] = [] if is_init else [path.stem]
    current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    parts.reverse()
    if not parts:
        return path.stem, "", is_init
    return ".".join(parts), parts[0], is_init


def group_by_scope(summaries: list[FileSummary]) -> list[list[FileSummary]]:
    """Partition summaries into analysis scopes.

    Files of the same top-level package form one scope wherever they sit
    on disk; loose files (no package) are grouped by parent directory so
    sibling scripts can still cross-reference.
    """
    groups: dict[str, list[FileSummary]] = {}
    for summary in summaries:
        if summary.package:
            key = f"pkg:{summary.package}"
        else:
            key = f"dir:{os.path.dirname(os.path.abspath(summary.path))}"
        groups.setdefault(key, []).append(summary)
    return [groups[key] for key in sorted(groups)]


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------
@dataclass
class IndexedClass:
    canonical: str  # "module.ClassName"
    summary: FileSummary
    facts: ClassFacts
    resolved_bases: list[str] = field(default_factory=list)


@dataclass
class IndexedFunction:
    canonical: str  # "module.func" / "module.Class.method"
    summary: FileSummary
    facts: FunctionFacts
    cls: str | None = None


class ProgramIndex:
    """Cross-module resolution over one analysis scope."""

    def __init__(self, summaries: list[FileSummary]) -> None:
        self.summaries = list(summaries)
        self.by_module: dict[str, FileSummary] = {}
        #: alias edges: "module.local_name" -> target dotted path
        self.symbols: dict[str, str] = {}
        self.classes: dict[str, IndexedClass] = {}
        self.functions: dict[str, IndexedFunction] = {}
        #: terminal name -> canonical function names
        self.by_terminal: dict[str, list[str]] = {}
        self.attr_loads: set[str] = set()

        for summary in self.summaries:
            if summary.module:
                self.by_module[summary.module] = summary
            self.attr_loads.update(summary.attr_loads)
            prefix = summary.module + "." if summary.module else ""
            for local, target in summary.aliases.items():
                self.symbols[prefix + local] = target
            for facts in summary.functions:
                self._add_function(prefix + facts.qualname, summary, facts, None)
            for cls in summary.classes:
                canonical = prefix + cls.name
                self.classes[canonical] = IndexedClass(canonical, summary, cls)
                for name, method in cls.methods.items():
                    self._add_function(
                        f"{canonical}.{name}", summary, method, cls.name
                    )

        for indexed in self.classes.values():
            indexed.resolved_bases = [
                self._resolve_base(indexed.summary, base)
                for base in indexed.facts.bases
            ]

        self._seed_fns: set[str] | None = None
        self._clock_fns: set[str] | None = None

    def _add_function(
        self,
        canonical: str,
        summary: FileSummary,
        facts: FunctionFacts,
        cls: str | None,
    ) -> None:
        self.functions[canonical] = IndexedFunction(canonical, summary, facts, cls)
        self.by_terminal.setdefault(facts.name, []).append(canonical)

    # ------------------------------------------------------------------
    def resolve(self, dotted: str) -> str:
        """Follow alias/re-export edges to a terminal dotted name.

        Handles both whole-name aliases (``repro.optimizers.Optimizer``
        re-exported from ``.base``) and aliased prefixes (``pkg.sub.f``
        where ``pkg.sub`` is itself a re-export), longest prefix first.
        """
        seen: set[str] = set()
        current = dotted
        while current not in seen:
            seen.add(current)
            if current in self.symbols:
                current = self.symbols[current]
                continue
            head = current
            rewritten = False
            while "." in head:
                head = head.rpartition(".")[0]
                if head in self.symbols:
                    current = self.symbols[head] + current[len(head):]
                    rewritten = True
                    break
            if not rewritten:
                break
        return current

    def _resolve_base(self, summary: FileSummary, base: str) -> str:
        """Canonicalize a raw class-base spelling from one file."""
        root, _, rest = base.partition(".")
        target = summary.aliases.get(root)
        if target is not None:
            dotted = f"{target}.{rest}" if rest else target
        elif summary.module and not rest:
            dotted = f"{summary.module}.{base}"
        else:
            dotted = base
        return self.resolve(dotted)

    # ------------------------------------------------------------------
    def optimizer_classes(self) -> dict[str, IndexedClass]:
        """Transitive subclasses of an Optimizer root, program-wide.

        Roots: any class literally named ``Optimizer`` or with an
        ``*Optimizer`` suffix (matching the per-file R004 convention, so
        fixture packages need no ``repro`` import to participate).
        """
        roots = {
            canonical
            for canonical, indexed in self.classes.items()
            if indexed.facts.name == "Optimizer"
            or indexed.facts.name.endswith("Optimizer")
        }
        members = set(roots)
        changed = True
        while changed:
            changed = False
            for canonical, indexed in self.classes.items():
                if canonical in members:
                    continue
                for base in indexed.resolved_bases:
                    if base in members or base.split(".")[-1] == "Optimizer":
                        members.add(canonical)
                        changed = True
                        break
        return {c: self.classes[c] for c in sorted(members)}

    # ------------------------------------------------------------------
    # taint fixpoints
    # ------------------------------------------------------------------
    def _dep_matches(self, dep: str, tainted: set[str], lenient: bool) -> bool:
        if dep.startswith("?"):
            if not lenient:
                return False
            terminal = dep[1:]
            return any(c in tainted for c in self.by_terminal.get(terminal, ()))
        resolved = self.resolve(dep)
        if resolved in tainted:
            return True
        if lenient:
            terminal = resolved.rsplit(".", 1)[-1]
            return any(c in tainted for c in self.by_terminal.get(terminal, ()))
        return False

    def _fixpoint(self, color: str, lenient: bool) -> set[str]:
        definite_attr = f"return_{color}_definite"
        deps_attr = f"return_{color}_deps"
        tainted = {
            canonical
            for canonical, fn in self.functions.items()
            if getattr(fn.facts, definite_attr)
        }
        changed = True
        while changed:
            changed = False
            for canonical, fn in self.functions.items():
                if canonical in tainted:
                    continue
                deps = getattr(fn.facts, deps_attr)
                if any(self._dep_matches(d, tainted, lenient) for d in deps):
                    tainted.add(canonical)
                    changed = True
        return tainted

    def seed_returning_functions(self) -> set[str]:
        """Functions whose return value carries seed provenance.

        Matched *leniently* (by terminal name when the callee could not
        be resolved): over-tainting only silences R010, never pages.
        """
        if self._seed_fns is None:
            self._seed_fns = self._fixpoint("seed", lenient=True)
        return self._seed_fns

    def clock_returning_functions(self) -> set[str]:
        """Functions whose return value derives from the wall clock.

        Matched *strictly* (resolved names only): a lenient match here
        would page humans about flows that may not exist.
        """
        if self._clock_fns is None:
            self._clock_fns = self._fixpoint("clock", lenient=False)
        return self._clock_fns

    def seed_dep_tainted(self, deps: list[str]) -> bool:
        tainted = self.seed_returning_functions()
        return any(self._dep_matches(d, tainted, lenient=True) for d in deps)

    def clock_dep_tainted(self, deps: list[str]) -> bool:
        tainted = self.clock_returning_functions()
        return any(self._dep_matches(d, tainted, lenient=False) for d in deps)

    # ------------------------------------------------------------------
    def all_functions(self) -> list[IndexedFunction]:
        return [self.functions[name] for name in sorted(self.functions)]
