"""Per-file analysis context: parsed AST, import alias map, name resolution.

Rules operate on a :class:`FileContext` rather than a bare ``ast.Module`` so
they can resolve local names (``np``, ``default_rng``) back to canonical
dotted paths (``numpy.random.default_rng``) regardless of how the module
spelled its imports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable


def collect_aliases(
    nodes: Iterable[ast.AST], package_parts: list[str] | None = None
) -> dict[str, str]:
    """Map local names to the canonical dotted path they were imported as.

    ``import numpy as np``                 -> ``{"np": "numpy"}``
    ``from numpy import random as npr``    -> ``{"npr": "numpy.random"}``
    ``from numpy.random import default_rng`` ->
    ``{"default_rng": "numpy.random.default_rng"}``

    Relative imports are resolved against ``package_parts``, the dotted
    parts of the importing module's package; with ``None`` they are
    skipped.  Only ``import`` statements (at any depth) are considered;
    attribute reassignments are out of scope for a linter.
    """
    aliases: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                target = item.name if item.asname else item.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            elif package_parts is None or node.level - 1 > len(package_parts):
                continue  # per-file view, or beyond the analyzed root
            else:
                up = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(up + ([node.module] if node.module else []))
            if not base:
                continue
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{base}.{item.name}"
    return aliases


def attribute_chain(node: ast.expr) -> list[str] | None:
    """``np.random.default_rng`` -> ``["np", "random", "default_rng"]``.

    Returns ``None`` for expressions that are not a plain dotted name
    (calls, subscripts, literals, ...).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


@dataclass
class FileContext:
    """Everything a rule needs to analyze one file."""

    path: str
    tree: ast.Module = field(default_factory=ast.Module)
    #: Every node of ``tree`` in ``ast.walk`` (breadth-first) order — the
    #: file's one traversal, shared by the rules and summary extraction.
    nodes: list[ast.AST] = field(default_factory=list)
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        nodes = list(ast.walk(tree))
        return cls(
            path=path,
            tree=tree,
            nodes=nodes,
            aliases=collect_aliases(nodes),
        )

    # ------------------------------------------------------------------
    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted path of a name/attribute expression, if its
        root is an imported module or object; ``None`` otherwise.

        ``self.rng.normal`` resolves to ``None`` (root is a local name),
        so instance-level generator calls are never mistaken for
        module-level state.
        """
        chain = attribute_chain(node)
        if chain is None:
            return None
        root, rest = chain[0], chain[1:]
        target = self.aliases.get(root)
        if target is None:
            return None
        return ".".join([target, *rest])
