"""Command-line entry point: ``python -m repro.lint [paths] [options]``.

Exit codes: 0 = clean, 1 = findings reported, 2 = usage/configuration
error.  The CLI is stdlib-only (``argparse``) so the CI lint gate needs no
third-party installs.

Every run is one serial pass: each file is parsed once for the per-file
rules (R001–R009) and its whole-program summary, then the program rules
(R010–R014) run over the summaries.  ``--ignore R010,R011,R012,R013,R014``
reports the per-file findings alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import Linter
from repro.lint.program.driver import run_program_analysis  # registers R010-R014
from repro.lint.registry import rule_catalog
from repro.lint.reporters import REPORTERS

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _split_codes(values: list[str] | None) -> list[str]:
    out: list[str] = []
    for value in values or []:
        out.extend(code.strip() for code in value.split(",") if code.strip())
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism & contract linter for the repro codebase. "
            "Checks that RNGs are threaded from the SeedSequence tree, that "
            "optimizer/estimator contracts hold, and that the usual "
            "silent-nondeterminism footguns stay out of the tree. "
            "Whole-program passes (seed provenance, checkpoint schema "
            "symmetry, cross-module clock flow) run alongside the per-file "
            "rules."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="output format (default: text; sarif for GitHub annotations)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULES",
        help="comma-separated rule ids to run exclusively (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULES",
        help="comma-separated rule ids to skip (repeatable)",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        help="explicit pyproject.toml to read [tool.reprolint] from",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore pyproject.toml configuration entirely",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, name, summary in rule_catalog():
            print(f"{rule_id}  {name}: {summary}")
        return EXIT_CLEAN

    try:
        if args.no_config:
            config = LintConfig()
        else:
            explicit = Path(args.config) if args.config else None
            if explicit is not None and not explicit.is_file():
                print(f"error: config file not found: {explicit}", file=sys.stderr)
                return EXIT_ERROR
            config = load_config(path=explicit)
        config = config.merged_with_cli(
            _split_codes(args.select), _split_codes(args.ignore)
        )
        Linter(config)  # validate rule ids before any analysis
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: path(s) not found: {', '.join(missing)}", file=sys.stderr)
        return EXIT_ERROR

    result = run_program_analysis(args.paths, config)
    print(REPORTERS[args.format](result.reports))
    return EXIT_FINDINGS if result.findings else EXIT_CLEAN
