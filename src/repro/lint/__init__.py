"""repro.lint — AST-based determinism & contract linter for this repository.

The repository's headline guarantee — bit-identical serial/parallel
experiment histories — only holds while every random number consumed under
``src/repro`` is threaded from the ``SeedSequence`` tree rather than pulled
from global state.  This package turns that convention (and a handful of
neighbouring reproducibility contracts) into machine-checked rules:

========  =============================================================
Rule      What it catches
========  =============================================================
R001      Seedless RNG: ``np.random.default_rng()`` with no argument and
          any module-level-state call (``random.random()``,
          ``np.random.rand()``, ...).
R002      Shadow RNG streams: a generator created from nothing (or a
          hard-coded constant) inside a function that already receives
          an ``rng``/``seed`` parameter.
R003      Iteration over ``set(...)`` / ``.keys()`` feeding ordered
          output (the fig6 bug class).
R004      Optimizer/estimator contract: ``suggest``/``observe``
          signatures, ``seed`` parameters on randomized components.
R005      Mutable default arguments.
R006      Bare ``except:`` and ``except Exception: pass`` handlers that
          swallow evaluation failures.
R007      Wall-clock reads (``time.time()``, ``datetime.now()``) in
          result-producing code.
R008      Float ``==``/``!=`` against non-sentinel literals.
R009      Catch-all ``except`` handlers that neither re-raise nor record
          a classified failure (Observation / RunResult / FailureKind).
R010      Whole-program: an RNG sink reachable without any tainted seed
          flowing into it (seed provenance broken across modules).
R011      Whole-program: a function accepts a seed but never threads it
          to any RNG, callee, return, or stored attribute (dropped seed).
R012      Whole-program: call sites invoking ``suggest``/``observe`` with
          a shape no registered Optimizer accepts (and drifted defs).
R013      Whole-program: checkpoint schema asymmetry between
          ``*_to_record`` writers and ``record_to_*`` readers.
R014      Whole-program: wall-clock values flowing into recorded or
          fingerprinted payloads via the call graph.
========  =============================================================

Findings are suppressed inline with ``# reprolint: disable=RXXX <reason>``;
the reason string is mandatory (a reason-less suppression is itself reported
as R000).  Configuration lives in ``[tool.reprolint]`` in ``pyproject.toml``.

Each run is one serial pass: every file is read, parsed and walked once
for the per-file rules and its whole-program summary, then R010–R014 run
over the summaries.  Usage::

    python -m repro.lint src tests --format json

The framework is stdlib-only (``ast`` + ``argparse``); see
``docs/LINTING.md`` for the full rule catalog and suppression policy.
"""

from __future__ import annotations

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import FileReport, Linter
from repro.lint.findings import Finding
from repro.lint.registry import RULES, Rule, rule_catalog

#: Engine version, reported as the tool version in SARIF output.
ENGINE_VERSION = "2.0"

__all__ = [
    "ENGINE_VERSION",
    "Finding",
    "FileReport",
    "LintConfig",
    "Linter",
    "RULES",
    "Rule",
    "load_config",
    "rule_catalog",
]
