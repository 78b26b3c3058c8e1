"""repro.lint.program — whole-program analysis layer.

The per-file rules (R001–R009) see one AST at a time; this package sees
the project.  It builds a module/import graph with symbol resolution
across a package (``from x import y``, aliases, ``__init__`` re-exports),
extracts a compact :class:`~repro.lint.program.summary.FileSummary` per
file (from the per-file pass's parse and node list), and runs
cross-module rules over the resulting :class:`ProgramIndex`:

========  =============================================================
R010      RNG sink reachable without a tainted seed: ``default_rng(x)``
          where ``x`` never derives from the seed the scope received.
R011      Dropped seed: a ``seed``/``rng`` parameter accepted but never
          forwarded to a sink or sub-component.
R012      Optimizer call-site contract: ``suggest``/``observe``
          signatures validated against every call site, program-wide.
R013      Checkpoint schema symmetry: fields written by ``*_to_record``
          must be read by ``record_to_*`` and vice versa.
R014      Wall-clock flowing into recorded/fingerprinted values through
          any chain of calls.  It complements the file-local R007, which
          flags every clock read; R014 only fires where a value reaches
          a record-building function or a hash/serialization sink.
========  =============================================================

Whole-program analysis is cheap enough to gate CI as one serial pass:
each file is read, parsed and walked once, and the program rules run
over the summaries.
"""

from __future__ import annotations

from repro.lint.program import passes as _passes  # noqa: F401 — registers R010-R014
from repro.lint.program.driver import ProgramResult, run_program_analysis
from repro.lint.program.graph import ProgramIndex
from repro.lint.program.summary import FileSummary, extract_summary

__all__ = [
    "FileSummary",
    "ProgramIndex",
    "ProgramResult",
    "extract_summary",
    "run_program_analysis",
]
