"""JSONL run telemetry.

One line per finished run *attempt*, appended the moment the scheduler
harvests it, so a long study can be tailed while it executes — plus one
``"event": "final"`` line per run when the study completes, which is the
compatibility view the Figure 9 overhead analysis reads:

.. code-block:: json

    {"event": "attempt", "attempt": 1, "run_index": 0, "status": "ok",
     "attempts": 1, "wall_seconds": 1.93, "suggest_seconds": 1.52,
     "eval_seconds": 0.33, "simulated_hours": 2.98, "n_iterations": 50,
     "n_failed_evals": 2, "tags": {"workload": "SYSBENCH", "optimizer": "smac"}}

A study killed mid-write leaves a torn trailing line;
:func:`read_telemetry` skips it (with a warning) instead of raising, so
the surviving records of an hours-long study stay readable.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Any, Iterable

from repro.parallel.spec import RunResult


def telemetry_record(
    result: RunResult,
    event: str | None = None,
    attempt: int | None = None,
) -> dict[str, Any]:
    """The JSON-serializable telemetry view of one run result.

    ``event`` tags the record kind (``"attempt"`` for streamed per-attempt
    records, ``"final"`` for the end-of-study state); ``attempt`` is the
    1-based attempt number the record describes.  Both are omitted when
    ``None`` so the historical record shape is a strict subset.
    """
    record: dict[str, Any] = {
        "run_index": result.run_index,
        "status": "failed" if result.failed else "ok",
        "attempts": result.attempts,
        "wall_seconds": round(result.wall_seconds, 6),
        "suggest_seconds": round(result.suggest_seconds, 6),
        "eval_seconds": round(result.eval_seconds, 6),
        "simulated_hours": round(result.simulated_hours, 6),
        "n_iterations": result.n_iterations,
        "n_failed_evals": result.n_failed_evals,
        "tags": result.tags,
    }
    if event is not None:
        record["event"] = event
    if attempt is not None:
        record["attempt"] = attempt
    if result.error is not None:
        record["error"] = result.error.splitlines()[0]
    # Resilience fields are included only when populated, so records for
    # failed runs (no session ran) and pre-resilience results loaded from
    # old checkpoints keep their historical shape.
    if result.stop_reason is not None:
        record["stop_reason"] = result.stop_reason
    if result.failure_kinds:
        record["failure_kinds"] = result.failure_kinds
    return record


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def append_telemetry_record(path: str, record: dict[str, Any]) -> None:
    """Durably append one record (open/write/flush/close per call).

    This is the streaming write path: each finished attempt costs one
    small append, the file is tailable immediately, and a crash can tear
    at most the line being written.
    """
    _ensure_parent(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
        fh.flush()


def write_telemetry(path: str, results: Iterable[RunResult]) -> None:
    """Append one ``"event": "final"`` JSON line per result to ``path``.

    Parent directories are created on demand so a mistyped path does
    not throw away the telemetry of an hours-long study at the end.
    """
    _ensure_parent(path)
    with open(path, "a", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps(telemetry_record(result, event="final")) + "\n")


def read_jsonl(path: str, kind: str) -> list[dict[str, Any]]:
    """Every record of a JSONL file, skipping a torn final line.

    A kill can land mid-append; the resulting torn trailing line is
    dropped with a warning naming the file's ``kind``.  A malformed line
    *before* intact ones still raises — that is corruption, not a crash
    artifact.
    """
    records: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    for i, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i < len(lines) - 1:
                raise
            warnings.warn(
                f"skipping torn final {kind} line in {path} "
                "(its writer was likely killed mid-append)",
                RuntimeWarning,
                stacklevel=3,
            )
    return records


def read_telemetry(path: str) -> list[dict[str, Any]]:
    """Read back all records, skipping a truncated final line."""
    return read_jsonl(path, "telemetry")


def final_records(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """The end-of-study view: one record per run.

    Records written before the streaming-telemetry change carry no
    ``event`` field and are treated as final for compatibility.
    """
    return [r for r in records if r.get("event", "final") == "final"]


def attempt_records(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """The per-attempt stream (one record per execution attempt)."""
    return [r for r in records if r.get("event") == "attempt"]
