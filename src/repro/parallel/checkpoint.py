"""Checkpoint/resume for long studies.

The paper's headline cost — 10+ hours for one 200-iteration tuning
session (§4.1) — means a study interrupted near the end must never
re-run its finished work.  This module makes run results durable:

- :func:`spec_key` derives a content hash of a :class:`RunSpec` that is
  stable across processes and restarts, so a resumed study can recognize
  "the same run" without trusting object identity or list positions.
- :func:`result_to_record` / :func:`record_to_result` serialize a full
  :class:`RunResult` — including every observation of its history — to a
  JSON record and back.  Floats round-trip exactly (``json`` emits
  ``repr``-precision), so a reloaded history is value-identical to the
  one that was executed.
- :class:`StudyCheckpoint` is an append-only JSONL file of completed
  results keyed by :func:`spec_key`.  Each record is appended the moment
  its run finishes, so a study killed mid-flight keeps everything it had
  completed; the reader tolerates a torn final line (a kill mid-write).
- :func:`history_fingerprint` / :func:`result_fingerprint` hash the
  *deterministic projection* of a result (configs, objectives, scores,
  failure flags, simulated time — never host wall-clock), which is what
  kill-and-resume equivalence is asserted on byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any

import numpy as np

from repro.optimizers.base import History, Observation
from repro.parallel.spec import RunResult, RunSpec
from repro.parallel.telemetry import read_jsonl
from repro.resilience.taxonomy import FailureKind
from repro.space import Configuration, ConfigurationSpace


# ----------------------------------------------------------------------
# canonical JSON helpers
# ----------------------------------------------------------------------
def _native(value: Any) -> Any:
    """Convert numpy scalars to the equivalent builtin (value-exact)."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, default=_native)


# ----------------------------------------------------------------------
# spec identity
# ----------------------------------------------------------------------
def _describe(obj: Any) -> str | None:
    """A process-stable description of an optimizer factory / objective.

    Dataclasses (e.g. ``RegistryOptimizerFactory``, the fault injectors)
    have deterministic reprs.  Any other object is refused: the reprs of
    its attributes may embed memory addresses, which would give one spec
    a different key in every process and silently re-run it on resume.
    """
    if obj is None:
        return None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return repr(obj)
    raise ValueError(
        f"cannot derive a checkpoint key from a {type(obj).__qualname__}: "
        "only dataclasses describe themselves the same way in every process"
    )


def _describe_space(space: ConfigurationSpace) -> list[str]:
    out = []
    for knob in space.knobs:
        bounds = ""
        lower = getattr(knob, "lower", None)
        upper = getattr(knob, "upper", None)
        choices = getattr(knob, "choices", None)
        if lower is not None or upper is not None:
            bounds = f"[{lower!r},{upper!r}]"
        elif choices is not None:
            bounds = repr(tuple(choices))
        out.append(f"{type(knob).__name__}:{knob.name}={knob.default!r}{bounds}")
    return out


def spec_key(spec: RunSpec) -> str:
    """Content hash identifying one run across processes and restarts.

    Covers everything that determines the run's results: workload,
    instance, budget, the seed triple, the knob space, the optimizer
    factory/instance, the objective, and the warm start.  Deliberately
    excludes ``iteration_hook`` (observers must not affect results, so a
    study resumed with its fault injectors removed still matches) and
    ``tags`` (display metadata).  Raises ``ValueError`` when the
    optimizer (or its factory) or the objective is not a dataclass.
    """
    payload = {
        "run_index": spec.run_index,
        "workload": spec.workload,
        "instance": spec.instance,
        "n_iterations": spec.n_iterations,
        "n_initial": spec.n_initial,
        "server_seed": spec.server_seed,
        "optimizer_seed": spec.optimizer_seed,
        "session_seed": spec.session_seed,
        "space": _describe_space(spec.space),
        "optimizer": _describe(spec.optimizer_factory or spec.optimizer),
        "objective": _describe(spec.objective),
        "warm_start": [observation_to_record(o) for o in spec.warm_start or []],
    }
    # Budget and guard policy change a run's results, so they belong in
    # the key — but only when set, so keys of pre-resilience specs (and
    # their checkpoints) are unchanged.  ``guard_seed`` is excluded like
    # ``iteration_hook``: backoff jitter affects wall-clock, not results.
    if spec.max_simulated_hours is not None:
        payload["max_simulated_hours"] = spec.max_simulated_hours
    if spec.guard is not None:
        payload["guard"] = spec.guard.describe()
    return hashlib.sha256(_dumps(payload).encode("utf-8")).hexdigest()[:20]


# ----------------------------------------------------------------------
# result (de)serialization
# ----------------------------------------------------------------------
def observation_to_record(obs: Observation) -> dict[str, Any]:
    record = {
        "config": {k: obs.config[k] for k in sorted(obs.config)},
        "objective": obs.objective,
        "score": obs.score,
        "failed": obs.failed,
        "failure_reason": obs.failure_reason,
        "metrics": {k: obs.metrics[k] for k in sorted(obs.metrics)},
        "iteration": obs.iteration,
        "suggest_seconds": obs.suggest_seconds,
        "simulated_seconds": obs.simulated_seconds,
    }
    # Resilience fields appear only at non-default values: observations
    # from unguarded runs serialize byte-identically to the pre-resilience
    # format, so their history fingerprints (and spec keys of warm-started
    # specs) are unchanged.
    if obs.failure_kind is not None:
        record["failure_kind"] = obs.failure_kind.value
    if obs.eval_attempts != 1:
        record["eval_attempts"] = obs.eval_attempts
    return record


def record_to_observation(record: dict[str, Any]) -> Observation:
    # ``.get`` for fields that postdate the original record format, so
    # checkpoints written before the resilience layer still load.
    kind = record.get("failure_kind")
    return Observation(
        config=Configuration(record["config"]),
        objective=record["objective"],
        score=record["score"],
        failed=record["failed"],
        failure_reason=record["failure_reason"],
        failure_kind=None if kind is None else FailureKind(kind),
        metrics=dict(record["metrics"]),
        iteration=record["iteration"],
        suggest_seconds=record["suggest_seconds"],
        simulated_seconds=record["simulated_seconds"],
        eval_attempts=record.get("eval_attempts", 1),
    )


def history_to_record(history: History) -> dict[str, Any]:
    return {
        "task_id": history.task_id,
        "observations": [observation_to_record(o) for o in history],
    }


def record_to_history(record: dict[str, Any], space: ConfigurationSpace) -> History:
    history = History(space, task_id=record["task_id"])
    for obs_record in record["observations"]:
        history.append(record_to_observation(obs_record))
    return history


def result_to_record(result: RunResult) -> dict[str, Any]:
    """Full-precision JSON view of a result (unlike the rounded telemetry)."""
    return {
        "run_index": result.run_index,
        "failed": result.failed,
        "error": result.error,
        "attempts": result.attempts,
        "wall_seconds": result.wall_seconds,
        "suggest_seconds": result.suggest_seconds,
        "eval_seconds": result.eval_seconds,
        "simulated_hours": result.simulated_hours,
        "n_iterations": result.n_iterations,
        "n_failed_evals": result.n_failed_evals,
        "stop_reason": result.stop_reason,
        "failure_kinds": result.failure_kinds,
        "tags": result.tags,
        "history": None if result.history is None else history_to_record(result.history),
    }


def record_to_result(record: dict[str, Any], space: ConfigurationSpace) -> RunResult:
    history = record["history"]
    return RunResult(
        run_index=record["run_index"],
        history=None if history is None else record_to_history(history, space),
        failed=record["failed"],
        error=record["error"],
        attempts=record["attempts"],
        wall_seconds=record["wall_seconds"],
        suggest_seconds=record["suggest_seconds"],
        eval_seconds=record["eval_seconds"],
        simulated_hours=record["simulated_hours"],
        n_iterations=record["n_iterations"],
        n_failed_evals=record["n_failed_evals"],
        stop_reason=record.get("stop_reason"),
        failure_kinds=dict(record.get("failure_kinds") or {}),
        tags=dict(record["tags"]),
    )


# ----------------------------------------------------------------------
# deterministic fingerprints
# ----------------------------------------------------------------------
def _observation_projection(obs: Observation) -> dict[str, Any]:
    record = observation_to_record(obs)
    # Host wall-clock is the only run-dependent field of an observation;
    # everything else is fully determined by the spec's seeds.
    del record["suggest_seconds"]
    return record


def history_fingerprint(history: History) -> str:
    """SHA-256 of the deterministic projection of a history.

    Two histories produced from the same spec — serially, in parallel, or
    across a kill-and-resume boundary — have equal fingerprints; host
    timing fields (``suggest_seconds``) are excluded.
    """
    payload = [_observation_projection(o) for o in history]
    return hashlib.sha256(_dumps(payload).encode("utf-8")).hexdigest()


def result_fingerprint(result: RunResult) -> str:
    """Fingerprint of a result's deterministic fields (no wall-clock)."""
    payload = {
        "run_index": result.run_index,
        "failed": result.failed,
        "simulated_hours": result.simulated_hours,
        "n_iterations": result.n_iterations,
        "n_failed_evals": result.n_failed_evals,
        "history": None
        if result.history is None
        else [_observation_projection(o) for o in result.history],
    }
    return hashlib.sha256(_dumps(payload).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the checkpoint file
# ----------------------------------------------------------------------
class StudyCheckpoint:
    """Append-only JSONL of completed runs, keyed by :func:`spec_key`.

    One record per line: ``{"key": <spec_key>, "result": <result record>}``.
    Records are appended (open/write/close per run) the moment a run
    completes, so the file is valid after a kill at any instant except
    mid-write of the final line — which :meth:`load` tolerates by skipping
    a torn trailing line with a warning.  Only successful results are
    recorded: a failed run stays eligible for re-execution on resume.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> dict[str, dict[str, Any]]:
        """Key -> result record for every intact line (last write wins)."""
        if not self.exists():
            return {}
        entries = read_jsonl(self.path, "checkpoint")
        return {entry["key"]: entry["result"] for entry in entries}

    def record(self, key: str, result: RunResult) -> None:
        """Durably append one completed result (no-op for failed runs)."""
        if result.failed:
            return
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        line = json.dumps({"key": key, "result": result_to_record(result)}, default=_native)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()

    def get(self, key: str, space: ConfigurationSpace) -> RunResult | None:
        record = self.load().get(key)
        if record is None:
            return None
        return record_to_result(record, space)
