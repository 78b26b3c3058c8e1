"""The failure taxonomy of the evaluation boundary.

The paper's testbed treats failed stress tests as first-class events:
crashed or unstartable configurations are clamped to the worst observed
score and still cost restart wall-clock (§4.1).  Real tuning controllers
additionally see failures the *paper's* clamping rule does not describe —
transient benchmark hiccups, hung evaluations, tuner-side crashes — and
each demands a different reaction.  :class:`FailureKind` names them; the
guarded evaluation layer (:mod:`repro.resilience.guard`) keys its retry,
quarantine, and deadline decisions off the kind, and telemetry records it
so post-hoc analysis can separate "the configuration was bad" from "the
harness was unlucky".

This module is a leaf: it imports only the stdlib, so every layer
(``repro.dbms.engine``, ``repro.optimizers.base``, ``repro.parallel``)
can thread the taxonomy through without import cycles.
"""

from __future__ import annotations

import enum


class FailureKind(str, enum.Enum):
    """Why an evaluation failed.

    The string values are the wire format: they appear verbatim in JSONL
    telemetry, checkpoint records, and ``History.failure_summary()`` keys.

    ``CRASH``
        The DBMS started but died under the workload (e.g. the OOM killer
        reaped ``mysqld`` mid-stress).  Caused by the configuration;
        retrying the same config reproduces it, so the guard never does.
    ``UNSTARTABLE``
        The DBMS could not start at all under the configuration (§4.1's
        "unable to start").  Config-induced and never retried.
    ``TIMEOUT``
        The evaluation exceeded its deadline — the wall-clock watchdog or
        the simulated-seconds cap — and was abandoned.
    ``TRANSIENT``
        An environmental hiccup (benchmark glitch, network blip) that is
        expected to pass; the guard retries these with bounded,
        deterministically-jittered backoff.
    ``EVALUATION_ERROR``
        The evaluation *code* raised instead of reporting a polite
        ``failed=True`` observation — a tuner/harness bug, not a DBMS
        verdict.  Converted to a clamped observation so one bad
        evaluation cannot kill a session.
    """

    CRASH = "crash"
    UNSTARTABLE = "unstartable"
    TIMEOUT = "timeout"
    TRANSIENT = "transient"
    EVALUATION_ERROR = "evaluation_error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Kinds caused by the configuration itself (§4.1 semantics): retrying
#: the identical config reproduces the failure, so the guard never does —
#: and enough of them in one region quarantines it.
CONFIG_INDUCED_KINDS = frozenset({FailureKind.CRASH, FailureKind.UNSTARTABLE})

#: Kinds the guard may retry (bounded, seeded jittered backoff).
RETRYABLE_KINDS = frozenset({FailureKind.TRANSIENT})


class TransientEvaluationError(RuntimeError):
    """An evaluation failure the raiser believes will pass on retry.

    Objectives (and fault injectors) raise this to signal a
    :data:`FailureKind.TRANSIENT` failure through the exception channel;
    :class:`~repro.resilience.guard.GuardedObjective` retries it instead
    of recording an ``EVALUATION_ERROR``.
    """


def is_retryable(kind: FailureKind | None) -> bool:
    """Whether the guard's retry policy applies to this failure kind."""
    return kind in RETRYABLE_KINDS


def classify_failure_reason(reason: str | None) -> FailureKind | None:
    """Best-effort kind for a legacy free-text failure reason.

    The simulator now labels its failures explicitly; this fallback
    classifies reason strings recorded before the taxonomy existed (old
    checkpoints, third-party objectives that only set ``failure_reason``).
    Returns ``None`` when the text matches no known predicate — the
    failure stays "unclassified" rather than being guessed at.
    """
    if not reason:
        return None
    text = reason.lower()
    if "quarantin" in text:
        return FailureKind.CRASH
    if "unable to start" in text or "startup" in text:
        return FailureKind.UNSTARTABLE
    if "timeout" in text or "deadline" in text or "hung" in text:
        return FailureKind.TIMEOUT
    if "transient" in text:
        return FailureKind.TRANSIENT
    if "oom" in text or "crash" in text or "killed" in text:
        return FailureKind.CRASH
    return None
