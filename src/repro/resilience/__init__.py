"""Resilient evaluation boundary between sessions and objectives.

The executor layer (:mod:`repro.parallel`) survives dying *workers*; this
package pushes robustness one layer down, to the session ↔ objective ↔
server boundary:

- :mod:`repro.resilience.taxonomy` — the :class:`FailureKind` enum
  (``CRASH`` / ``UNSTARTABLE`` / ``TIMEOUT`` / ``TRANSIENT`` /
  ``EVALUATION_ERROR``) threaded through engine results, observations,
  and telemetry, so every failed attempt records what went wrong.
- :mod:`repro.resilience.guard` — :class:`GuardedObjective`, a wrapper
  that converts raised exceptions into clamped ``EVALUATION_ERROR``
  observations, enforces per-evaluation deadlines (wall-clock watchdog
  plus a simulated-seconds cap), retries ``TRANSIENT`` failures with
  bounded seeded backoff, quarantines crash neighbourhoods, and trips a
  session-wide circuit breaker to a safe-default health probe.

The chaos scenarios that exercise this boundary end to end (the raising,
hanging and transient objectives of :mod:`repro.parallel.faults`, and the
simulator's own crashes) are tier-1 tests under ``tests/resilience``.

``taxonomy`` is imported eagerly (it is a stdlib-only leaf that low-level
modules depend on); the guard is loaded lazily via PEP 562 so importing
``repro.optimizers.base`` — which itself imports the taxonomy — never
recurses back through the guard's heavier dependencies.
"""

from repro.resilience.taxonomy import (
    CONFIG_INDUCED_KINDS,
    RETRYABLE_KINDS,
    FailureKind,
    TransientEvaluationError,
    classify_failure_reason,
    is_retryable,
)

_GUARD_EXPORTS = ("GuardedObjective", "GuardPolicy", "QuarantineRegion")

__all__ = [
    "CONFIG_INDUCED_KINDS",
    "FailureKind",
    "GuardPolicy",
    "GuardedObjective",
    "QuarantineRegion",
    "RETRYABLE_KINDS",
    "TransientEvaluationError",
    "classify_failure_reason",
    "is_retryable",
]


def __getattr__(name: str):
    if name in _GUARD_EXPORTS:
        from repro.resilience import guard

        return getattr(guard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
