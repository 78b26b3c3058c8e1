"""Deterministic fault injection for the run scheduler.

Fault tolerance that is only exercised by real outages is fiction.  This
module injects the three failure modes the executor must contain, in a
form tests can replay exactly:

- :class:`WorkerKiller` — a picklable per-iteration hook
  (``RunSpec.iteration_hook``) that hard-kills the run's process with
  ``os._exit`` at a chosen iteration, exactly the way an OOM kill does.
  Armed/disarmed through a filesystem marker so "kill the first attempt
  only" holds across the attempts' processes.
- :class:`FlakyEval` — wraps an objective and raises
  :class:`InjectedFault` inside it for the first ``fail_attempts``
  attempts (counted through a marker file, i.e. across processes), then
  delegates transparently.  Exercises the soft-failure retry path.
- :func:`truncate_tail` — chops bytes off a telemetry/checkpoint file,
  simulating a crash mid-append (the torn final line readers must skip).

:func:`choose_victims` derives the set of runs to sabotage from a seed,
so fault placement is part of the experiment's deterministic identity.

:class:`RaisingObjective`, :class:`HangingObjective` and
:class:`TransientObjective` (with :func:`transient_schedule`) inject
objective-level failures one layer down, at the
:class:`~repro.resilience.GuardedObjective` boundary.

The tests drive these injectors end to end: the kill-and-resume round
trip is ``tests/parallel/test_checkpoint.py::TestResume``, and the
guarded-boundary scenarios are ``tests/resilience``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Exit code used by injected worker deaths — distinguishable in process
#: tables and in the executor's "worker died" error strings.
KILLED_EXIT_CODE = 0x2B


class InjectedFault(RuntimeError):
    """An evaluation failure raised on purpose by a fault injector."""


def _read_count(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as fh:
        text = fh.read().strip()
    return int(text) if text else 0


def _write_count(path: str, value: int) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(str(value))
        fh.flush()


@dataclass
class WorkerKiller:
    """Iteration hook that kills the run's process mid-run.

    ``arm_dir`` holds the fired-marker: with ``once=True`` (the default)
    the first attempt dies and every later attempt of the same run
    survives — the canonical "transient worker death" the scheduler must
    absorb without losing anyone else's work.  ``once=False`` kills every
    attempt, modelling a run that deterministically takes its process down
    (e.g. an OOM-sized configuration).
    """

    at_iteration: int
    arm_dir: str
    label: str = "kill"
    exit_code: int = KILLED_EXIT_CODE
    once: bool = True

    def _marker(self) -> str:
        return os.path.join(self.arm_dir, f"{self.label}.fired")

    def __call__(self, iteration: int, observation: Any) -> None:
        if iteration != self.at_iteration:
            return
        marker = self._marker()
        if self.once and os.path.exists(marker):
            return
        _write_count(marker, _read_count(marker) + 1)
        # A hard death: no exception propagation, no cleanup, no result
        # sent back to the parent — the scheduler charges it to this run.
        os._exit(self.exit_code)


@dataclass
class _ObjectiveWrapper:
    """Base of the objective-wrapping injectors.

    All attribute access the wrapper does not define itself
    (``direction``, ``score_of``, ``server``, the session protocol
    methods) is delegated to ``inner``.  ``inner`` stays out of the repr,
    which :func:`repro.parallel.checkpoint.spec_key` hashes: the default
    repr of a plain objective embeds its memory address, so a spec
    carrying it would get a different key in every process.
    """

    inner: Any = field(repr=False)

    def __getattr__(self, name: str) -> Any:
        # ``__getattr__`` fires during unpickling before ``__dict__`` is
        # restored; guard dunders and the delegate itself to avoid
        # recursing into ourselves.
        if name.startswith("__"):
            raise AttributeError(name)
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)


@dataclass
class FlakyEval(_ObjectiveWrapper):
    """Objective wrapper that raises for the first ``fail_attempts`` calls.

    The failure counter lives in ``arm_path`` on disk, so it keeps
    counting across the processes of a run's attempts.
    """

    arm_path: str
    fail_attempts: int = 1

    def __call__(self, config: Any) -> Any:
        fired = _read_count(self.arm_path)
        if fired < self.fail_attempts:
            _write_count(self.arm_path, fired + 1)
            raise InjectedFault(
                f"injected evaluation failure {fired + 1}/{self.fail_attempts}"
            )
        return self.inner(config)


# ----------------------------------------------------------------------
# objective-level chaos (exercises the GuardedObjective boundary)
# ----------------------------------------------------------------------
@dataclass
class RaisingObjective(_ObjectiveWrapper):
    """Objective wrapper that raises ``ValueError`` at chosen call indices.

    Models a buggy objective (bad math, a crashing client library): the
    exception escapes the objective itself and must be converted into an
    ``EVALUATION_ERROR`` observation by the guard instead of killing the
    session.  ``at_calls`` are 0-based call indices; ``always=True``
    raises on every call.  The counter is in-memory: one session runs in
    one process, so the schedule replays identically wherever (and however
    often) the run executes.
    """

    at_calls: tuple[int, ...] = ()
    always: bool = False
    n_calls: int = field(default=0, repr=False, compare=False)

    def __call__(self, config: Any) -> Any:
        call = self.n_calls
        self.n_calls = call + 1
        if self.always or call in self.at_calls:
            raise ValueError(f"injected objective bug at call {call}")
        return self.inner(config)


@dataclass
class HangingObjective(_ObjectiveWrapper):
    """Objective wrapper that hangs (then dies) at chosen call indices.

    Sleeps ``hang_seconds`` and raises :class:`InjectedFault` *without
    ever calling the inner objective* — deliberately: the guard's
    watchdog abandons the hung thread, and an abandoned thread that went
    on to evaluate would advance the simulator's RNG concurrently with
    the session, destroying determinism.  A hung call therefore consumes
    no inner-objective state at all.
    """

    at_calls: tuple[int, ...] = ()
    hang_seconds: float = 0.5
    n_calls: int = field(default=0, repr=False, compare=False)

    def __call__(self, config: Any) -> Any:
        import time

        call = self.n_calls
        self.n_calls = call + 1
        if call in self.at_calls:
            time.sleep(self.hang_seconds)
            raise InjectedFault(f"injected hang at call {call}")
        return self.inner(config)


@dataclass
class TransientObjective(_ObjectiveWrapper):
    """Objective wrapper raising transient failures on a fixed schedule.

    Raises :class:`repro.resilience.TransientEvaluationError` at the
    0-based call indices in ``fail_calls`` (see
    :func:`transient_schedule`).  The counter advances on retries too, so
    a retried call lands on the *next* index and succeeds unless the
    schedule says otherwise — natural flaky-infrastructure behaviour,
    fully deterministic.
    """

    fail_calls: tuple[int, ...] = ()
    n_calls: int = field(default=0, repr=False, compare=False)

    def __call__(self, config: Any) -> Any:
        from repro.resilience.taxonomy import TransientEvaluationError

        call = self.n_calls
        self.n_calls = call + 1
        if call in self.fail_calls:
            raise TransientEvaluationError(f"injected transient failure at call {call}")
        return self.inner(config)


def transient_schedule(seed: int, n_calls: int, rate: float = 0.15) -> tuple[int, ...]:
    """Seed-derived sorted call indices at which transient failures fire.

    Like :func:`choose_victims`, the schedule is part of the experiment's
    deterministic identity: the same seed produces the same flaky calls in
    serial, parallel, and resumed executions.
    """
    if n_calls < 0:
        raise ValueError("n_calls must be >= 0")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    rng = np.random.default_rng(seed)
    return tuple(int(i) for i in np.nonzero(rng.random(n_calls) < rate)[0])


def truncate_tail(path: str, n_bytes: int = 7) -> None:
    """Chop ``n_bytes`` off the end of a file (a crash mid-append)."""
    if n_bytes < 0:
        raise ValueError("n_bytes must be >= 0")
    size = os.path.getsize(path)
    with open(path, "rb+") as fh:
        fh.truncate(max(0, size - n_bytes))


def choose_victims(seed: int, n_runs: int, n_victims: int = 1) -> list[int]:
    """Seed-derived set of run indices to sabotage (sorted, no repeats)."""
    if not 0 <= n_victims <= n_runs:
        raise ValueError("need 0 <= n_victims <= n_runs")
    rng = np.random.default_rng(seed)
    picked = rng.choice(n_runs, size=n_victims, replace=False)
    return sorted(int(i) for i in picked)
