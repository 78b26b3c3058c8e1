"""Per-run specifications, results, and deterministic seed derivation.

A :class:`RunSpec` is a self-contained, picklable description of one
tuning run: everything a worker process needs to rebuild the simulated
server, the optimizer, and the session.  Seeds are *materialized into the
spec* before any run is dispatched, which is what makes parallel and
serial execution produce bit-identical histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.optimizers.base import History, Observation, Optimizer
from repro.space import ConfigurationSpace

OptimizerFactory = Callable[[ConfigurationSpace, int], Optimizer]


@dataclass(frozen=True)
class RegistryOptimizerFactory:
    """A picklable optimizer factory referencing ``OPTIMIZER_REGISTRY``.

    Experiment harnesses historically used lambdas, which cannot cross a
    process boundary; this by-name factory can.  ``options`` is a tuple of
    ``(keyword, value)`` pairs forwarded to the optimizer constructor — a
    tuple rather than a dict so the factory stays hashable and picklable
    (e.g. ``(("n_trees", 10),)`` for a smaller SMAC forest).
    """

    optimizer_name: str
    options: tuple[tuple[str, Any], ...] = ()

    def __call__(self, space: ConfigurationSpace, seed: int) -> Optimizer:
        from repro.optimizers import OPTIMIZER_REGISTRY

        return OPTIMIZER_REGISTRY[self.optimizer_name](
            space, seed=seed, **dict(self.options)
        )


@dataclass(frozen=True)
class RunSeeds:
    """Independent integer seeds for the random streams of one run.

    ``guard`` seeds the resilience layer's retry-backoff jitter (see
    :class:`repro.resilience.GuardedObjective`); it is derived as a
    fourth grandchild of the run's SeedSequence child, which leaves the
    original server/optimizer/session seeds byte-identical to what
    three-way spawning produced (spawn keys are assigned sequentially).
    """

    server: int
    optimizer: int
    session: int
    guard: int = 0


def _seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def derive_run_seeds(seed: int, n_runs: int) -> list[RunSeeds]:
    """Spawn independent per-run seed triples from one root seed.

    ``SeedSequence(seed).spawn(n_runs)`` gives each run its own child
    stream; each child spawns three grandchildren for the simulator noise,
    the optimizer sampling, and the session's LHS initialization.  No two
    streams share entropy, so the simulator's noise can never correlate
    with the optimizer's proposals (the run-0 bug the serial runner had),
    and the derivation depends only on ``(seed, run_index)`` — never on
    which worker executes the run or in what order.
    """
    if n_runs < 0:
        raise ValueError("n_runs must be >= 0")
    out: list[RunSeeds] = []
    for child in np.random.SeedSequence(seed).spawn(n_runs):
        # spawn(4) keeps the first three grandchildren identical to the
        # historical spawn(3): spawn keys are sequential, so existing
        # server/optimizer/session seeds (and every checkpoint keyed on
        # them) are unchanged by the addition of the guard stream.
        server_seq, optimizer_seq, session_seq, guard_seq = child.spawn(4)
        out.append(
            RunSeeds(
                server=_seed_int(server_seq),
                optimizer=_seed_int(optimizer_seq),
                session=_seed_int(session_seq),
                guard=_seed_int(guard_seq),
            )
        )
    return out


@dataclass
class RunSpec:
    """One independent ``(server, optimizer, session)`` run.

    Exactly one of ``optimizer`` / ``optimizer_factory`` must be set.
    When ``objective`` is ``None`` the worker builds a
    :class:`~repro.tuning.objective.DatabaseObjective` over a fresh
    ``MySQLServer(workload, instance, seed=server_seed)``; passing an
    objective (e.g. a surrogate) overrides that.

    ``iteration_hook`` is an optional picklable callable
    ``(iteration, observation) -> None`` invoked after every session
    evaluation inside the worker — the attachment point for per-iteration
    progress journaling and for the fault injectors in
    :mod:`repro.parallel.faults`.  Hooks are observers: they must not
    change the run's results, and they are excluded from the content key
    used by checkpoint/resume (see :func:`repro.parallel.spec_key`).
    """

    run_index: int
    workload: str
    space: ConfigurationSpace
    n_iterations: int
    instance: str = "B"
    n_initial: int = 10
    optimizer_factory: OptimizerFactory | None = None
    optimizer: Optimizer | None = None
    objective: Any = None
    server_seed: int | None = None
    optimizer_seed: int = 0
    session_seed: int | None = None
    warm_start: list[Observation] | None = None
    iteration_hook: Any = None
    #: Optional simulated-hours stopping criterion forwarded to the
    #: session (None preserves iteration-only stopping).
    max_simulated_hours: float | None = None
    #: Optional :class:`repro.resilience.GuardPolicy`; when set, the
    #: worker wraps the objective in a GuardedObjective seeded with
    #: ``guard_seed``.
    guard: Any = None
    #: Seed for the guard's retry-backoff jitter stream.  Excluded from
    #: the checkpoint spec key: backoff affects wall-clock only, never
    #: results.
    guard_seed: int | None = None
    tags: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.optimizer is None) == (self.optimizer_factory is None):
            raise ValueError("set exactly one of optimizer / optimizer_factory")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if self.max_simulated_hours is not None and self.max_simulated_hours <= 0:
            raise ValueError("max_simulated_hours must be > 0")


@dataclass
class RunResult:
    """Outcome and telemetry of one run (successful or not)."""

    run_index: int
    history: History | None = None
    failed: bool = False
    error: str | None = None
    attempts: int = 1
    wall_seconds: float = 0.0
    suggest_seconds: float = 0.0
    eval_seconds: float = 0.0
    simulated_hours: float = 0.0
    n_iterations: int = 0
    n_failed_evals: int = 0
    #: Why the session stopped ("max_iterations" / "simulated_budget");
    #: None for results recorded before budget-aware sessions existed.
    stop_reason: str | None = None
    #: Per-session failure counts keyed by FailureKind value (see
    #: ``History.failure_summary``); empty when nothing failed.
    failure_kinds: dict[str, int] = field(default_factory=dict)
    tags: dict[str, Any] = field(default_factory=dict)
