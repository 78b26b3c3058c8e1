"""Shared session-running helpers for experiment harnesses.

``run_sessions`` is now a thin facade over :mod:`repro.parallel`: it
materializes one :class:`~repro.parallel.RunSpec` per run (with seeds
derived up front via ``SeedSequence.spawn``) and hands the batch to a
:class:`~repro.parallel.ParallelExecutor`.  ``n_workers=1`` preserves the
historical serial behavior; any larger value fans the independent runs
out over child processes and returns bit-identical histories.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from repro.dbms.server import MySQLServer
from repro.optimizers.base import History, Optimizer
from repro.parallel import ParallelExecutor, RunSpec, derive_run_seeds
from repro.space import ConfigurationSpace
from repro.tuning.metrics import improvement_over_default

OptimizerFactory = Callable[[ConfigurationSpace, int], Optimizer]


def build_session_specs(
    workload: str,
    space: ConfigurationSpace,
    optimizer_factory: OptimizerFactory,
    n_runs: int,
    n_iterations: int,
    n_initial: int = 10,
    instance: str = "B",
    seed: int = 0,
) -> list[RunSpec]:
    """One spec per run, with independent per-run seed triples.

    The simulator's noise stream, the optimizer's sampling stream, and
    the session's LHS stream are spawned from disjoint ``SeedSequence``
    children — they were previously derived by integer offsets from the
    same root, which made run 0's server and optimizer share the exact
    seed value and correlate their streams.  A fourth child seeds the
    guard of a spec that sets ``RunSpec.guard``.
    """
    seeds = derive_run_seeds(seed, n_runs)
    return [
        RunSpec(
            run_index=run,
            workload=workload,
            instance=instance,
            space=space,
            optimizer_factory=optimizer_factory,
            n_iterations=n_iterations,
            n_initial=n_initial,
            server_seed=seeds[run].server,
            optimizer_seed=seeds[run].optimizer,
            session_seed=seeds[run].session,
            guard_seed=seeds[run].guard,
            tags={
                "workload": workload,
                "instance": instance,
                "optimizer": getattr(
                    optimizer_factory, "optimizer_name", type(optimizer_factory).__name__
                ),
                "run": run,
            },
        )
        for run in range(n_runs)
    ]


def run_sessions(
    workload: str,
    space: ConfigurationSpace,
    optimizer_factory: OptimizerFactory,
    n_runs: int,
    n_iterations: int,
    n_initial: int = 10,
    instance: str = "B",
    seed: int = 0,
    n_workers: int = 1,
    telemetry_path: str | None = None,
    checkpoint_path: str | None = None,
) -> list[History]:
    """Run repeated tuning sessions (fresh server + optimizer per run).

    For a fixed ``seed`` the returned histories are identical for every
    ``n_workers``; a run whose worker crashes is retried once and, if it
    fails again, dropped from the result with a warning instead of
    aborting the study.  ``checkpoint_path`` makes completed runs durable:
    each is appended to the :class:`~repro.parallel.StudyCheckpoint` the
    moment it finishes, and a re-invocation with the same arguments and
    path resumes the study, skipping every run already on file.
    """
    specs = build_session_specs(
        workload,
        space,
        optimizer_factory,
        n_runs,
        n_iterations,
        n_initial=n_initial,
        instance=instance,
        seed=seed,
    )
    executor = ParallelExecutor(
        n_workers=n_workers,
        telemetry_path=telemetry_path,
        checkpoint_path=checkpoint_path,
    )
    results = executor.run(specs)
    dead = [r for r in results if r.history is None]
    if dead:
        first = dead[0].error or "unknown error"
        warnings.warn(
            f"{len(dead)}/{n_runs} runs failed after retry "
            f"(first error: {first.splitlines()[0]})",
            RuntimeWarning,
            stacklevel=2,
        )
    return [r.history for r in results if r.history is not None]


def count_failed_runs(histories: list[History]) -> int:
    """Runs that never produced a successful observation."""
    return sum(1 for h in histories if not h.successful())


def median_improvement(
    histories: list[History], workload: str, instance: str = "B"
) -> float:
    """Median best-improvement over the default across repeated sessions.

    Runs with no successful observation are excluded (they used to inject
    ``-inf``, which could drag the median to ``-inf`` and poison every
    downstream table); if *all* runs failed the result is NaN and a
    warning reports the failure count.
    """
    server = MySQLServer(workload, instance, noise=False)
    default = server.default_objective()
    direction = server.objective_direction
    improvements = []
    for h in histories:
        try:
            best = h.best().objective
        except ValueError:
            continue
        improvements.append(improvement_over_default(best, default, direction))
    if not improvements:
        warnings.warn(
            f"all {count_failed_runs(histories)} runs failed; median undefined",
            RuntimeWarning,
            stacklevel=2,
        )
        return float("nan")
    return float(np.median(improvements))
