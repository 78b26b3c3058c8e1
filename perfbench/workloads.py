"""The benchmark's three workloads.

Every workload is a closed loop with one driver: each suggestion waits
for the previous evaluation (the paper's §4.1 cycle) and sessions run one
after another, so at most one CPU-bound process is busy at a time.  A
workload runs in *rounds* -- a fixed list of sessions whose seed streams
derive from ``(seed, round)`` -- and the number of rounds depends on the
requested seconds alone, so every run of one seed does the same work.
The tuned space does not depend on the seed.  README.md says why each
workload exists and what it stresses.
"""

from __future__ import annotations

import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.dbms.catalog import mysql_knob_space
from repro.dbms.server import MySQLServer
from repro.experiments import spaces as paper_space_module
from repro.experiments.optimizer_study import OPTIMIZERS
from repro.experiments.runner import build_session_specs
from repro.optimizers import OPTIMIZER_REGISTRY
from repro.parallel import (
    ParallelExecutor,
    RegistryOptimizerFactory,
    StudyCheckpoint,
    attempt_records,
    derive_run_seeds,
    final_records,
    history_fingerprint,
    read_telemetry,
)
from repro.resilience.guard import GuardedObjective, GuardPolicy
from repro.space import ConfigurationSpace
from repro.tuning.metrics import improvement_over_default
from repro.tuning.objective import DatabaseObjective
from repro.tuning.session import TuningSession

INSTANCE = "B"
N_INITIAL = 10
#: Seed of the knob spaces' own sampling RNG and of the Fig. 7 SHAP pool
#: and ranking: ``optimizer_comparison``'s default study seed.  Fixing it
#: keeps one tuned space for every run seed.
SPACE_SEED = 17
#: Both full-space workloads tune SYSBENCH (throughput, maximized).
FULL_SPACE_DBMS = "SYSBENCH"
#: The Fig. 7 cell: JOB (latency, minimized) on its SHAP top-20 space,
#: at bench scale -- 50-iteration sessions over a 1,200-sample pool.
FIG7_DBMS = "JOB"
FIG7_ITERATIONS = 50
FIG7_POOL = 1200
#: As optimizer_comparison runs bench scale: a one-spec batch spawns a
#: one-worker pool, so one CPU-bound process is busy at a time.
FIG7_WORKERS = 2
#: The watchdog starts on every evaluation but never fires: a simulator
#: evaluation takes about a millisecond, and a deadline a loaded host
#: could reach would make histories depend on wall-clock.
GUARD_POLICY = GuardPolicy(eval_timeout_seconds=30.0)


def peak_rss_kb() -> int:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def round_seed(seed: int, round_index: int) -> int:
    """Root seed of one round; round 0 uses the workload seed itself."""
    return seed + 7919 * round_index


@dataclass
class IterationClock:
    """Per-iteration session hook recording a ``perf_counter`` stamp.

    Picklable, so it rides in ``RunSpec.iteration_hook`` into pool
    workers.  There, on the budget's last iteration, it writes its stamps
    and the worker's peak RSS to ``path``, after the last stamp is taken.
    """

    n_iterations: int
    path: str | None = None
    stamps: list[float] = field(default_factory=list)

    def __call__(self, iteration: int, observation: Any) -> None:
        self.stamps.append(time.perf_counter())
        if self.path is not None and iteration == self.n_iterations - 1:
            with open(self.path, "w", encoding="utf-8") as fh:
                json.dump({"stamps": self.stamps, "rss_kb": peak_rss_kb()}, fh)


@dataclass
class Outcome:
    """One session as the benchmark scores it."""

    sid: str
    optimizer: str
    round_index: int
    ok: bool
    #: Session (or executor batch) wall time; the timed phase is their sum.
    wall_s: float
    n_iterations: int = 0
    #: Seconds between consecutive calls of the per-iteration hook.
    intervals: list[float] = field(default_factory=list)
    improvement: float | None = None
    fingerprint: str | None = None
    #: ``Observation.suggest_seconds`` of the iterations that called suggest.
    suggest_s: list[float] = field(default_factory=list)
    n_failed_evals: int = 0
    worker_rss_kb: int = 0
    guard: dict[str, Any] | None = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Planned:
    """One session of a run's plan: what to run, never how long it took."""

    sid: str
    optimizer: str
    round_index: int
    #: ``RunSeeds`` of an in-process session; the root seed handed to
    #: ``build_session_specs`` for a Fig. 7 batch.
    seeds: Any


@dataclass(frozen=True)
class Reference:
    """The tuned space and the default every outcome is scored against."""

    space: ConfigurationSpace
    default_objective: float
    direction: str


def reference(dbms_workload: str, space: ConfigurationSpace) -> Reference:
    server = MySQLServer(dbms_workload, INSTANCE, noise=False)
    return Reference(space, server.default_objective(), server.objective_direction)


def score(outcome: Outcome, history, ref: Reference, budget: int) -> Outcome:
    """Fill the deterministic fields of a finished session and check it."""
    outcome.fingerprint = history_fingerprint(history)
    outcome.suggest_s = [o.suggest_seconds for o in history if o.suggest_seconds > 0.0]
    outcome.n_failed_evals = sum(1 for o in history if o.failed)
    if history.successful():
        outcome.improvement = improvement_over_default(
            history.best().objective, ref.default_objective, ref.direction
        )
    if len(history) != budget:
        outcome.problems.append(f"{outcome.sid}: {len(history)} of {budget} iterations")
    invalid = sum(1 for o in history if not ref.space.validate(o.config))
    if invalid:
        outcome.problems.append(f"{outcome.sid}: {invalid} evaluated configurations fail validate")
    return outcome


def _no_mark(session: str) -> None:
    """Default session marker; a traced run attributes its spans with it."""


@dataclass
class LocalWorkload:
    """Serial in-process ``TuningSession``s over all 197 knobs."""

    name: str
    optimizers: tuple[str, ...]
    n_iterations: int
    guarded: bool
    #: Nominal seconds per round: a run of ``seconds`` does
    #: ``round(seconds / round_s)`` rounds, at least ``min_rounds``.
    round_s: float
    make_objective: Callable[[MySQLServer, ConfigurationSpace], Any] = DatabaseObjective
    mark: Callable[[str], None] = _no_mark
    min_rounds = 1
    #: A set-up takes about half a millisecond; four thousand span a few
    #: seconds, so their median does not hang on one phase of host load.
    setup_repeats = 4000

    def setup(self) -> Reference:
        return reference(FULL_SPACE_DBMS, mysql_knob_space(INSTANCE, seed=SPACE_SEED))

    def plan(self, seed: int, rounds: int) -> list[Planned]:
        """Rounds ``0 .. rounds - 1``: one session per optimizer each."""
        planned = []
        for r in range(rounds):
            seeds = derive_run_seeds(round_seed(seed, r), len(self.optimizers))
            for k, (name, run_seeds) in enumerate(zip(self.optimizers, seeds)):
                planned.append(Planned(f"r{r}.{k}.{name}", name, r, run_seeds))
        return planned

    def run_session(self, planned: Planned, ref: Reference) -> Outcome:
        sid, name, round_index, seeds = (
            planned.sid, planned.optimizer, planned.round_index, planned.seeds,
        )
        self.mark(sid)
        clock = IterationClock(self.n_iterations)
        t0 = time.perf_counter()
        try:
            server = MySQLServer(FULL_SPACE_DBMS, INSTANCE, seed=seeds.server)
            objective = self.make_objective(server, ref.space)
            guard = None
            if self.guarded:
                objective = guard = GuardedObjective(
                    objective, ref.space, policy=GUARD_POLICY, seed=seeds.guard
                )
            optimizer = OPTIMIZER_REGISTRY[name](ref.space, seed=seeds.optimizer)
            history = TuningSession(
                objective,
                optimizer,
                ref.space,
                max_iterations=self.n_iterations,
                n_initial=N_INITIAL,
                seed=seeds.session,
                on_iteration=clock,
            ).run()
            counters = guard.summary() if guard is not None else None
        except Exception as exc:  # noqa: BLE001 -- a session error is counted, never fatal
            return Outcome(
                sid,
                name,
                round_index,
                ok=False,
                wall_s=time.perf_counter() - t0,
                n_iterations=len(clock.stamps),
                intervals=np.diff(clock.stamps).tolist(),
                error=f"{type(exc).__name__}: {exc}",
            )
        outcome = Outcome(
            sid,
            name,
            round_index,
            ok=True,
            wall_s=time.perf_counter() - t0,
            n_iterations=len(history),
            intervals=np.diff(clock.stamps).tolist(),
            guard=counters,
        )
        return score(outcome, history, ref, self.n_iterations)


@dataclass
class Fig7Study:
    """One Figure 7 / Table 7 cell: JOB on its SHAP top-20 space, all
    seven optimizers, one ``ParallelExecutor`` batch per optimizer."""

    #: Holds each batch's checkpoint, telemetry and iteration-stamp files.
    work_dir: str
    mark: Callable[[str], None] = _no_mark
    name = "fig7-top20-study"
    round_s = 12.0
    #: One round holds a single session per optimizer, so the tail would
    #: hang on one SMAC session's data-dependent local search.
    min_rounds = 2
    #: A set-up is a SHAP ranking of 10 to 15 seconds, itself a long
    #: measurement; the run's time goes to a second round instead.
    setup_repeats = 1

    def setup(self) -> Reference:
        # paper_spaces memoizes the SHAP ranking per process; every set-up
        # repetition has to pay for it again.
        paper_space_module._pool_and_ranking.cache_clear()
        spaces = paper_space_module.paper_spaces(FIG7_DBMS, INSTANCE, FIG7_POOL, SPACE_SEED)
        return reference(FIG7_DBMS, spaces["medium"])

    def plan(self, seed: int, rounds: int) -> list[Planned]:
        """Rounds ``0 .. rounds - 1``: one batch per optimizer each."""
        return [
            Planned(f"r{r}.{name}", name, r, round_seed(seed, r))
            for r in range(rounds)
            for name in OPTIMIZERS
        ]

    def run_session(self, planned: Planned, ref: Reference) -> Outcome:
        sid, name, round_index, seed = (
            planned.sid, planned.optimizer, planned.round_index, planned.seeds,
        )
        self.mark(sid)
        os.makedirs(self.work_dir, exist_ok=True)
        checkpoint, telemetry, stamps_path = (
            os.path.join(self.work_dir, f"{sid}.{suffix}")
            for suffix in ("checkpoint.jsonl", "telemetry.jsonl", "iterations.json")
        )
        # A checkpoint left by an earlier run would resume the study and
        # skip the session.
        for path in (checkpoint, telemetry, stamps_path):
            if os.path.exists(path):
                os.remove(path)
        specs = build_session_specs(
            FIG7_DBMS,
            ref.space,
            RegistryOptimizerFactory(name),
            n_runs=1,
            n_iterations=FIG7_ITERATIONS,
            n_initial=N_INITIAL,
            instance=INSTANCE,
            seed=seed,
        )
        for spec in specs:
            spec.iteration_hook = IterationClock(FIG7_ITERATIONS, stamps_path)
        executor = ParallelExecutor(
            n_workers=FIG7_WORKERS, telemetry_path=telemetry, checkpoint_path=checkpoint
        )
        t0 = time.perf_counter()
        (result,) = executor.run(specs)
        wall = time.perf_counter() - t0

        stamps: list[float] = []
        rss_kb = 0
        if os.path.exists(stamps_path):
            with open(stamps_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            stamps, rss_kb = payload["stamps"], payload["rss_kb"]
        outcome = Outcome(
            sid,
            name,
            round_index,
            ok=not result.failed,
            wall_s=wall,
            n_iterations=result.n_iterations,
            intervals=np.diff(stamps).tolist(),
            worker_rss_kb=rss_kb,
            error=result.error,
        )
        if result.history is not None:
            score(outcome, result.history, ref, FIG7_ITERATIONS)
        records = len(StudyCheckpoint(checkpoint).load())
        written = read_telemetry(telemetry) if os.path.exists(telemetry) else []
        if records != int(outcome.ok):
            outcome.problems.append(f"{sid}: {records} checkpoint records")
        finals = len(final_records(written))
        if finals != 1:
            outcome.problems.append(f"{sid}: {finals} final telemetry records")
        if not attempt_records(written):
            outcome.problems.append(f"{sid}: no attempt record, the batch did not run")
        for path in (checkpoint, telemetry, stamps_path):
            if os.path.exists(path):
                os.remove(path)
        return outcome


def make_workloads(study_dir: str) -> dict[str, Any]:
    """The benchmark's workloads by name; ``study_dir`` holds Fig. 7 batch files."""
    return {
        "full197-model": LocalWorkload(
            "full197-model",
            ("smac", "vanilla_bo", "mixed_kernel_bo"),
            n_iterations=35,
            guarded=False,
            round_s=22.0,
        ),
        "fig7-top20-study": Fig7Study(study_dir),
        "guarded-eval": LocalWorkload(
            "guarded-eval",
            ("ga", "random"),
            n_iterations=300,
            guarded=True,
            round_s=0.9,
        ),
    }
