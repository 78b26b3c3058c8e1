"""The tuning-session driver (paper §4.1).

Each session: 10 LHS initial configurations (for optimizers that use
them), then iterate suggest -> stress test -> observe up to the budget.
Failed evaluations are clamped to the worst score seen so far ("to avoid
the scaling problem", §4.1).  Per-iteration suggest wall-time is recorded
— that is the *algorithm overhead* of Figure 9.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Protocol

from repro.optimizers.base import History, Observation, Optimizer
from repro.space import ConfigurationSpace
from repro.space.sampling import LatinHypercubeSampler


class Objective(Protocol):
    """What a session evaluates (database or surrogate objective)."""

    def __call__(self, config) -> Observation: ...

    def failure_fallback_score(self) -> float: ...

    def default_score(self) -> float: ...


def project_observation(obs: Observation, space: ConfigurationSpace) -> Observation:
    """``obs`` re-projected onto ``space`` for a warm start.

    The config keeps the knobs of ``space`` it has and takes defaults for
    the rest; every other field (failure kind, attempts, metrics,
    simulated seconds) is kept.
    """
    partial = {name: obs.config[name] for name in space.names if name in obs.config}
    return replace(obs, config=space.complete(partial))


class TuningSession:
    """Runs one optimizer against one objective over one knob subspace."""

    def __init__(
        self,
        objective: Objective,
        optimizer: Optimizer,
        space: ConfigurationSpace,
        max_iterations: int = 200,
        n_initial: int = 10,
        seed: int | None = None,
        warm_start: list[Observation] | None = None,
        on_iteration=None,
        max_simulated_hours: float | None = None,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if max_simulated_hours is not None and max_simulated_hours <= 0:
            raise ValueError("max_simulated_hours must be > 0")
        self.objective = objective
        self.optimizer = optimizer
        self.space = space
        self.max_iterations = max_iterations
        # Simulated wall-clock budget (paper-style "tune for N hours"):
        # every evaluation's simulated_seconds counts against it — failed
        # ones too, since a crashed config still costs its restart
        # attempt (§4.1).  None (the default) preserves the historical
        # iteration-only stopping rule exactly.
        self.max_simulated_hours = max_simulated_hours
        #: Why the last run() stopped: "max_iterations" or
        #: "simulated_budget" (None before the first run).
        self.stop_reason: str | None = None
        # Warm-start observations count against the LHS budget: a session
        # resumed from len(warm_start) prior observations must not replay
        # the full initial design on top of them (transfer studies would
        # otherwise double-initialize).
        n_warm = len(warm_start) if warm_start else 0
        self.n_initial = max(0, n_initial - n_warm) if optimizer.uses_lhs_init else 0
        self.seed = seed
        # Per-iteration observer ``(iteration, observation) -> None``,
        # invoked after every evaluation.  Set at construction, it can be
        # threaded through code that never calls ``run`` itself (e.g. a
        # RunSpec's ``iteration_hook``, which checkpoints progress or
        # injects faults at iteration granularity).  Observers must not
        # mutate the observation or the history.
        self.on_iteration = on_iteration
        self.history = History(space)
        if warm_start:
            for obs in warm_start:
                self.history.append(obs)
                self.optimizer.observe(obs)

    def _clamp_failure(self, obs: Observation) -> None:
        """Assign a failed observation the worst score seen so far."""
        worst = self.history.worst_score()
        obs.score = worst if worst is not None else self.objective.failure_fallback_score()

    def _record(self, obs: Observation, suggest_seconds: float) -> None:
        obs.suggest_seconds = suggest_seconds
        if obs.failed:
            self._clamp_failure(obs)
        self.history.append(obs)
        self.optimizer.observe(obs)

    def run(self) -> History:
        """Execute the session; returns the populated history."""
        sampler = LatinHypercubeSampler(self.space, seed=self.seed)
        initial = sampler.sample(self.n_initial) if self.n_initial > 0 else []
        budget_seconds = (
            self.max_simulated_hours * 3600.0 if self.max_simulated_hours is not None else None
        )
        # Warm-start observations already spent part of the budget.
        consumed = sum(o.simulated_seconds for o in self.history)
        self.stop_reason = "max_iterations"
        for i in range(self.max_iterations):
            if budget_seconds is not None and consumed >= budget_seconds:
                self.stop_reason = "simulated_budget"
                break
            if i < len(initial):
                config, suggest_seconds = initial[i], 0.0
            else:
                t0 = time.perf_counter()
                config = self.optimizer.suggest(self.history)
                suggest_seconds = time.perf_counter() - t0
            obs = self.objective(config)
            self._record(obs, suggest_seconds)
            consumed += obs.simulated_seconds
            if self.on_iteration is not None:
                self.on_iteration(i, obs)
        return self.history

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def total_simulated_hours(self) -> float:
        """Simulated wall-clock the paper's real testbed would have spent."""
        return sum(o.simulated_seconds for o in self.history) / 3600.0
