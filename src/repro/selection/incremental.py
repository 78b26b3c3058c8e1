"""Incremental knob-selection heuristics (paper §5.3, Figure 6).

Two ways to size the configuration space during a session instead of
fixing it up front:

- **increasing** (OtterTune): start with the top few knobs and extend the
  space with the next-ranked knobs every ``step_iterations``; the
  optimizer explores a small impactful space first, then widens.
- **decreasing** (Tuneful): start wide and periodically halve the space
  by re-ranking importance on the observations gathered so far, fixing
  dropped knobs at their default values.

Both drivers restart the optimizer when the space changes and warm-start
it with the existing observations re-projected onto the new space.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.optimizers.base import History, Observation, Optimizer
from repro.selection.gini import GiniImportance
from repro.space import ConfigurationSpace
from repro.tuning.objective import DatabaseObjective
from repro.tuning.session import TuningSession, project_observation

OptimizerFactory = Callable[[ConfigurationSpace, int], Optimizer]


class _PhasedTuner:
    """What the two drivers share: a tuning phase on one subspace, and
    the final history over the last phase's space.  Subclasses set
    ``objective_factory``, ``optimizer_factory`` and ``seed``."""

    def _run_phase(
        self, space: ConfigurationSpace, phase: int, merged: list[Observation], budget: int
    ) -> None:
        """Tune ``space`` for ``budget`` iterations with a fresh optimizer,
        warm-started with ``merged`` projected onto ``space``, and append
        the new observations to ``merged``."""
        objective = self.objective_factory(space)
        optimizer = self.optimizer_factory(space, phase)
        warm = [project_observation(o, space) for o in merged]
        session = TuningSession(
            objective,
            optimizer,
            space,
            max_iterations=budget,
            n_initial=10 if not merged else 0,
            seed=None if self.seed is None else self.seed + phase,
            warm_start=warm,
        )
        merged.extend(session.run().observations[len(warm) :])

    @staticmethod
    def _history(space: ConfigurationSpace, merged: list[Observation]) -> History:
        """Every observation, projected onto ``space``."""
        out = History(space)
        for obs in merged:
            out.append(project_observation(obs, space))
        return out


class IncrementalTuner(_PhasedTuner):
    """OtterTune-style increasing knob count."""

    def __init__(
        self,
        objective_factory: Callable[[ConfigurationSpace], DatabaseObjective],
        ranked_knobs: Sequence[str],
        optimizer_factory: OptimizerFactory,
        start_knobs: int = 4,
        step_knobs: int = 4,
        step_iterations: int = 30,
        max_knobs: int | None = None,
        base_space: ConfigurationSpace | None = None,
        seed: int | None = None,
    ) -> None:
        if start_knobs < 1 or step_knobs < 1 or step_iterations < 1:
            raise ValueError("start/step parameters must be >= 1")
        self.objective_factory = objective_factory
        self.ranked_knobs = list(ranked_knobs)
        self.optimizer_factory = optimizer_factory
        self.start_knobs = start_knobs
        self.step_knobs = step_knobs
        self.step_iterations = step_iterations
        self.max_knobs = max_knobs if max_knobs is not None else len(self.ranked_knobs)
        self.base_space = base_space
        self.seed = seed

    def run(self, total_iterations: int) -> History:
        if self.base_space is None:
            raise ValueError("base_space is required")
        n_knobs = min(self.start_knobs, self.max_knobs)
        merged: list[Observation] = []
        done = phase = 0
        space = None
        while done < total_iterations:
            space = self.base_space.subspace(self.ranked_knobs[:n_knobs], seed=self.seed)
            budget = min(self.step_iterations, total_iterations - done)
            self._run_phase(space, phase, merged, budget)
            done += budget
            n_knobs = min(n_knobs + self.step_knobs, self.max_knobs)
            phase += 1
        return self._history(space, merged)


class DecrementalTuner(_PhasedTuner):
    """Tuneful-style decreasing knob count with periodic re-ranking."""

    def __init__(
        self,
        objective_factory: Callable[[ConfigurationSpace], DatabaseObjective],
        initial_knobs: Sequence[str],
        optimizer_factory: OptimizerFactory,
        final_knobs: int = 5,
        step_iterations: int = 40,
        base_space: ConfigurationSpace | None = None,
        seed: int | None = None,
    ) -> None:
        if final_knobs < 1 or step_iterations < 1:
            raise ValueError("final_knobs and step_iterations must be >= 1")
        self.objective_factory = objective_factory
        self.initial_knobs = list(initial_knobs)
        self.optimizer_factory = optimizer_factory
        self.final_knobs = final_knobs
        self.step_iterations = step_iterations
        self.base_space = base_space
        self.seed = seed

    def _rerank(self, space: ConfigurationSpace, observations: list[Observation]) -> list[str]:
        """Halve the knob set by Gini importance over session observations."""
        configs = [o.config for o in observations]
        scores = np.array([o.score for o in observations])
        measurement = GiniImportance(space, seed=self.seed)
        result = measurement.rank(configs, scores)
        keep = max(self.final_knobs, len(space.names) // 2)
        return result.top(keep)

    def run(self, total_iterations: int) -> History:
        if self.base_space is None:
            raise ValueError("base_space is required")
        names = list(self.initial_knobs)
        merged: list[Observation] = []
        done = phase = 0
        space = self.base_space.subspace(names, seed=self.seed)
        while done < total_iterations:
            budget = min(self.step_iterations, total_iterations - done)
            self._run_phase(space, phase, merged, budget)
            done += budget
            phase += 1
            if len(names) > self.final_knobs and done < total_iterations:
                names = self._rerank(space, [project_observation(o, space) for o in merged])
                space = self.base_space.subspace(names, seed=self.seed)
        return self._history(space, merged)
