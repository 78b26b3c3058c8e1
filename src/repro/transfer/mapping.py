"""Workload mapping (OtterTune's transfer framework, paper §3.3).

The target workload is matched to the historical workload whose internal
metric signature is closest (Euclidean distance on normalized metrics);
the matched task's observations are then merged into the base optimizer's
training history.  The merge is unconditional — if the matched workload's
optimum differs from the target's, the surrogate is pulled toward the
wrong region, the *negative transfer* the paper observes (§7.2).
"""

from __future__ import annotations

import numpy as np

from repro.optimizers.base import History, Observation, Optimizer
from repro.space import Configuration
from repro.transfer.repository import TransferRepository, mean_metric_signature


class MappedOptimizer(Optimizer):
    """Wrap a base optimizer; feed it target + mapped-source observations."""

    name = "workload_mapping"

    def __init__(
        self,
        base: Optimizer,
        repository: TransferRepository,
        remap_every: int = 10,
        seed: int | None = None,
    ) -> None:
        super().__init__(base.space, base.seed if seed is None else seed)
        self.name = f"mapping({base.name})"
        self.base = base
        self.repository = repository
        self.remap_every = max(1, remap_every)
        self.mapped_workload_: str | None = None
        self._suggest_count = 0
        self._mapped: History | None = None

    @property
    def uses_lhs_init(self) -> bool:  # type: ignore[override]
        return self.base.uses_lhs_init

    def _map(self, history: History) -> History | None:
        if len(self.repository) == 0:
            return None
        signature = mean_metric_signature(history)
        if signature.size == 0:
            return None
        task = self.repository.most_similar(signature)
        self.mapped_workload_ = task.workload_name
        return task.history

    def _augmented_history(self, history: History, mapped: History) -> History:
        """Target + source observations, scores standardized per origin."""
        merged = History(self.space, task_id="mapped")

        def z(scores: np.ndarray) -> np.ndarray:
            std = scores.std()
            return (scores - scores.mean()) / (std if std > 0 else 1.0)

        target_scores = z(history.scores())
        source_scores = z(mapped.scores())
        for obs, score in zip(mapped.observations, source_scores):
            merged.append(
                Observation(
                    config=Configuration(
                        {k: obs.config[k] for k in self.space.names}
                    ),
                    objective=obs.objective,
                    score=float(score),
                    failed=obs.failed,
                )
            )
        for obs, score in zip(history.observations, target_scores):
            merged.append(
                Observation(
                    config=obs.config,
                    objective=obs.objective,
                    score=float(score),
                    failed=obs.failed,
                    metrics=obs.metrics,
                )
            )
        return merged

    def suggest(self, history: History) -> Configuration:
        self._suggest_count += 1
        if self._mapped is None or self._suggest_count % self.remap_every == 1:
            self._mapped = self._map(history)
        if self._mapped is None:
            return self.base.suggest(history)
        augmented = self._augmented_history(history, self._mapped)
        return self.base.suggest(augmented)

    def observe(self, observation: Observation) -> None:
        self.base.observe(observation)
