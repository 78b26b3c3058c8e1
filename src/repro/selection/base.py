"""Importance-measurement interface and sample collection.

Every measurement consumes the same inputs (paper §3.1): a set of
(configuration, performance) observations over the full knob space, plus
the space itself.  Scores are maximization targets (latency negated), so
"better than default" means score above the default's score for both
objective directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dbms.server import MySQLServer
from repro.space import Configuration, ConfigurationSpace
from repro.space.sampling import LatinHypercubeSampler
from repro.tuning.objective import DatabaseObjective


@dataclass
class ImportanceResult:
    """Ranked knob importances (descending)."""

    knob_scores: dict[str, float]

    def ranked(self) -> list[str]:
        """Knob names, most important first (stable for ties)."""
        return [k for k, __ in sorted(self.knob_scores.items(), key=lambda t: (-t[1], t[0]))]

    def top(self, k: int) -> list[str]:
        return self.ranked()[:k]

    def score_of(self, knob: str) -> float:
        return self.knob_scores[knob]


class ImportanceMeasurement:
    """Base class: ranks knobs from observations.

    Subclasses implement :meth:`_compute` returning a per-knob score.
    :attr:`surrogate_r2_` is populated by measurements that fit a
    regression surrogate (used by the Figure 4 sensitivity analysis).
    """

    name = "importance"

    def __init__(self, space: ConfigurationSpace, seed: int | None = None) -> None:
        self.space = space
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.surrogate_r2_: float | None = None

    def rank(
        self,
        configs: list[Configuration],
        scores: np.ndarray,
        default_score: float | None = None,
    ) -> ImportanceResult:
        """Rank all knobs of the space by importance.

        ``scores`` are maximization targets aligned with ``configs``;
        ``default_score`` (required by tunability-based measurements) is
        the score of the default configuration.
        """
        scores = np.asarray(scores, dtype=float).ravel()
        if len(configs) != len(scores):
            raise ValueError("configs and scores length mismatch")
        if len(configs) < 2:
            raise ValueError("need at least two observations")
        values = self._compute(configs, scores, default_score)
        return ImportanceResult(dict(zip(self.space.names, values)))

    def _compute(
        self,
        configs: list[Configuration],
        scores: np.ndarray,
        default_score: float | None,
    ) -> np.ndarray:
        raise NotImplementedError


def collect_samples(
    server: MySQLServer,
    space: ConfigurationSpace,
    n_samples: int,
    seed: int | None = None,
    include_default: bool = True,
) -> tuple[list[Configuration], np.ndarray, float]:
    """LHS sample pool for knob selection / surrogate training (paper §5.1).

    Failed configurations are kept with the worst successful score, or,
    when nothing succeeded, with the session's failure fallback
    (:meth:`DatabaseObjective.failure_fallback_score`), mirroring the
    session clamping rule.  Returns (configs, scores, default score);
    scores are maximization targets.
    """
    sampler = LatinHypercubeSampler(space, seed=seed)
    configs = sampler.sample(n_samples)
    direction = server.objective_direction
    sign = -1.0 if direction == "min" else 1.0
    default_score = sign * server.default_objective()

    raw: list[float] = []
    failed: list[bool] = []
    for config in configs:
        result = server.evaluate(config)
        failed.append(result.failed)
        raw.append(float("nan") if result.failed else sign * result.objective)
    scores = np.array(raw)
    success_scores = scores[~np.isnan(scores)]
    worst = (
        float(success_scores.min())
        if len(success_scores)
        else DatabaseObjective(server, space).failure_fallback_score()
    )
    scores = np.where(np.isnan(scores), worst, scores)
    if include_default:
        configs = configs + [space.default_configuration()]
        scores = np.append(scores, default_score)
    return configs, scores, default_score
