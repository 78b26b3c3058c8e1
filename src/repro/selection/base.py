"""Importance-measurement interface and sample collection.

Every measurement consumes the same inputs (paper §3.1): a set of
(configuration, performance) observations over the full knob space, plus
the space itself.  Scores are maximization targets (latency negated), so
"better than default" means score above the default's score for both
objective directions.

Four of the five measurements (Gini, fANOVA, ablation, SHAP) read their
scores off a random-forest surrogate of the encoded pool;
:class:`ForestMeasurement` fits it, records its R², predicts held-out
configurations with it and picks the better-than-default targets of the
tunability-based measurements.  Each subclass declares its forest's shape
and scores knobs from the fitted forest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dbms.server import MySQLServer
from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score
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

    Subclasses implement :meth:`_compute` returning a per-knob score, and
    :meth:`predict_holdout`.  Ranking records the fitted model's training
    R² in :attr:`surrogate_r2_`; the Figure 4 sensitivity analysis scores
    the model on held-out configurations through :meth:`predict_holdout`.
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

    def predict_holdout(self, configs: list[Configuration]) -> np.ndarray:
        """The fitted model's predictions for unseen configurations
        (Figure 4); raises ``RuntimeError`` before :meth:`rank`."""
        raise NotImplementedError


class ForestMeasurement(ImportanceMeasurement):
    """A measurement read off a random-forest surrogate of the pool.

    Subclasses set the forest's shape in the class attributes
    ``max_depth``, ``min_samples_leaf`` and ``max_features``, and score
    knobs from the fitted forest in :meth:`_scores`.
    """

    def __init__(self, space: ConfigurationSpace, seed: int | None, n_trees: int) -> None:
        super().__init__(space, seed)
        self.n_trees = n_trees
        self._surrogate: RandomForestRegressor | None = None

    def _compute(self, configs, scores, default_score) -> np.ndarray:
        X = self.space.encode_many(configs)
        forest = RandomForestRegressor(
            n_estimators=self.n_trees,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            seed=self.seed,
        )
        forest.fit(X, scores)
        self.surrogate_r2_ = r2_score(scores, forest.predict(X))
        self._surrogate = forest
        return self._scores(forest, configs, scores, default_score)

    def _scores(self, forest: RandomForestRegressor, configs, scores, default_score) -> np.ndarray:
        raise NotImplementedError

    def predict_holdout(self, configs: list[Configuration]) -> np.ndarray:
        if self._surrogate is None:
            raise RuntimeError("measurement has not been run")
        return self._surrogate.predict(self.space.encode_many(configs))

    def _targets(self, configs, scores, default_score: float, n: int) -> list[Configuration]:
        """The ``n`` best configurations that beat the default or, when
        none does, the ``n`` best overall (the paper notes this failure
        mode of the tunability-based measurements)."""
        order = np.argsort(-scores)
        better = [configs[i] for i in order if scores[i] > default_score]
        return (better or [configs[i] for i in order])[:n]


def collect_samples(
    server: MySQLServer,
    space: ConfigurationSpace,
    n_samples: int,
    seed: int | None = None,
) -> tuple[list[Configuration], np.ndarray, float]:
    """LHS sample pool for knob selection / surrogate training (paper §5.1).

    Failed configurations are kept with the worst successful score, or,
    when nothing succeeded, with the session's failure fallback
    (:meth:`DatabaseObjective.failure_fallback_score`), mirroring the
    session clamping rule.  The default configuration is appended with
    its score.  Returns (configs, scores, default score); scores are
    maximization targets.
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
    configs = configs + [space.default_configuration()]
    return configs, np.append(scores, default_score), default_score
