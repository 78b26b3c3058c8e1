"""State-transition surrogate: predicted internal metrics (paper §8's
future work).

The Section 8 benchmark replaces the *objective* with a model prediction,
which suffices for BO-style optimizers — but RL-based optimizers consume
the DBMS internal metrics as their MDP state.  The paper leaves
"train[ing] a surrogate to learn the state transition (i.e., internal
metrics of DBMS)" as future work; this module implements it: one
random-forest regressor per internal metric, trained on the same offline
pool, so a :class:`MetricAwareSurrogateObjective` can serve DDPG complete
observations (objective *and* telemetry) without touching a DBMS.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.dbms.metrics import INTERNAL_METRIC_NAMES
from repro.dbms.server import MySQLServer
from repro.ml.forest import RandomForestRegressor
from repro.optimizers.base import Observation
from repro.space import Configuration, ConfigurationSpace
from repro.space.sampling import LatinHypercubeSampler


class MetricSurrogate:
    """Predicts the full internal-metric vector from a configuration."""

    def __init__(
        self,
        space: ConfigurationSpace,
        models: dict[str, RandomForestRegressor],
        seed: int | None = None,
    ) -> None:
        self.space = space
        self.models = models
        self.seed = seed

    @classmethod
    def fit(
        cls,
        space: ConfigurationSpace,
        configs: list[Configuration],
        metric_rows: list[dict[str, float]],
        n_trees: int = 12,
        seed: int | None = None,
    ) -> "MetricSurrogate":
        """Train one regressor per metric on (config, metrics) pairs."""
        if len(configs) != len(metric_rows):
            raise ValueError("configs and metric_rows length mismatch")
        if not configs:
            raise ValueError("need at least one training observation")
        X = space.encode_many(configs)
        models: dict[str, RandomForestRegressor] = {}
        rng = np.random.default_rng(seed)
        for name in INTERNAL_METRIC_NAMES:
            y = np.array([row.get(name, 0.0) for row in metric_rows])
            model = RandomForestRegressor(
                n_estimators=n_trees,
                min_samples_leaf=3,
                max_features=0.5,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            model.fit(X, y)
            models[name] = model
        return cls(space, models, seed=seed)

    def predict(self, config: Mapping[str, Any]) -> dict[str, float]:
        """Predicted metric dict for one configuration."""
        x = self.space.encode(config)[None, :]
        return {name: float(m.predict(x)[0]) for name, m in self.models.items()}


class MetricAwareSurrogateObjective:
    """A surrogate objective that also serves predicted internal metrics.

    Drop-in replacement for
    :class:`~repro.tuning.objective.SurrogateObjective` that RL optimizers
    (whose MDP state is the metric vector) can consume.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        objective_predictor,
        metric_surrogate: MetricSurrogate,
        direction: str = "max",
        default_objective: float | None = None,
        simulated_seconds_per_eval: float = 0.1,
    ) -> None:
        if direction not in ("max", "min"):
            raise ValueError("direction must be 'max' or 'min'")
        self.space = space
        self.objective_predictor = objective_predictor
        self.metric_surrogate = metric_surrogate
        self.direction = direction
        self._default_objective = default_objective
        self.simulated_seconds_per_eval = simulated_seconds_per_eval

    @classmethod
    def build(
        cls,
        workload: str,
        space: ConfigurationSpace,
        n_samples: int = 800,
        instance: str = "B",
        seed: int | None = None,
    ) -> "MetricAwareSurrogateObjective":
        """Collect one offline pool and fit both surrogates from it."""
        server = MySQLServer(workload, instance, seed=seed)
        sampler = LatinHypercubeSampler(space, seed=seed)
        configs: list[Configuration] = []
        objectives: list[float] = []
        metric_rows: list[dict[str, float]] = []
        for config in sampler.sample(n_samples):
            result = server.evaluate(config)
            if result.failed:
                continue  # the metric model only learns reachable states
            configs.append(result.configuration)
            objectives.append(result.objective)
            metric_rows.append(result.metrics)
        if len(configs) < 20:
            raise RuntimeError("too few successful samples to fit surrogates")
        objective_model = RandomForestRegressor(
            n_estimators=40, min_samples_leaf=2, max_features=0.5, seed=seed
        )
        objective_model.fit(space.encode_many(configs), np.array(objectives))
        metric_model = MetricSurrogate.fit(space, configs, metric_rows, seed=seed)
        return cls(
            space,
            objective_model.predict,
            metric_model,
            direction=server.objective_direction,
            default_objective=server.default_objective(),
        )

    def score_of(self, objective_value: float) -> float:
        return -objective_value if self.direction == "min" else objective_value

    def default_score(self) -> float:
        if self._default_objective is None:
            default = self.space.default_configuration()
            self._default_objective = float(
                self.objective_predictor(self.space.encode(default)[None, :])[0]
            )
        return self.score_of(self._default_objective)

    def failure_fallback_score(self) -> float:
        return self.default_score()

    def __call__(self, config: Mapping[str, Any]) -> Observation:
        cfg = Configuration(config)
        value = float(self.objective_predictor(self.space.encode(cfg)[None, :])[0])
        return Observation(
            config=cfg,
            objective=value,
            score=self.score_of(value),
            failed=False,
            metrics=self.metric_surrogate.predict(cfg),
            simulated_seconds=self.simulated_seconds_per_eval,
        )
