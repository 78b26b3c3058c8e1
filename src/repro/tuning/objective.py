"""Objectives: what a tuning session evaluates.

A :class:`DatabaseObjective` binds a (simulated) server to the knob
subspace being tuned; partial configurations are completed with defaults
by the server.  A :class:`SurrogateObjective` exposes the same interface
over a trained regression surrogate — the cheap benchmark of Section 8.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.dbms.server import MySQLServer
from repro.optimizers.base import Observation
from repro.space import Configuration, ConfigurationSpace


class DatabaseObjective:
    """Evaluate configurations against a (simulated) DBMS.

    Scores are maximization targets: throughput as-is, latency negated.
    """

    def __init__(self, server: MySQLServer, space: ConfigurationSpace) -> None:
        self.server = server
        self.space = space

    @property
    def direction(self) -> str:
        return self.server.objective_direction

    def score_of(self, objective_value: float) -> float:
        """Convert a raw objective value to a maximization score."""
        return -objective_value if self.direction == "min" else objective_value

    def default_score(self) -> float:
        return self.score_of(self.server.default_objective())

    def failure_fallback_score(self) -> float:
        """Score assigned to failures before any success exists.

        A crashed DBMS is decisively worse than the default: a third of
        the default throughput, or three times the default latency.
        """
        default = self.server.default_objective()
        if self.direction == "min":
            return self.score_of(default * 3.0)
        return self.score_of(default / 3.0)

    def __call__(self, config: Mapping[str, Any]) -> Observation:
        """Evaluate ``config``; a :class:`Configuration` (immutable) is kept
        as the observation's config, any other mapping is copied once."""
        cfg = config if isinstance(config, Configuration) else Configuration(config)
        result = self.server.evaluate(cfg)
        if result.failed:
            score = float("nan")
        else:
            score = self.score_of(result.objective)
        return Observation(
            config=cfg,
            objective=result.objective,
            score=score,
            failed=result.failed,
            failure_reason=result.failure_reason,
            failure_kind=result.failure_kind,
            metrics=result.metrics,
            simulated_seconds=result.simulated_seconds,
        )


class SurrogateObjective:
    """The Section 8 tuning benchmark: a model stands in for the DBMS.

    ``predictor`` maps an encoded configuration matrix to predicted raw
    objective values.  Evaluations are deterministic, near-instant, and
    never fail, which is precisely the benchmark's value proposition.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        predictor: Callable[[Any], Any],
        direction: str = "max",
        default_objective: float | None = None,
        simulated_seconds_per_eval: float = 0.08,
    ) -> None:
        if direction not in ("max", "min"):
            raise ValueError("direction must be 'max' or 'min'")
        self.space = space
        self.predictor = predictor
        self.direction = direction
        self._default_objective = default_objective
        self.simulated_seconds_per_eval = simulated_seconds_per_eval
        self.n_evaluations = 0

    def score_of(self, objective_value: float) -> float:
        return -objective_value if self.direction == "min" else objective_value

    def default_score(self) -> float:
        if self._default_objective is None:
            default = self.space.default_configuration()
            value = float(self.predictor(self.space.encode(default)[None, :])[0])
            self._default_objective = value
        return self.score_of(self._default_objective)

    def failure_fallback_score(self) -> float:
        # Surrogate evaluations cannot fail; keep the interface uniform.
        return self.default_score()

    def __call__(self, config: Mapping[str, Any]) -> Observation:
        cfg = Configuration(config)
        value = float(self.predictor(self.space.encode(cfg)[None, :])[0])
        self.n_evaluations += 1
        return Observation(
            config=cfg,
            objective=value,
            score=self.score_of(value),
            failed=False,
            simulated_seconds=self.simulated_seconds_per_eval,
        )
