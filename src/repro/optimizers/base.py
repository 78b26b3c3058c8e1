"""Optimizer interface and the shared observation history.

The data repository of the tuning architecture (paper Figure 2): every
stress-test outcome becomes an :class:`Observation`; the :class:`History`
exposes the encodings and maximization scores optimizers train on, and the
best-so-far trajectories the evaluation figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.resilience.taxonomy import FailureKind
from repro.space import Configuration, ConfigurationSpace


@dataclass
class Observation:
    """One evaluated configuration.

    ``score`` is always a *maximization* target: throughput objectives use
    the raw value, latency objectives are negated, and failed evaluations
    are clamped to the worst score seen so far (paper §4.1).

    ``failure_kind`` classifies failed evaluations (``None`` for
    successes and for legacy records that predate the taxonomy);
    ``eval_attempts`` counts how many times the guarded evaluation layer
    called the objective for this observation (1 without retries) — part
    of the deterministic retry accounting fingerprints assert on.
    """

    config: Configuration
    objective: float
    score: float
    failed: bool = False
    failure_reason: str | None = None
    failure_kind: FailureKind | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    iteration: int = -1
    suggest_seconds: float = 0.0
    simulated_seconds: float = 0.0
    eval_attempts: int = 1


class History:
    """Ordered collection of observations for one tuning task."""

    def __init__(self, space: ConfigurationSpace, task_id: str = "") -> None:
        self.space = space
        self.task_id = task_id
        self._observations: list[Observation] = []

    # ------------------------------------------------------------------
    def append(self, obs: Observation) -> None:
        """Append with a position-consistent ``iteration`` index.

        Observations re-appended from another history (warm starts,
        transfer repositories) arrive with a stale index; storing them
        as-is would corrupt :meth:`best_score_trajectory` and
        :meth:`iterations_to_reach`.  Such observations are copied so the
        source history keeps its own indices intact.
        """
        idx = len(self._observations)
        if obs.iteration < 0:
            obs.iteration = idx
        elif obs.iteration != idx:
            obs = replace(obs, iteration=idx)
        self._observations.append(obs)

    def __len__(self) -> int:
        return len(self._observations)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self._observations)

    def __getitem__(self, idx: int) -> Observation:
        return self._observations[idx]

    @property
    def observations(self) -> list[Observation]:
        return list(self._observations)

    # ------------------------------------------------------------------
    def configs(self) -> list[Configuration]:
        return [o.config for o in self._observations]

    def encoded(self) -> np.ndarray:
        """Unit-encoded configurations, shape ``(n, d)``."""
        if not self._observations:
            return np.empty((0, self.space.n_dims))
        return self.space.encode_many([o.config for o in self._observations])

    def scores(self) -> np.ndarray:
        """Maximization scores aligned with :meth:`encoded`."""
        return np.array([o.score for o in self._observations], dtype=float)

    def successful(self) -> list[Observation]:
        return [o for o in self._observations if not o.failed]

    def failure_summary(self) -> dict[str, int]:
        """Counts of failed observations keyed by :class:`FailureKind` value.

        Per-session accounting (unlike ``MySQLServer.n_failures``, a
        process-global ratchet that is never reset): keys are the wire
        values of the taxonomy (``"crash"``, ``"timeout"``, ...), with
        ``"unclassified"`` for failures recorded before the taxonomy
        existed.  Empty when nothing failed.
        """
        counts: dict[str, int] = {}
        for obs in self._observations:
            if not obs.failed:
                continue
            key = obs.failure_kind.value if obs.failure_kind is not None else "unclassified"
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def worst_score(self) -> float | None:
        """Worst score among successful observations, if any."""
        succ = [o.score for o in self.successful()]
        return min(succ) if succ else None

    def best(self) -> Observation:
        """Best successful observation (highest score)."""
        succ = self.successful()
        if not succ:
            raise ValueError("no successful observations yet")
        return max(succ, key=lambda o: o.score)

    def best_score_trajectory(self) -> np.ndarray:
        """Best-so-far score after each iteration (NaN until first success)."""
        best = float("nan")
        out = np.empty(len(self._observations))
        for i, obs in enumerate(self._observations):
            if not obs.failed and (np.isnan(best) or obs.score > best):
                best = obs.score
            out[i] = best
        return out

    def iterations_to_reach(self, score: float) -> int | None:
        """1-based iteration index of the first success with score >= value."""
        for i, obs in enumerate(self._observations):
            if not obs.failed and obs.score >= score:
                return i + 1
        return None


class Optimizer:
    """Base class: suggests configurations over a fixed space.

    Subclasses implement :meth:`suggest`; stateful optimizers (DDPG, GA)
    additionally override :meth:`observe`, which sessions call after every
    evaluation.
    """

    #: Human-readable name used in result tables.
    name: str = "optimizer"
    #: Whether the paper initializes this optimizer with 10 LHS configs.
    uses_lhs_init: bool = True

    def __init__(self, space: ConfigurationSpace, seed: int | None = None) -> None:
        self.space = space
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def suggest(self, history: History) -> Configuration:
        """Return the next configuration to evaluate."""
        raise NotImplementedError

    def observe(self, observation: Observation) -> None:
        """Hook invoked after each evaluation (default: no-op)."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _random_config(self) -> Configuration:
        return self.space.sample_configuration(self.rng)

    def _dedupe(self, candidate: Configuration, history: History) -> Configuration:
        """Avoid resubmitting an already-evaluated configuration."""
        seen = set(history.configs())
        if candidate not in seen:
            return candidate
        for _ in range(16):
            alt = self._random_config()
            if alt not in seen:
                return alt
        return candidate

    @staticmethod
    def _training_data(history: History) -> tuple[np.ndarray, np.ndarray]:
        """Encoded observations with failure-clamped scores."""
        return history.encoded(), history.scores()
