"""End-to-end "path" search over tuning-system designs (paper §9.2).

The paper's first research opportunity: treat the choice of
intra-algorithms — which importance measurement, how many knobs, which
optimizer — as a joint search space and optimize over it.  This module
implements the simplest principled version: a successive-halving bandit
over candidate *paths* (measurement x knob-count x optimizer).  Each
surviving path gets a progressively larger slice of the evaluation
budget; weak paths are eliminated early, so most of the budget goes to
the strongest end-to-end design.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.dbms.catalog import mysql_knob_space
from repro.dbms.server import MySQLServer
from repro.optimizers.base import History, Observation
from repro.tuning.objective import DatabaseObjective
from repro.tuning.session import TuningSession, project_observation


@dataclass(frozen=True)
class TuningPath:
    """One Figure 1 path: measurement -> knob count -> optimizer."""

    measurement: str
    n_knobs: int
    optimizer: str

    def __str__(self) -> str:
        return f"{self.measurement}/top-{self.n_knobs}/{self.optimizer}"


@dataclass
class PathResult:
    path: TuningPath
    best_score: float
    iterations_used: int
    eliminated_at_round: int | None  # None = survived to the end
    history: History | None = None


class PathSearch:
    """Successive halving over end-to-end tuning paths.

    Parameters
    ----------
    workload, instance:
        The target tuning task.
    paths:
        Candidate paths; defaults to the cross-product of
        {shap, gini} x {5, 20} x {smac, mixed_kernel_bo}.
    pool_samples:
        LHS pool size used once for all measurements' rankings.
    total_budget:
        Total DBMS evaluations spent across all paths and rounds.
    eta:
        Halving rate: the top ``1/eta`` of paths survive each round.
    """

    def __init__(
        self,
        workload: str,
        instance: str = "B",
        paths: list[TuningPath] | None = None,
        pool_samples: int = 600,
        total_budget: int = 240,
        eta: int = 2,
        seed: int = 0,
    ) -> None:
        if eta < 2:
            raise ValueError("eta must be >= 2")
        if total_budget < 20:
            raise ValueError("total_budget must be >= 20")
        self.workload = workload
        self.instance = instance
        self.paths = paths if paths is not None else self.default_paths()
        if not self.paths:
            raise ValueError("need at least one candidate path")
        self.pool_samples = pool_samples
        self.total_budget = total_budget
        self.eta = eta
        self.seed = seed
        self._rankings: dict[str, list[str]] = {}

    @staticmethod
    def default_paths() -> list[TuningPath]:
        return [
            TuningPath(m, k, o)
            for m in ("shap", "gini")
            for k in (5, 20)
            for o in ("smac", "mixed_kernel_bo")
        ]

    # ------------------------------------------------------------------
    def _ranking(self, measurement: str) -> list[str]:
        # Imported lazily: repro.selection imports repro.tuning internals.
        from repro.selection import MEASUREMENT_REGISTRY
        from repro.selection.base import collect_samples

        if measurement not in self._rankings:
            space = mysql_knob_space(self.instance, seed=self.seed)
            server = MySQLServer(self.workload, self.instance, seed=self.seed)
            configs, scores, default_score = collect_samples(
                server, space, self.pool_samples, seed=self.seed
            )
            m = MEASUREMENT_REGISTRY[measurement](space, seed=self.seed)
            self._rankings[measurement] = m.rank(
                configs, scores, default_score=default_score
            ).ranked()
        return self._rankings[measurement]

    def _make_session(self, path: TuningPath, budget: int, warm: list[Observation]):
        from repro.optimizers import OPTIMIZER_REGISTRY

        ranked = self._ranking(path.measurement)
        space = mysql_knob_space(
            self.instance, knob_names=ranked[: path.n_knobs], seed=self.seed
        )
        # A stable digest, not hash(): string hashing is salted per
        # interpreter, and the same seed must give the same session anywhere.
        offset = zlib.crc32(str(path).encode()) % 1000
        server = MySQLServer(self.workload, self.instance, seed=self.seed + offset)
        objective = DatabaseObjective(server, space)
        optimizer = OPTIMIZER_REGISTRY[path.optimizer](space, seed=self.seed)
        return TuningSession(
            objective,
            optimizer,
            space,
            max_iterations=budget,
            n_initial=10 if not warm else 0,
            seed=self.seed,
            warm_start=[project_observation(o, space) for o in warm],
        )

    def run(self) -> list[PathResult]:
        """Run successive halving; results sorted best-first."""
        n_rounds = max(1, int(np.ceil(np.log(len(self.paths)) / np.log(self.eta))))
        per_round_budget = self.total_budget // max(
            sum(
                max(1, len(self.paths) // self.eta**r)
                for r in range(n_rounds)
            ),
            1,
        )
        per_round_budget = max(per_round_budget, 10)

        alive = list(self.paths)
        results: dict[TuningPath, PathResult] = {
            p: PathResult(p, float("-inf"), 0, None) for p in self.paths
        }
        warm: dict[TuningPath, list[Observation]] = {p: [] for p in self.paths}
        for round_idx in range(n_rounds):
            scored: list[tuple[float, TuningPath]] = []
            for path in alive:
                session = self._make_session(path, per_round_budget, warm[path])
                history = session.run()
                warm[path] = history.observations
                result = results[path]
                try:
                    result.best_score = history.best().score
                except ValueError:
                    result.best_score = float("-inf")
                result.iterations_used += per_round_budget
                result.history = history
                scored.append((result.best_score, path))
            scored.sort(key=lambda t: -t[0])
            keep = max(1, len(alive) // self.eta)
            survivors = {path for __, path in scored[:keep]}
            for __, path in scored[keep:]:
                results[path].eliminated_at_round = round_idx
            alive = [p for p in alive if p in survivors]
            if len(alive) == 1:
                break
        return sorted(results.values(), key=lambda r: -r.best_score)
