"""Genetic-algorithm optimizer (paper §3.2).

Classic generational GA over the unit-encoded space: tournament selection,
uniform crossover, Gaussian mutation for numeric genes and random re-draw
for categorical genes, with elitism.  Categorical knobs are supported
natively (Table 3), but with 200 evaluations the GA completes only a few
generations — the sample inefficiency behind its poor paper ranking.
"""

from __future__ import annotations

import numpy as np

from repro.optimizers.base import History, Observation, Optimizer
from repro.space import Configuration, ConfigurationSpace
from repro.space.sampling import latin_hypercube


class GA(Optimizer):
    """Generational genetic algorithm emitting one individual per suggest."""

    name = "ga"
    uses_lhs_init = False  # the GA seeds its own initial population

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: int | None = None,
        population_size: int = 20,
        tournament_size: int = 3,
        crossover_prob: float = 0.9,
        mutation_prob: float = 0.1,
        mutation_sigma: float = 0.15,
        n_elites: int = 2,
    ) -> None:
        super().__init__(space, seed)
        if population_size < 4:
            raise ValueError("population_size must be >= 4")
        if not 0 <= n_elites < population_size:
            raise ValueError("n_elites must be in [0, population_size)")
        self.population_size = population_size
        self.tournament_size = tournament_size
        self.crossover_prob = crossover_prob
        self.mutation_prob = mutation_prob
        self.mutation_sigma = mutation_sigma
        self.n_elites = n_elites
        self._categorical: list[bool] = space.categorical_mask.tolist()
        self._queue: list[np.ndarray] = []
        self._evaluated: list[tuple[np.ndarray, float]] = []
        self._pending: dict[int, np.ndarray] = {}
        self.generation = 0

    # ------------------------------------------------------------------
    def _tournament(self) -> np.ndarray:
        idx = self.rng.choice(len(self._evaluated), size=self.tournament_size, replace=True)
        best = max(idx, key=lambda i: self._evaluated[int(i)][1])
        return self._evaluated[int(best)][0]

    def _crossover(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        mask = self.rng.random(len(a)) < 0.5
        return np.where(mask, a, b)

    def _mutate(self, genome: np.ndarray) -> np.ndarray:
        # One gate draw per gene, then the mutation's own draw, in gene
        # order; the genes are mutated as Python floats.
        out = genome.tolist()
        random, normal = self.rng.random, self.rng.normal
        prob, sigma = self.mutation_prob, self.mutation_sigma
        for j, categorical in enumerate(self._categorical):
            if random() >= prob:
                continue
            if categorical:
                out[j] = random()
            else:
                out[j] = min(max(out[j] + normal(0.0, sigma), 0.0), 1.0)
        return np.array(out)

    def _next_generation(self) -> list[np.ndarray]:
        ranked = sorted(self._evaluated, key=lambda t: t[1], reverse=True)
        children: list[np.ndarray] = [g.copy() for g, __ in ranked[: self.n_elites]]
        while len(children) < self.population_size:
            parent_a = self._tournament()
            parent_b = self._tournament()
            if self.rng.random() < self.crossover_prob:
                child = self._crossover(parent_a, parent_b)
            else:
                child = parent_a.copy()
            children.append(self._mutate(child))
        return children

    # ------------------------------------------------------------------
    def suggest(self, history: History) -> Configuration:
        if not self._queue:
            if len(self._evaluated) >= self.population_size:
                self._queue = self._next_generation()
                self._evaluated = []
                self.generation += 1
            else:
                design = latin_hypercube(self.population_size, self.space.n_dims, self.rng)
                self._queue = [row for row in design]
        genome = self._queue.pop()
        config = self.space.decode(genome)
        self._pending[hash(config)] = self.space.encode(config)
        return config

    def observe(self, observation: Observation) -> None:
        genome = self._pending.pop(hash(observation.config), None)
        if genome is None:
            genome = self.space.encode(observation.config)
        self._evaluated.append((genome, observation.score))
