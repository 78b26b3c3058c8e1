"""SMAC: sequential model-based algorithm configuration (Hutter et al., 2011).

A random-forest surrogate provides mean/variance under SMAC's Gaussian
assumption ``N(y | mu, sigma^2)``; Expected Improvement is maximized over a
candidate set combining *local search* (one-exchange neighbourhoods of the
best configurations — the forest handles categorical knobs natively) and
random configurations, with random interleaving for theoretical coverage.
The forest surrogate scales to high-dimensional, heterogeneous spaces,
which is why SMAC dominates the paper's large-space results (Table 7).

Candidates are scored as unit rows and only the one kept becomes a
:class:`Configuration`: the random challengers are one uniform draw
snapped with :meth:`ConfigurationSpace.snap_many`, and each local-search
step scores the rows of :meth:`ConfigurationSpace.neighbors`.  Both
consume the optimizer's RNG stream exactly as sampling and encoding
configurations one by one would, so suggestions are unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.optimizers.acquisitions import expected_improvement
from repro.optimizers.base import History, Optimizer
from repro.space import Configuration, ConfigurationSpace


class SMAC(Optimizer):
    """RF-surrogate Bayesian optimization with local + random candidates."""

    name = "smac"

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: int | None = None,
        n_trees: int = 20,
        random_interleave_prob: float = 0.15,
        n_random_candidates: int = 512,
        n_local_anchors: int = 4,
        n_local_steps: int = 8,
    ) -> None:
        super().__init__(space, seed)
        if not 0.0 <= random_interleave_prob <= 1.0:
            raise ValueError("random_interleave_prob must be in [0, 1]")
        self.n_trees = n_trees
        self.random_interleave_prob = random_interleave_prob
        self.n_random_candidates = n_random_candidates
        self.n_local_anchors = n_local_anchors
        self.n_local_steps = n_local_steps

    def _fit_surrogate(self, X: np.ndarray, y: np.ndarray) -> RandomForestRegressor:
        forest = RandomForestRegressor(
            n_estimators=self.n_trees,
            max_features=0.8,
            min_samples_leaf=1,
            min_samples_split=3,
            seed=int(self.rng.integers(0, 2**31 - 1)),
        )
        forest.fit(X, y)
        return forest

    def _ei_of(self, forest: RandomForestRegressor, X: np.ndarray, best: float) -> np.ndarray:
        mean, std = forest.predict_with_std(X)
        return expected_improvement(mean, std, best)

    def _local_search(
        self, forest: RandomForestRegressor, history: History, best: float
    ) -> list[tuple[Configuration, float]]:
        """EI-guided hillclimbing from the best configurations (SMAC's
        local search): repeatedly move to the neighbour with the highest
        EI until no neighbour improves."""
        succ = sorted(history.successful(), key=lambda o: o.score, reverse=True)
        anchors = [o.config for o in succ[: self.n_local_anchors]]
        results: list[tuple[Configuration, float]] = []
        # Anchor EIs deliberately stay one singleton forest call per
        # anchor: numpy reduces a one-column prediction matrix pairwise
        # but a batched one sequentially per column, so batching the
        # anchors would move mu/sigma by an ULP and flip near-tie
        # hillclimbs.  Neighbor and random-challenger scoring was always
        # batched, and the packed single-descent predict keeps these
        # singleton calls cheap.
        for anchor in anchors:
            current = anchor
            current_ei = float(self._ei_of(forest, self.space.encode_many([current]), best)[0])
            for _ in range(self.n_local_steps):
                neighbors = self.space.neighbors(current, self.rng, n_continuous=4, stdev=0.1)
                idx = np.arange(len(neighbors))
                if len(neighbors) > 80:
                    idx = self.rng.choice(len(neighbors), size=80, replace=False)
                eis = self._ei_of(forest, neighbors.rows[idx], best)
                j = int(np.argmax(eis))
                if eis[j] <= current_ei:
                    break
                current, current_ei = neighbors.configuration(int(idx[j])), float(eis[j])
            results.append((current, current_ei))
        return results

    def suggest(self, history: History) -> Configuration:
        succ = history.successful()
        if len(succ) < 2 or self.rng.random() < self.random_interleave_prob:
            return self._dedupe(self._random_config(), history)
        X, y = self._training_data(history)
        forest = self._fit_surrogate(X, y)
        best = max(o.score for o in succ)
        scored = self._local_search(forest, history, best)
        # The random challengers are sample_configurations' draw, scored
        # as unit rows; only the winner is decoded.
        U = self.rng.random((self.n_random_candidates, self.space.n_dims))
        random_eis = self._ei_of(forest, self.space.snap_many(U), best)
        j = int(np.argmax(random_eis))
        scored.append((self.space.decode(U[j]), float(random_eis[j])))
        choice = max(scored, key=lambda t: t[1])[0]
        return self._dedupe(choice, history)
