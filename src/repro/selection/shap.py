"""SHAP knob ranking (Lundberg & Lee, 2017; paper §3.1.2).

Shapley values decompose, additively and uniquely, the performance change
from the default configuration to a target configuration across the knobs
that differ.  We estimate them by permutation sampling on a random-forest
surrogate (the classic sampling approximation of the Shapley value):

    phi_i = E_pi [ f(default with S_pi(i) + {i} set to target)
                   - f(default with S_pi(i) set to target) ]

where ``S_pi(i)`` is the set of knobs preceding ``i`` in a random
permutation.  Following the paper's adaptation, the *base* configuration
is the given default, and each knob's tunability score is the average of
its **positive** SHAP values across better-than-default targets — a knob
whose changes only ever hurt scores zero, which is exactly how SHAP
avoids the query-cache/max_connections traps that mislead variance-based
measurements.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.selection.base import ImportanceMeasurement
from repro.space import Configuration


class ShapImportance(ImportanceMeasurement):
    """Permutation-sampled Shapley tunability scores."""

    name = "shap"

    def __init__(
        self,
        space,
        seed: int | None = None,
        n_targets: int = 20,
        n_permutations: int = 10,
        noise_floor_frac: float = 0.03,
        n_trees: int = 40,
    ) -> None:
        super().__init__(space, seed)
        self.n_targets = n_targets
        self.n_permutations = n_permutations
        self.noise_floor_frac = noise_floor_frac
        self.n_trees = n_trees

    def _fit_surrogate(self, X: np.ndarray, y: np.ndarray) -> RandomForestRegressor:
        forest = RandomForestRegressor(
            n_estimators=self.n_trees,
            max_depth=18,
            min_samples_leaf=3,
            max_features=0.6,
            seed=self.seed,
        )
        forest.fit(X, y)
        self.surrogate_r2_ = r2_score(y, forest.predict(X))
        self._surrogate = forest
        return forest

    def predict_holdout(self, configs) -> np.ndarray:
        """Surrogate predictions for unseen configurations (Figure 4)."""
        if getattr(self, "_surrogate", None) is None:
            raise RuntimeError("measurement has not been run")
        return self._surrogate.predict(self.space.encode_many(configs))

    def shap_values(
        self,
        forest: RandomForestRegressor,
        default: Configuration,
        target: Configuration,
    ) -> dict[str, float]:
        """Sampling-approximated Shapley values for one default->target pair."""
        differing = [n for n in self.space.names if default[n] != target[n]]
        if not differing:
            return {}
        phi = {name: 0.0 for name in differing}
        # The codec encodes cell by cell, so a configuration mixing the
        # two takes each column's unit value from its source's row.
        unit_default, unit_target = self.space.encode_many([default, target])
        index = {name: i for i, name in enumerate(self.space.names)}
        steps = np.tri(len(differing) + 1, len(differing), k=-1, dtype=bool)
        switched = np.zeros((len(differing) + 1, self.space.n_dims), dtype=bool)
        for __ in range(self.n_permutations):
            order = list(self.rng.permutation(differing))
            # Walk the permutation, switching knobs to target one by one:
            # chain row i has the first i knobs of ``order`` switched.
            switched[:, [index[name] for name in order]] = steps
            preds = forest.predict(np.where(switched, unit_target, unit_default))
            for i, name in enumerate(order):
                phi[name] += float(preds[i + 1] - preds[i])
        return {name: value / self.n_permutations for name, value in phi.items()}

    def _compute(self, configs, scores, default_score) -> np.ndarray:
        if default_score is None:
            raise ValueError("SHAP tunability requires the default score")
        X = self.space.encode_many(configs)
        y = np.asarray(scores, dtype=float)
        forest = self._fit_surrogate(X, y)

        order = np.argsort(-y)
        targets = [configs[i] for i in order if y[i] > default_score][: self.n_targets]
        if not targets:
            targets = [configs[i] for i in order[: self.n_targets]]
        default = self.space.default_configuration()

        totals = np.zeros(self.space.n_dims)
        index = {name: i for i, name in enumerate(self.space.names)}
        for target in targets:
            phis = self.shap_values(forest, default, target)
            if not phis:
                continue
            # Accumulate *signed* phi across targets so zero-mean surrogate
            # noise cancels; a knob's tunability is the positive part of
            # its mean contribution.  Tiny values below the per-target
            # noise floor are dropped either way.
            floor = self.noise_floor_frac * max(abs(v) for v in phis.values())
            for name, phi in phis.items():
                if abs(phi) > floor:
                    totals[index[name]] += phi
        return np.maximum(totals / len(targets), 0.0)
