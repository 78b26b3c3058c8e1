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
from repro.selection.base import ForestMeasurement
from repro.space import Configuration

#: A target's SHAP values below this fraction of its largest one are
#: dropped as surrogate noise.
_NOISE_FLOOR_FRAC = 0.03


class ShapImportance(ForestMeasurement):
    """Permutation-sampled Shapley tunability scores."""

    name = "shap"
    max_depth, min_samples_leaf, max_features = 18, 3, 0.6

    def __init__(
        self,
        space,
        seed: int | None = None,
        n_targets: int = 20,
        n_permutations: int = 10,
        n_trees: int = 40,
    ) -> None:
        super().__init__(space, seed, n_trees)
        self.n_targets = n_targets
        self.n_permutations = n_permutations

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
        return super()._compute(configs, scores, default_score)

    def _scores(self, forest, configs, scores, default_score) -> np.ndarray:
        default = self.space.default_configuration()
        targets = self._targets(configs, scores, default_score, self.n_targets)
        totals = dict.fromkeys(self.space.names, 0.0)
        for target in targets:
            phis = self.shap_values(forest, default, target)
            if not phis:
                continue
            # Accumulate *signed* phi across targets so zero-mean surrogate
            # noise cancels; a knob's tunability is the positive part of
            # its mean contribution.  Tiny values below the per-target
            # noise floor are dropped either way.
            floor = _NOISE_FLOOR_FRAC * max(abs(v) for v in phis.values())
            for name, phi in phis.items():
                if abs(phi) > floor:
                    totals[name] += phi
        return np.maximum(np.fromiter(totals.values(), float) / len(targets), 0.0)
