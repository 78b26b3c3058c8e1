"""Lasso-based knob ranking (OtterTune, paper §3.1.1 / §4.2).

Features are the one-hot encoded knobs (the space's unit rows with each
categorical column expanded into an indicator block) augmented with
second-degree polynomial terms (the OtterTune setting).  Knobs are
ranked by the order in which any of their terms enters the
regularization path as the L1 penalty decreases — the knob whose
coefficient survives the strongest penalty is the most important.

For wide spaces the full quadratic expansion is intractable
(197 one-hot -> ~260 columns -> ~34k quadratic terms), so expansions
degrade gracefully: full quadratic below ``max_quadratic_dims``, linear +
squared terms otherwise (interaction terms are the first casualty, which
is faithful to the method's linearity assumption the paper criticizes).
"""

from __future__ import annotations

import numpy as np

from repro.ml.linear import LassoRegression
from repro.ml.metrics import r2_score
from repro.ml.preprocessing import PolynomialFeatures, StandardScaler
from repro.selection.base import ImportanceMeasurement
from repro.space import CategoricalKnob, Configuration


class LassoImportance(ImportanceMeasurement):
    """Regularization-path knob ranking with polynomial features."""

    name = "lasso"

    def __init__(
        self,
        space,
        seed: int | None = None,
        n_alphas: int = 12,
        max_quadratic_dims: int = 40,
    ) -> None:
        super().__init__(space, seed)
        self.n_alphas = n_alphas
        self.max_quadratic_dims = max_quadratic_dims

    # ------------------------------------------------------------------
    def _design_matrix(
        self, configs: list[Configuration]
    ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """One-hot + polynomial design; returns (X, each column's owning
        knob indices), the latter also kept as ``_combos``.  An
        interaction term credits every knob it involves."""
        X = self.space.one_hot_encode_many(configs)
        widths = [k.n_choices if isinstance(k, CategoricalKnob) else 1 for k in self.space.knobs]
        owner = np.repeat(np.arange(self.space.n_dims), widths).tolist()
        if X.shape[1] <= self.max_quadratic_dims:
            poly = PolynomialFeatures(degree=2, interaction_only=False, include_bias=False)
            Xp = poly.fit_transform(X)
            groups = poly.feature_groups(X.shape[1])
            self._combos = [tuple(owner[c] for c in combo) for combo in groups]
            return Xp, self._combos
        self._combos = [(o,) for o in owner] + [(o, o) for o in owner]
        return np.hstack([X, X**2]), self._combos

    def _compute(self, configs, scores, default_score) -> np.ndarray:
        X, combos = self._design_matrix(configs)
        y = np.asarray(scores, dtype=float)
        y_std = y.std()
        yn = (y - y.mean()) / (y_std if y_std > 0 else 1.0)
        scaler = StandardScaler()
        Xs = scaler.fit_transform(X)

        # Path of decreasing penalties from the critical alpha.
        n = len(yn)
        alpha_max = float(np.max(np.abs(Xs.T @ yn)) / n)
        if alpha_max <= 0:
            return np.zeros(self.space.n_dims)
        alphas = np.geomspace(alpha_max * 0.95, alpha_max * 1e-3, self.n_alphas)

        d = self.space.n_dims
        entry_rank = np.full(d, np.inf)  # smaller = enters earlier = stronger
        final_coef_credit = np.zeros(d)
        for step, alpha in enumerate(alphas):
            model = LassoRegression(alpha=float(alpha), max_iter=300, standardize=False)
            model.fit(Xs, yn)
            assert model.coef_ is not None
            self.surrogate_r2_ = r2_score(yn, model.predict(Xs))
            self._final_model = model
            self._scaler = scaler
            self._y_stats = (float(y.mean()), float(y_std if y_std > 0 else 1.0))
            for col, coef in enumerate(model.coef_):
                if abs(coef) <= 1e-9:
                    continue
                for owner in combos[col]:
                    entry_rank[owner] = min(entry_rank[owner], step)
                    final_coef_credit[owner] = max(final_coef_credit[owner], abs(coef))
        # Score: earlier path entry dominates; final |coef| breaks ties.
        never = ~np.isfinite(entry_rank)
        entry_rank[never] = self.n_alphas + 1
        max_credit = final_coef_credit.max()
        credit = final_coef_credit / max_credit if max_credit > 0 else final_coef_credit
        return (self.n_alphas + 1 - entry_rank) + credit

    def predict_holdout(self, configs) -> np.ndarray:
        """Predictions of the final-path linear model on unseen configs."""
        if getattr(self, "_final_model", None) is None:
            raise RuntimeError("measurement has not been run")
        X, __ = self._design_matrix(list(configs))
        mean, std = self._y_stats
        return self._final_model.predict(self._scaler.transform(X)) * std + mean
