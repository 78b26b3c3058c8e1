"""RGPE: ranking-weighted Gaussian process ensemble (Feurer et al., 2018).

Each source task contributes a base surrogate fitted once on its own
(standardized) observations; the target surrogate is refitted as target
observations accumulate.  The ensemble predicts

    mu(x) = sum_i w_i mu_i(x),   sigma^2(x) = sum_i w_i^2 sigma_i^2(x)

with weights from pairwise *ranking loss* on the target observations: in
each of ``n_bootstrap`` resamples, every model's number of mis-ranked
target pairs is counted (the target model is scored leave-one-out) and
the loss-minimizing model gets a vote.  Models that rank the target's
observations poorly get weight ~0 — this adaptivity is what protects
RGPE from the negative transfer that hurts workload mapping (§7.2).

Two concrete optimizers are provided, matching the paper's baselines:
:class:`RGPESMAC` (random-forest bases inside SMAC's candidate search)
and :class:`RGPEMixedKernelBO` (mixed-kernel GP bases inside BO's).
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import ConstantKernel, MixedKernel
from repro.optimizers.bo import MixedKernelBO
from repro.optimizers.smac import SMAC
from repro.transfer.repository import TransferRepository


class _Surrogate(Protocol):
    def predict_with_std(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


def ranking_loss(predictions: np.ndarray, targets: np.ndarray) -> int:
    """Number of discordant pairs between predicted and true orderings."""
    n = len(targets)
    loss = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (predictions[i] < predictions[j]) != (targets[i] < targets[j]):
                loss += 1
    return loss


class RGPESurrogate:
    """The weighted ensemble over source + target base models."""

    def __init__(
        self,
        source_models: list[_Surrogate],
        target_model: _Surrogate,
        weights: np.ndarray,
    ) -> None:
        if len(weights) != len(source_models) + 1:
            raise ValueError("need one weight per source model plus the target")
        self.models: list[_Surrogate] = list(source_models) + [target_model]
        self.weights = np.asarray(weights, dtype=float)

    def predict_with_std(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = np.zeros(len(X))
        var = np.zeros(len(X))
        for w, model in zip(self.weights, self.models):
            if w <= 0:
                continue
            m, s = model.predict_with_std(X)
            mean += w * m
            var += (w * s) ** 2
        return mean, np.sqrt(np.maximum(var, 1e-18))


def compute_rgpe_weights(
    source_models: list[_Surrogate],
    target_X: np.ndarray,
    target_y: np.ndarray,
    target_model_factory: Callable[[np.ndarray, np.ndarray], _Surrogate],
    rng: np.random.Generator,
    n_bootstrap: int = 30,
) -> np.ndarray:
    """Vote-based ranking weights (sources + target as the last entry)."""
    n = len(target_y)
    n_models = len(source_models) + 1
    if n < 3:
        weights = np.zeros(n_models)
        weights[-1] = 1.0
        return weights

    # Ranking losses are evaluated on a bounded subset of target points so
    # the leave-one-out refits stay cheap as the session grows.
    eval_idx = rng.choice(n, size=min(n, 20), replace=False)
    source_preds = [m.predict_with_std(target_X[eval_idx])[0] for m in source_models]
    loo_preds = np.empty(len(eval_idx))
    for pos, i in enumerate(eval_idx):
        mask = np.ones(n, dtype=bool)
        mask[i] = False
        model = target_model_factory(target_X[mask], target_y[mask])
        loo_preds[pos] = model.predict_with_std(target_X[i : i + 1])[0][0]
    eval_y = target_y[eval_idx]

    votes = np.zeros(n_models)
    m_eval = len(eval_idx)
    for __ in range(n_bootstrap):
        idx = rng.integers(0, m_eval, size=m_eval)
        losses = np.array(
            [ranking_loss(p[idx], eval_y[idx]) for p in source_preds]
            + [ranking_loss(loo_preds[idx], eval_y[idx])]
        )
        minimum = losses.min()
        winners = np.nonzero(losses == minimum)[0]
        votes[rng.choice(winners)] += 1.0
    # Discard sources that almost never win (Feurer et al.'s pruning).
    weights = votes / votes.sum()
    weights[:-1] = np.where(weights[:-1] < 0.05, 0.0, weights[:-1])
    total = weights.sum()
    return weights / total if total > 0 else np.eye(n_models)[-1]


class _RGPEMixin:
    """Shared source-model caching and ensemble construction."""

    repository: TransferRepository
    n_bootstrap: int

    def _init_rgpe(self, repository: TransferRepository, n_bootstrap: int = 30) -> None:
        self.repository = repository
        self.n_bootstrap = n_bootstrap
        self._source_models: list[_Surrogate] | None = None
        self.last_weights_: np.ndarray | None = None

    def _base_model(self, X: np.ndarray, y: np.ndarray, optimize: bool = True) -> _Surrogate:
        raise NotImplementedError

    def _source_surrogates(self) -> list[_Surrogate]:
        if self._source_models is None:
            self._source_models = []
            for task in self.repository:
                X, y = task.training_data()
                self._source_models.append(self._base_model(X, y))
        return self._source_models

    def _ensemble(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> RGPESurrogate:
        y_std = y.std()
        yn = (y - y.mean()) / (y_std if y_std > 0 else 1.0)
        sources = self._source_surrogates()
        target_model = self._base_model(X, yn)
        weights = compute_rgpe_weights(
            sources,
            X,
            yn,
            lambda Xs, ys: self._base_model(Xs, ys, optimize=False),
            rng,
            n_bootstrap=self.n_bootstrap,
        )
        self.last_weights_ = weights
        # De-standardize the ensemble output back to score scale.
        scale = y_std if y_std > 0 else 1.0

        class _Scaled:
            def __init__(self, inner: RGPESurrogate) -> None:
                self.inner = inner

            def predict_with_std(self, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                m, s = self.inner.predict_with_std(Xq)
                return m * scale + y.mean(), s * scale

        return _Scaled(RGPESurrogate(sources, target_model, weights))  # type: ignore[return-value]


class RGPESMAC(_RGPEMixin, SMAC):
    """SMAC whose surrogate is the RGPE ensemble of random forests."""

    name = "rgpe(smac)"

    def __init__(self, space, repository: TransferRepository, seed=None, **kwargs) -> None:
        SMAC.__init__(self, space, seed=seed, **kwargs)
        self._init_rgpe(repository)

    def _base_model(self, X: np.ndarray, y: np.ndarray, optimize: bool = True) -> _Surrogate:
        forest = RandomForestRegressor(
            n_estimators=self.n_trees if optimize else max(8, self.n_trees // 2),
            max_features=0.8,
            min_samples_split=3,
            seed=int(self.rng.integers(0, 2**31 - 1)),
        )
        forest.fit(X, y)
        return forest

    def _fit_surrogate(self, X: np.ndarray, y: np.ndarray):  # type: ignore[override]
        return self._ensemble(X, y, self.rng)


class RGPEMixedKernelBO(_RGPEMixin, MixedKernelBO):
    """Mixed-kernel BO whose surrogate is the RGPE ensemble of GPs."""

    name = "rgpe(mixed_kernel_bo)"

    def __init__(self, space, repository: TransferRepository, seed=None, **kwargs) -> None:
        MixedKernelBO.__init__(self, space, seed=seed, **kwargs)
        self._init_rgpe(repository)

    def _base_model(self, X: np.ndarray, y: np.ndarray, optimize: bool = True) -> _Surrogate:
        cont = np.nonzero(self.space.continuous_mask)[0]
        cat = np.nonzero(self.space.categorical_mask)[0]
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * MixedKernel(cont, cat),
            noise=self.noise,
            optimize_hyperparams=optimize and len(y) >= 8,
            n_restarts=0,
            seed=int(self.rng.integers(0, 2**31 - 1)),
        )
        gp.fit(X, y)
        return gp

    def _fit_gp(self, X: np.ndarray, y: np.ndarray):  # type: ignore[override]
        ensemble = self._ensemble(X, y, self.rng)

        class _GPAdapter:
            def predict(self, Xq, return_std=False):
                m, s = ensemble.predict_with_std(np.atleast_2d(Xq))
                return (m, s) if return_std else m

        return _GPAdapter()
