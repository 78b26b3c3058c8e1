"""Gaussian-process Bayesian optimization: vanilla and mixed-kernel.

Vanilla BO follows the OtterTune/iTuned design (paper §4.2): a GP with an
RBF kernel over the unit-encoded configuration and Expected Improvement.
The RBF kernel imposes a metric — and hence a spurious ordering — on
categorical dimensions, which is exactly the weakness the heterogeneity
experiment (Figure 8) exposes.

Mixed-kernel BO replaces the kernel with Matérn-5/2 x Hamming so
categorical knobs are compared by equality only (paper §3.2).

Both refit the GP from scratch every iteration — a full hyperparameter
search and a fresh factorization of the whole history — which is the
cubic algorithm-overhead growth of Figure 9.  Three things remove
implementation overhead without moving a suggestion (see
``docs/PERFORMANCE.md``): the GP builds the kernel's theta-independent
pairwise structure (distances, mismatch counts) once per fit and reuses
it at every theta of the hyperparameter search; its search hands
L-BFGS-B the likelihood and its finite-difference gradient from one call
per step and factorizes through LAPACK directly (bit-identical to
scipy's finite-difference code and ``scipy.linalg`` wrappers); and the
candidate pool is snapped to valid encodings with the array-level
:meth:`ConfigurationSpace.snap_many` (bit-identical to a per-row
``decode``/``encode`` loop).
"""

from __future__ import annotations

import numpy as np

from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import ConstantKernel, Kernel, MixedKernel, RBFKernel
from repro.optimizers.acquisitions import expected_improvement
from repro.optimizers.base import History, Observation, Optimizer
from repro.space import Configuration, ConfigurationSpace
from repro.space.sampling import scrambled_sobol_like


class _GPBasedBO(Optimizer):
    """Shared GP + EI machinery."""

    n_candidates = 1024
    n_local_candidates = 256
    local_stdev = 0.12

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: int | None = None,
        noise: float = 1e-4,
        n_restarts: int = 1,
    ) -> None:
        super().__init__(space, seed)
        self.noise = noise
        self.n_restarts = n_restarts

    def _make_kernel(self) -> Kernel:
        raise NotImplementedError

    def _fit_gp(self, X: np.ndarray, y: np.ndarray) -> GaussianProcessRegressor:
        """A fresh hyperparameter-optimized GP on the whole history."""
        gp = GaussianProcessRegressor(
            kernel=self._make_kernel(),
            noise=self.noise,
            normalize_y=True,
            optimize_hyperparams=True,
            n_restarts=self.n_restarts,
            seed=int(self.rng.integers(0, 2**31 - 1)),
        )
        gp.fit(X, y)
        return gp

    def _candidate_pool(self, history: History) -> np.ndarray:
        """Quasi-random global candidates plus local perturbations of the
        best configurations, snapped to valid encodings."""
        d = self.space.n_dims
        pool = [scrambled_sobol_like(self.n_candidates, d, self.rng)]
        succ = sorted(history.successful(), key=lambda o: o.score, reverse=True)
        if succ:
            anchors = [self.space.encode(o.config) for o in succ[:4]]
            per_anchor = max(1, self.n_local_candidates // len(anchors))
            for anchor in anchors:
                local = anchor[None, :] + self.rng.normal(0.0, self.local_stdev, (per_anchor, d))
                # Categorical dims move by re-draw, not by Gaussian walk.
                cat = self.space.categorical_mask
                if cat.any():
                    redraw = self.rng.random((per_anchor, d)) < 0.25
                    redraw &= cat[None, :]
                    local = np.where(redraw, self.rng.random((per_anchor, d)), local)
                    local[:, cat] = np.where(
                        redraw[:, cat], local[:, cat], np.broadcast_to(anchor[cat], (per_anchor, int(cat.sum())))
                    )
                pool.append(np.clip(local, 0.0, 1.0))
        cands = np.vstack(pool)
        # Snap so integer/categorical dims are exact.
        return self.space.snap_many(cands)

    def suggest(self, history: History) -> Configuration:
        succ = history.successful()
        if len(succ) < 2:
            return self._dedupe(self._random_config(), history)
        X, y = self._training_data(history)
        gp = self._fit_gp(X, y)
        candidates = self._candidate_pool(history)
        mean, std = gp.predict(candidates, return_std=True)
        best = max(o.score for o in succ)
        ei = expected_improvement(mean, std, best)
        choice = self.space.decode(candidates[int(np.argmax(ei))])
        return self._dedupe(choice, history)

    def observe(self, observation: Observation) -> None:  # pragma: no cover - stateless
        pass


class VanillaBO(_GPBasedBO):
    """GP(RBF) + EI — the iTuned/OtterTune optimizer."""

    name = "vanilla_bo"

    def _make_kernel(self) -> Kernel:
        return ConstantKernel(1.0) * RBFKernel(0.5)


class MixedKernelBO(_GPBasedBO):
    """GP(Matérn-5/2 x Hamming) + EI for heterogeneous spaces."""

    name = "mixed_kernel_bo"

    def _make_kernel(self) -> Kernel:
        cont = np.nonzero(self.space.continuous_mask)[0]
        cat = np.nonzero(self.space.categorical_mask)[0]
        return ConstantKernel(1.0) * MixedKernel(cont, cat)
