"""TuRBO: trust-region Bayesian optimization (Eriksson et al., 2019).

Maintains ``m`` independent trust regions, each a hyper-rectangle centred
on its local incumbent with side length ``L`` that grows on consecutive
successes and shrinks on failures; a collapsed region restarts elsewhere.
Each region fits a *local* GP on the observations inside it, avoiding both
the over-exploration of global GPs in high dimension and their cubic cost
on the full history.  Regions compete through an implicit bandit: every
suggestion goes to the region whose best candidate has the highest
Thompson-sampled value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import ConstantKernel, Matern52Kernel
from repro.optimizers.base import History, Observation, Optimizer
from repro.space import Configuration, ConfigurationSpace
from repro.space.sampling import scrambled_sobol_like


@dataclass
class _TrustRegion:
    center: np.ndarray
    length: float
    best_score: float = float("-inf")
    success_count: int = 0
    failure_count: int = 0
    pending: Configuration | None = None
    observations: list[tuple[np.ndarray, float]] = field(default_factory=list)

    L_MIN = 0.5**6
    L_MAX = 1.0
    SUCCESS_TOLERANCE = 3
    FAILURE_TOLERANCE = 4

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(np.abs(x - self.center) <= self.length / 2.0 + 1e-12))

    def update(self, x: np.ndarray, score: float) -> None:
        """Register an observation made on behalf of this region."""
        self.observations.append((x, score))
        if not np.isfinite(self.best_score):
            threshold = float("-inf")
        else:
            threshold = self.best_score + 1e-9 * max(abs(self.best_score), 1.0)
        if score > threshold:
            self.best_score = score
            self.center = x.copy()
            self.success_count += 1
            self.failure_count = 0
        else:
            self.failure_count += 1
            self.success_count = 0
        if self.success_count >= self.SUCCESS_TOLERANCE:
            self.length = min(self.length * 2.0, self.L_MAX)
            self.success_count = 0
        elif self.failure_count >= self.FAILURE_TOLERANCE:
            self.length /= 2.0
            self.failure_count = 0

    @property
    def collapsed(self) -> bool:
        return self.length < self.L_MIN


class TuRBO(Optimizer):
    """TuRBO-m over the unit-encoded configuration space."""

    name = "turbo"

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: int | None = None,
        n_regions: int = 3,
        n_candidates: int = 256,
        init_length: float = 0.4,
    ) -> None:
        super().__init__(space, seed)
        if n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        self.n_regions = n_regions
        self.n_candidates = n_candidates
        self.init_length = init_length
        self._regions: list[_TrustRegion] = []

    def _new_region(self) -> _TrustRegion:
        return _TrustRegion(center=self.rng.random(self.space.n_dims), length=self.init_length)

    def _region_candidates(self, region: _TrustRegion) -> np.ndarray:
        d = self.space.n_dims
        half = region.length / 2.0
        lo = np.clip(region.center - half, 0.0, 1.0)
        hi = np.clip(region.center + half, 0.0, 1.0)
        raw = lo + scrambled_sobol_like(self.n_candidates, d, self.rng) * (hi - lo)
        # Perturb only a subset of dims per candidate (TuRBO's sparse moves).
        prob = min(1.0, 20.0 / d)
        mask = self.rng.random(raw.shape) < prob
        mask[np.arange(len(raw)), self.rng.integers(0, d, len(raw))] = True
        cands = np.where(mask, raw, region.center[None, :])
        # Array-level snap (bit-identical to the per-row decode/encode loop).
        return self.space.snap_many(cands)

    def _local_gp(self, region: _TrustRegion) -> GaussianProcessRegressor | None:
        if len(region.observations) < 2:
            return None
        X = np.array([x for x, __ in region.observations])
        y = np.array([s for __, s in region.observations])
        if np.allclose(y, y[0]):
            return None
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * Matern52Kernel(0.3),
            noise=1e-4,
            optimize_hyperparams=len(region.observations) >= 6,
            n_restarts=0,
            seed=int(self.rng.integers(0, 2**31 - 1)),
        )
        gp.fit(X, y)
        return gp

    def suggest(self, history: History) -> Configuration:
        while len(self._regions) < self.n_regions:
            self._regions.append(self._new_region())
        # Seed each fresh region with history points that fall inside it.
        for region in self._regions:
            if not region.observations:
                for obs in history.successful():
                    x = self.space.encode(obs.config)
                    if region.contains(x):
                        region.update(x, obs.score)

        best_value = float("-inf")
        best_choice: Configuration | None = None
        best_region_idx = 0
        for idx, region in enumerate(self._regions):
            if region.collapsed:
                self._regions[idx] = self._new_region()
                region = self._regions[idx]
            candidates = self._region_candidates(region)
            gp = self._local_gp(region)
            if gp is None:
                values = self.rng.random(len(candidates))
            else:
                # Thompson sampling from the local posterior.
                mean, std = gp.predict(candidates, return_std=True)
                values = mean + std * self.rng.standard_normal(len(candidates))
            j = int(np.argmax(values))
            if values[j] > best_value:
                best_value = float(values[j])
                best_choice = self.space.decode(candidates[j])
                best_region_idx = idx
        assert best_choice is not None
        self._regions[best_region_idx].pending = best_choice
        return self._dedupe(best_choice, history)

    def observe(self, observation: Observation) -> None:
        x = self.space.encode(observation.config)
        for region in self._regions:
            if region.pending is not None and region.pending == observation.config:
                region.update(x, observation.score)
                region.pending = None
                return
        # Not a pending suggestion (e.g. LHS init): feed regions that contain it.
        for region in self._regions:
            if region.contains(x):
                region.update(x, observation.score)
