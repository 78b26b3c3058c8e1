"""Tree-structured Parzen estimator (Bergstra et al., 2011).

TPE models ``p(theta | y)`` instead of ``p(y | theta)``: observations are
split into a "good" set (top ``gamma`` quantile) and a "bad" set, and each
gets a per-dimension density — 1-D Parzen (kernel) estimators for numeric
knobs and smoothed categorical histograms for categorical knobs.
Candidates are sampled from the good density ``l(x)`` and ranked by the
ratio ``l(x) / g(x)``, which is EI-optimal under TPE's assumptions.

Because the densities factor **per dimension**, TPE cannot represent
interactions between knobs — the weakness the paper identifies as the
reason TPE trails every other optimizer (§6.2.1).

Sampling walks the knobs in declaration order (the RNG stream is part of
the observable behavior), but the KDE density evaluations — the hot
part, a ``candidates x centers`` kernel matrix per dimension per side —
are stacked across all numeric dimensions into one broadcasted pass
(:func:`_batched_numeric_log_pdf`).  Every numeric dimension shares the
same center count (``n_good + 1`` resp. ``n_bad + 1``), which is what
makes the stacking rectangular.  Each row of that pass is byte-identical
to :meth:`_NumericParzen.log_pdf`, the per-dimension reference
(``tests/ml/test_tree_bit_identity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.optimizers.base import History, Optimizer
from repro.space import CategoricalKnob, Configuration, ConfigurationSpace


class _NumericParzen:
    """1-D Gaussian-kernel density over unit-interval samples."""

    def __init__(self, samples: np.ndarray, rng: np.random.Generator) -> None:
        self.rng = rng
        # Always include a flat prior pseudo-sample at the center.
        self.centers = np.concatenate([np.asarray(samples, dtype=float), [0.5]])
        n = len(self.centers)
        spread = max(self.centers.std(), 0.05)
        self.bandwidth = max(1.06 * spread * n ** (-0.2), 0.03)

    def sample(self, size: int) -> np.ndarray:
        idx = self.rng.integers(0, len(self.centers), size=size)
        draws = self.centers[idx] + self.rng.normal(0.0, self.bandwidth, size=size)
        return np.clip(draws, 0.0, 1.0)

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        """Per-dimension reference; ``TPE`` evaluates all numeric
        dimensions at once through :func:`_batched_numeric_log_pdf`."""
        x = np.asarray(x, dtype=float)
        diff = (x[:, None] - self.centers[None, :]) / self.bandwidth
        log_kernels = -0.5 * diff**2 - np.log(self.bandwidth * np.sqrt(2.0 * np.pi))
        max_log = log_kernels.max(axis=1, keepdims=True)
        return (
            max_log.ravel()
            + np.log(np.exp(log_kernels - max_log).sum(axis=1))
            - np.log(len(self.centers))
        )


def _batched_numeric_log_pdf(
    draws: np.ndarray, centers: np.ndarray, bandwidths: np.ndarray
) -> np.ndarray:
    """`_NumericParzen.log_pdf` for all numeric dimensions at once.

    ``draws`` is ``(n_candidates, n_dims)`` (one column per dimension),
    ``centers`` is ``(n_dims, n_centers)``, ``bandwidths`` ``(n_dims,)``.
    Returns ``(n_dims, n_candidates)``.  Row ``i`` is byte-identical to
    the per-dimension evaluation: every operation is elementwise except
    the max/sum reductions, which run over the same contiguous
    center axis in both forms.
    """
    diff = (draws.T[:, :, None] - centers[:, None, :]) / bandwidths[:, None, None]
    log_kernels = -0.5 * diff**2 - np.log(bandwidths * np.sqrt(2.0 * np.pi))[:, None, None]
    max_log = log_kernels.max(axis=2, keepdims=True)
    return (
        max_log[:, :, 0]
        + np.log(np.exp(log_kernels - max_log).sum(axis=2))
        - np.log(centers.shape[1])
    )


class _CategoricalParzen:
    """Smoothed categorical histogram."""

    def __init__(self, indices: np.ndarray, n_choices: int, rng: np.random.Generator) -> None:
        self.rng = rng
        counts = np.bincount(np.asarray(indices, dtype=int), minlength=n_choices).astype(float)
        counts += 1.0  # Laplace smoothing = uniform prior
        self.probs = counts / counts.sum()

    def sample(self, size: int) -> np.ndarray:
        return self.rng.choice(len(self.probs), size=size, p=self.probs)

    def log_pdf(self, idx: np.ndarray) -> np.ndarray:
        return np.log(self.probs[np.asarray(idx, dtype=int)])


class TPE(Optimizer):
    """Independent per-dimension good/bad Parzen densities + l/g ranking."""

    name = "tpe"

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: int | None = None,
        gamma: float = 0.25,
        n_candidates: int = 64,
        min_observations: int = 4,
    ) -> None:
        super().__init__(space, seed)
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        self.gamma = gamma
        self.n_candidates = n_candidates
        self.min_observations = min_observations

    def suggest(self, history: History) -> Configuration:
        if len(history) < self.min_observations:
            return self._dedupe(self._random_config(), history)
        X, y = self._training_data(history)
        n_good = max(1, int(np.ceil(self.gamma * len(y))))
        order = np.argsort(-y)  # maximization: best first
        good_idx, bad_idx = order[:n_good], order[n_good:]
        if len(bad_idx) == 0:
            return self._dedupe(self._random_config(), history)

        d = self.space.n_dims
        cand = np.empty((self.n_candidates, d))
        # Pass 1 — build the per-dimension densities and sample the
        # candidate columns, walking the knobs in declaration order so
        # the RNG stream is fixed by the knob order.
        # Density evaluation is deferred: categorical log-pdfs are cheap
        # lookups, numeric ones are collected for one broadcasted pass.
        contributions: list[tuple[np.ndarray, np.ndarray] | None] = [None] * d
        numeric_dims: list[int] = []
        numeric_draws: list[np.ndarray] = []
        numeric_good: list[_NumericParzen] = []
        numeric_bad: list[_NumericParzen] = []
        for j, knob in enumerate(self.space.knobs):
            if isinstance(knob, CategoricalKnob):
                to_idx = np.clip(
                    (X[:, j] * knob.n_choices).astype(int), 0, knob.n_choices - 1
                )
                good = _CategoricalParzen(to_idx[good_idx], knob.n_choices, self.rng)
                bad = _CategoricalParzen(to_idx[bad_idx], knob.n_choices, self.rng)
                draws = good.sample(self.n_candidates)
                contributions[j] = (good.log_pdf(draws), bad.log_pdf(draws))
                cand[:, j] = (draws + 0.5) / knob.n_choices
            else:
                good = _NumericParzen(X[good_idx, j], self.rng)
                bad = _NumericParzen(X[bad_idx, j], self.rng)
                draws = good.sample(self.n_candidates)
                cand[:, j] = draws
                numeric_dims.append(j)
                numeric_draws.append(draws)
                numeric_good.append(good)
                numeric_bad.append(bad)

        # Pass 2 — numeric densities: one stacked kernel-matrix pass per side.
        if numeric_dims:
            draws_mat = np.stack(numeric_draws, axis=1)
            log_l_rows = _batched_numeric_log_pdf(
                draws_mat,
                np.stack([p.centers for p in numeric_good]),
                np.array([p.bandwidth for p in numeric_good]),
            )
            log_g_rows = _batched_numeric_log_pdf(
                draws_mat,
                np.stack([p.centers for p in numeric_bad]),
                np.array([p.bandwidth for p in numeric_bad]),
            )
            for pos, j in enumerate(numeric_dims):
                contributions[j] = (log_l_rows[pos], log_g_rows[pos])

        # Pass 3 — accumulate in knob order (the per-dimension summation
        # order, kept for bit identity).
        log_l = np.zeros(self.n_candidates)
        log_g = np.zeros(self.n_candidates)
        for j in range(d):
            contribution = contributions[j]
            assert contribution is not None
            log_l += contribution[0]
            log_g += contribution[1]
        choice = self.space.decode(cand[int(np.argmax(log_l - log_g))])
        return self._dedupe(choice, history)
