"""Sensitivity analysis of importance measurements (paper §5.2, Figure 4).

For each training-set size, the measurement is run ``n_repeats`` times on
random subsamples of the full pool; the similarity of its top-k knobs to
the full-pool baseline ranking (intersection-over-union) quantifies its
*stability*, and the surrogate R² on held-out data quantifies how well
its underlying model captures the configuration-performance relationship.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.ml.metrics import intersection_over_union, r2_score
from repro.selection.base import ImportanceMeasurement
from repro.space import Configuration


@dataclass
class SensitivityPoint:
    """Stability/quality of one measurement at one sample size."""

    n_samples: int
    similarity: float
    similarity_std: float
    r2: float
    r2_std: float


def sensitivity_analysis(
    measurement_factory: Callable[[int], ImportanceMeasurement],
    configs: Sequence[Configuration],
    scores: np.ndarray,
    default_score: float,
    sample_sizes: Sequence[int],
    n_repeats: int = 10,
    top_k: int = 5,
    holdout_fraction: float = 0.2,
    seed: int | None = None,
) -> list[SensitivityPoint]:
    """Figure 4's two curves for one importance measurement.

    ``measurement_factory(seed)`` builds a fresh measurement instance.
    The baseline top-k comes from running on the full pool.
    """
    scores = np.asarray(scores, dtype=float)
    rng = np.random.default_rng(seed)
    n = len(configs)
    n_holdout = max(1, int(round(holdout_fraction * n)))
    holdout_idx = rng.choice(n, size=n_holdout, replace=False)
    holdout_mask = np.zeros(n, dtype=bool)
    holdout_mask[holdout_idx] = True
    pool_idx = np.nonzero(~holdout_mask)[0]

    baseline = measurement_factory(0 if seed is None else seed)
    baseline_top = set(
        baseline.rank(
            [configs[i] for i in pool_idx], scores[pool_idx], default_score
        ).top(top_k)
    )
    holdout_configs = [configs[i] for i in holdout_idx]
    holdout_scores = scores[holdout_idx]

    points: list[SensitivityPoint] = []
    for size in sample_sizes:
        size = min(size, len(pool_idx))
        sims: list[float] = []
        r2s: list[float] = []
        for rep in range(n_repeats):
            sub = rng.choice(pool_idx, size=size, replace=False)
            m = measurement_factory(rep if seed is None else seed + rep + 1)
            result = m.rank([configs[i] for i in sub], scores[sub], default_score)
            sims.append(intersection_over_union(set(result.top(top_k)), baseline_top))
            r2s.append(r2_score(holdout_scores, m.predict_holdout(holdout_configs)))
        points.append(
            SensitivityPoint(
                n_samples=size,
                similarity=float(np.mean(sims)),
                similarity_std=float(np.std(sims)),
                r2=float(np.mean(r2s)),
                r2_std=float(np.std(r2s)),
            )
        )
    return points

