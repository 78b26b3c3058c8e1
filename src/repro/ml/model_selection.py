"""Cross-validation utilities (Table 9 uses 10-fold CV)."""

from __future__ import annotations

from typing import Iterator

import numpy as np


class KFold:
    """K-fold cross-validation splitter with optional shuffling."""

    def __init__(self, n_splits: int = 10, shuffle: bool = True, seed: int | None = None) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, n_samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_idx, test_idx)`` pairs over ``range(n_samples)``."""
        if n_samples < self.n_splits:
            raise ValueError(f"cannot split {n_samples} samples into {self.n_splits} folds")
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.seed)
            rng.shuffle(indices)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits)
        fold_sizes[: n_samples % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            test = indices[start : start + size]
            train = np.concatenate([indices[:start], indices[start + size :]])
            yield train, test
            start += size
