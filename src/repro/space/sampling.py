"""Space-filling sampling designs.

The paper initializes every BO-based tuning session with 10 configurations
drawn by Latin Hypercube Sampling (McKay, 1992) and collects its offline
sample pools (6250 samples per space) the same way.  BO's and TuRBO's
candidate pools start from a Kronecker design, whose fractional parts
are taken by subtracting the floor in place: byte for byte numpy's
``% 1.0`` on its positive elements, without the remainder's division or
its temporaries.
"""

from __future__ import annotations

import numpy as np

from repro.space.configuration import Configuration
from repro.space.space import ConfigurationSpace


def latin_hypercube(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an ``(n, d)`` maximin-free Latin Hypercube design in ``[0, 1]^d``.

    Each dimension is partitioned into ``n`` equal strata; one point is
    placed uniformly inside each stratum and strata are randomly permuted
    per dimension, guaranteeing one-dimensional uniformity.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    strata = (np.arange(n)[:, None] + rng.random((n, d))) / n
    for j in range(d):
        strata[:, j] = strata[rng.permutation(n), j]
    return strata


def scrambled_sobol_like(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """A cheap low-discrepancy design: golden-ratio additive recurrence.

    Used where quasi-random (rather than stratified) coverage is preferred,
    e.g. candidate pools inside acquisition optimization.  The generator is
    the d-dimensional Kronecker sequence with a random offset.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    # Generalized golden ratios (Roberts, 2018).
    phi = 2.0
    for _ in range(32):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alphas = np.array([(1.0 / phi) ** (j + 1) for j in range(d)])
    offset = rng.random(d)
    # offset + idx * alphas, then its fractional part: byte for byte
    # ``% 1.0``, because every element is positive and both fmod and
    # subtracting the floor are exact there.
    design = np.arange(1, n + 1)[:, None] * alphas
    design += offset
    design -= np.floor(design)
    return design


class LatinHypercubeSampler:
    """Draws native configurations by Latin Hypercube design over a space."""

    def __init__(self, space: ConfigurationSpace, seed: int | None = None) -> None:
        self.space = space
        self._rng = np.random.default_rng(seed)

    def sample(self, n: int) -> list[Configuration]:
        """Return ``n`` LHS configurations from the space."""
        design = latin_hypercube(n, self.space.n_dims, self._rng)
        return self.space.decode_many(design)
