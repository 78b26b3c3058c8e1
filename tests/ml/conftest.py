"""Covariance functions that are not positive definite everywhere.

No kernel of ``repro.ml.kernels`` yields an indefinite Gram matrix, so the
GP's failure paths (a likelihood of ``-inf`` in the hyperparameter
search, the jitter ladder of the final factorization) need these.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.ml.kernels import Kernel, RBFKernel


class TableKernel(Kernel):
    """A fixed covariance table, indexed by the first column of each row."""

    def __init__(self, table: np.ndarray) -> None:
        self.table = table

    def from_pairwise(self, P):
        A, B = P
        rows = np.atleast_2d(A)[:, 0].astype(int)
        cols = np.atleast_2d(B)[:, 0].astype(int)
        return self.table[np.ix_(rows, cols)]


class ShiftedDiagonalKernel(Kernel):
    """RBF(0.3) plus ``shift - 0.05`` on the diagonal of a Gram matrix.

    ``theta = log(shift)``: the Gram matrix is indefinite for ``shift``
    below about 0.05, the lower part of the bounds.
    """

    def __init__(self, shift: float = 1.0) -> None:
        self.shift = shift

    def from_pairwise(self, P):
        A, B = P
        K = RBFKernel(0.3)(A, B)
        return K + (self.shift - 0.05) * np.eye(len(K)) if A is B else K

    def diag(self, X):
        return np.full(len(np.atleast_2d(X)), 1.0 + (self.shift - 0.05))

    @property
    def theta(self):
        return np.array([math.log(self.shift)])

    @theta.setter
    def theta(self, value):
        self.shift = float(np.exp(np.asarray(value).ravel()[0]))

    @property
    def bounds(self):
        return [(math.log(1e-3), math.log(10.0))]


class NegativeKernel(Kernel):
    """``-I`` on a Gram matrix: no jitter the GP tries makes it definite."""

    def from_pairwise(self, P):
        A, B = P
        if A is B:
            return -np.eye(len(np.atleast_2d(A)))
        return np.zeros((len(np.atleast_2d(A)), len(np.atleast_2d(B))))


@pytest.fixture
def table_kernel():
    return TableKernel


@pytest.fixture
def indefinite_table():
    """``(kernel, X, table)``: the Gram matrix on ``X`` is ``table``, whose
    eigenvalues are -5e-8 and seven values in [0.1, 1]."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    table = (q * np.append(np.linspace(1.0, 0.1, 7), -5e-8)) @ q.T
    table = (table + table.T) / 2.0
    X = np.column_stack([np.arange(8.0), rng.random(8)])
    return TableKernel(table), X, table


@pytest.fixture
def shifted_diagonal_kernel():
    return ShiftedDiagonalKernel


@pytest.fixture
def negative_kernel():
    return NegativeKernel
