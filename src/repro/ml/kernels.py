"""Covariance kernels for Gaussian-process surrogates.

Vanilla BO (OtterTune-style) uses an RBF kernel over the unit-encoded
configuration.  Mixed-kernel BO (paper §3.2) uses the product of a
Matérn-5/2 kernel on continuous dimensions and a Hamming kernel on
categorical dimensions, which models categorical knobs without imposing a
spurious ordering.

Every kernel exposes a log-space hyperparameter vector (``theta``) with
box bounds so the GP can maximize marginal likelihood over it.

A kernel is evaluated in two stages.  ``pairwise(A, B)`` returns what
the kernel reads of its operands, which never depends on theta: squared
distances (RBF), distances (Matérn-5/2), mismatch counts (Hamming),
operand sizes (constant), a pair of child structures (product), and
``(A, B)`` by default.  ``from_pairwise(P)`` returns the covariance
matrix at the current theta, and ``__call__(A, B)`` is the second stage
applied to the first.  A GP fit builds the structure of its training
rows once and reuses it at every theta of its hyperparameter search.

Two paths skip a large temporary.  ``ConstantKernel.diag`` returns the
variance vector instead of the diagonal of an n x n ``self(X, X)``, and
the Hamming mismatch count accumulates one categorical column at a time
instead of broadcasting an (m, n, d) difference tensor.  Both give the
bytes and dtype of the computation they replace
(``tests/ml/test_gp_kernels.py``).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

_LOG_BOUND = (math.log(1e-3), math.log(1e3))


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(A**2, axis=1)[:, None]
        - 2.0 * A @ B.T
        + np.sum(B**2, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _mismatch_counts(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per pair of rows, the number of columns differing by more than 1e-12.

    Accumulated one column at a time, so no (m, n, d) temporary is built;
    NaN entries compare as equal, as ``abs(a - b) > 1e-12`` is false.
    """
    counts = np.zeros((len(A), len(B)), dtype=np.int_)
    diff = np.empty(counts.shape)
    for a, b in zip(A.T, B.T):
        np.subtract(a[:, None], b[None, :], out=diff)
        counts += np.abs(diff, out=diff) > 1e-12
    return counts


def _select(X: np.ndarray, dims: np.ndarray | None) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return X if dims is None else X[:, dims]


class Kernel:
    """Base covariance function."""

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> Any:
        """The theta-independent structure :meth:`from_pairwise` reads."""
        return A, B

    def from_pairwise(self, P: Any) -> np.ndarray:
        """The covariance matrix at the current theta."""
        raise NotImplementedError

    def __call__(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self.from_pairwise(self.pairwise(A, B))

    def diag(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.diag(self(X, X)).copy()

    # --- hyperparameter protocol (log-space) ---
    @property
    def theta(self) -> np.ndarray:
        return np.array([])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        if len(np.asarray(value).ravel()) != 0:
            raise ValueError("kernel has no hyperparameters")

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return []

    def __mul__(self, other: "Kernel") -> "ProductKernel":
        return ProductKernel(self, other)


class ConstantKernel(Kernel):
    """Signal-variance scaling: ``k(x, x') = variance``."""

    def __init__(self, variance: float = 1.0) -> None:
        if variance <= 0:
            raise ValueError("variance must be > 0")
        self.variance = variance

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> tuple[int, int]:
        return len(np.atleast_2d(A)), len(np.atleast_2d(B))

    def from_pairwise(self, P: tuple[int, int]) -> np.ndarray:
        return np.full(P, self.variance)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(np.atleast_2d(X)), self.variance)

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.variance)])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        self.variance = float(np.exp(np.asarray(value).ravel()[0]))

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return [_LOG_BOUND]


class RBFKernel(Kernel):
    """Isotropic squared-exponential kernel over selected dimensions."""

    def __init__(self, lengthscale: float = 0.5, dims: Sequence[int] | None = None) -> None:
        if lengthscale <= 0:
            raise ValueError("lengthscale must be > 0")
        self.lengthscale = lengthscale
        self.dims = None if dims is None else np.asarray(dims, dtype=int)

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return _sq_dists(_select(A, self.dims), _select(B, self.dims))

    def from_pairwise(self, P: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * P / self.lengthscale**2)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.ones(len(np.atleast_2d(X)))

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.lengthscale)])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        self.lengthscale = float(np.exp(np.asarray(value).ravel()[0]))

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return [(math.log(1e-2), math.log(1e2))]


class Matern52Kernel(Kernel):
    """Matérn nu=5/2 kernel: twice-differentiable, less smooth than RBF."""

    def __init__(self, lengthscale: float = 0.5, dims: Sequence[int] | None = None) -> None:
        if lengthscale <= 0:
            raise ValueError("lengthscale must be > 0")
        self.lengthscale = lengthscale
        self.dims = None if dims is None else np.asarray(dims, dtype=int)

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return np.sqrt(_sq_dists(_select(A, self.dims), _select(B, self.dims)))

    def from_pairwise(self, P: np.ndarray) -> np.ndarray:
        r = P / self.lengthscale
        sqrt5_r = math.sqrt(5.0) * r
        return (1.0 + sqrt5_r + 5.0 * r**2 / 3.0) * np.exp(-sqrt5_r)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.ones(len(np.atleast_2d(X)))

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.lengthscale)])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        self.lengthscale = float(np.exp(np.asarray(value).ravel()[0]))

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return [(math.log(1e-2), math.log(1e2))]


class HammingKernel(Kernel):
    """Exponentiated negative Hamming distance over categorical dimensions.

    Inputs are the unit encodings of categorical knobs; two values count as
    different whenever their unit positions differ (unit encoding is
    injective per choice, so this equals the native Hamming distance).
    """

    def __init__(self, lengthscale: float = 1.0, dims: Sequence[int] | None = None) -> None:
        if lengthscale <= 0:
            raise ValueError("lengthscale must be > 0")
        self.lengthscale = lengthscale
        self.dims = None if dims is None else np.asarray(dims, dtype=int)

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return _mismatch_counts(_select(A, self.dims), _select(B, self.dims))

    def from_pairwise(self, P: np.ndarray) -> np.ndarray:
        return np.exp(-P / self.lengthscale)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.ones(len(np.atleast_2d(X)))

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.lengthscale)])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        self.lengthscale = float(np.exp(np.asarray(value).ravel()[0]))

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return [(math.log(1e-1), math.log(1e2))]


class _Composite(Kernel):
    def __init__(self, left: Kernel, right: Kernel) -> None:
        self.left = left
        self.right = right

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> tuple[Any, Any]:
        return self.left.pairwise(A, B), self.right.pairwise(A, B)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.left.theta, self.right.theta])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value).ravel()
        n_left = len(self.left.theta)
        self.left.theta = value[:n_left]
        self.right.theta = value[n_left:]

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return self.left.bounds + self.right.bounds


class ProductKernel(_Composite):
    """Pointwise product of two kernels."""

    def from_pairwise(self, P: tuple[Any, Any]) -> np.ndarray:
        return self.left.from_pairwise(P[0]) * self.right.from_pairwise(P[1])

    def diag(self, X: np.ndarray) -> np.ndarray:
        return self.left.diag(X) * self.right.diag(X)


def MixedKernel(
    continuous_dims: Sequence[int],
    categorical_dims: Sequence[int],
    continuous_lengthscale: float = 0.5,
    categorical_lengthscale: float = 1.0,
) -> Kernel:
    """Matérn-5/2 on continuous dims × Hamming on categorical dims.

    The kernel of mixed-kernel BO (paper §3.2), as a :class:`ProductKernel`
    of the two factors; when either dimension set is empty, it is the
    other factor alone.
    """
    factors = [
        factor
        for factor in (
            Matern52Kernel(continuous_lengthscale, dims=continuous_dims),
            HammingKernel(categorical_lengthscale, dims=categorical_dims),
        )
        if len(factor.dims) > 0
    ]
    if not factors:
        raise ValueError("at least one dimension set must be non-empty")
    return factors[0] if len(factors) == 1 else factors[0] * factors[1]
