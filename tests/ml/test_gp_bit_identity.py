"""The GP against its scipy-wrapper reference, byte for byte.

``ReferenceGP`` is the GP written against scipy's wrappers: the
likelihood factorizes with ``linalg.cholesky`` and solves with
``linalg.cho_solve``, L-BFGS-B differentiates it by its own finite
differences (``jac=None``, ``eps=1e-3``), the jitter ladder factorizes
with ``linalg.cholesky`` and ``predict`` solves with
``linalg.solve_triangular``.  No option of the GP selects that path, so
the tests build it.  Kernel calls are shared, so what is compared is the
search and the linear algebra: every theta the likelihood is evaluated
at, the fitted theta, factor, weights and likelihood, and predictions.
"""

import math

import numpy as np
import pytest
from scipy import linalg, optimize

import repro.optimizers.bo as bo_module
import repro.optimizers.turbo as turbo_module
from repro.dbms.catalog import mysql_knob_space
from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import ConstantKernel, Matern52Kernel, MixedKernel, RBFKernel
from repro.optimizers.base import History, Observation
from repro.optimizers.bo import MixedKernelBO, VanillaBO
from repro.optimizers.turbo import TuRBO


class ReferenceGP(GaussianProcessRegressor):
    """The GP's search, ladder and solves through scipy's wrappers."""

    def _lml(self, P, y):
        n = len(y)
        K = self.kernel.from_pairwise(P) + (self.noise + 1e-8) * np.eye(n)
        try:
            L = linalg.cholesky(K, lower=True)
        except linalg.LinAlgError:
            return float("-inf")
        alpha = linalg.cho_solve((L, True), y)
        return float(
            -0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2.0 * np.pi)
        )

    def _fit_hyperparams(self, P, y):
        bounds = self.kernel.bounds
        if not bounds:
            return
        rng = np.random.default_rng(self.seed)
        best_theta = self.kernel.theta.copy()
        memo = {}

        def negative_lml(theta):
            hit = memo.get(np.asarray(theta, dtype=float).tobytes())
            if hit is not None:
                return hit
            self.kernel.theta = theta
            return -self._lml(P, y)

        best_val = negative_lml(best_theta)
        memo[best_theta.tobytes()] = best_val
        starts = [best_theta]
        for _ in range(self.n_restarts):
            starts.append(np.array([rng.uniform(lo, hi) for lo, hi in bounds]))
        for start in starts:
            result = optimize.minimize(
                negative_lml,
                start,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": 30, "eps": 1e-3},
            )
            if np.isfinite(result.fun) and result.fun < best_val:
                best_val = float(result.fun)
                best_theta = result.x.copy()
        self.kernel.theta = best_theta

    def fit(self, X, y):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if self.normalize_y:
            self._y_mean = float(y.mean())
            std = float(y.std())
            self._y_std = std if std > 0 else 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        yn = (y - self._y_mean) / self._y_std
        P = self.kernel.pairwise(X, X)
        if self.optimize_hyperparams:
            self._fit_hyperparams(P, yn)
        n = len(X)
        K = self.kernel.from_pairwise(P) + (self.noise + 1e-8) * np.eye(n)
        jitter = 1e-8
        while True:
            try:
                self._chol = linalg.cholesky(K + jitter * np.eye(n), lower=True)
                break
            except linalg.LinAlgError:
                jitter *= 10.0
                if jitter > 1e-2:
                    raise
        self._alpha = linalg.cho_solve((self._chol, True), yn)
        self._X = X
        self._y_raw = y.copy()
        self.log_marginal_likelihood_ = float(
            -0.5 * yn @ self._alpha
            - np.sum(np.log(np.diag(self._chol)))
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        return self

    def predict(self, X, return_std=False):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        K_star = self.kernel(X, self._X)
        mean = K_star @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = linalg.solve_triangular(self._chol, K_star.T, lower=True)
        var = self.kernel.diag(X) - np.sum(v**2, axis=0)
        return mean, np.sqrt(np.maximum(var, 1e-12)) * self._y_std


class _Recording:
    """Records ``(theta bytes, likelihood)`` for every likelihood evaluated."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evaluated = []

    def _lml(self, P, y):
        value = super()._lml(P, y)
        self.evaluated.append((self.kernel.theta.tobytes(), value))
        return value


class RecordingGP(_Recording, GaussianProcessRegressor):
    pass


class RecordingReferenceGP(_Recording, ReferenceGP):
    pass


def _outcome(gp_class, make_kernel, X, y, X_test, **kwargs):
    """Everything a fit leaves behind, as bytes; or the exception it raised."""
    gp = gp_class(kernel=make_kernel(), **kwargs)
    try:
        gp.fit(X, y)
    except (ValueError, linalg.LinAlgError) as exc:
        return ("raised", type(exc), str(exc), gp.evaluated)
    mean, std = gp.predict(X_test, return_std=True)
    return (
        gp.kernel.theta.tobytes(),
        gp._chol.tobytes(),
        gp._chol.flags.f_contiguous,
        gp._alpha.tobytes(),
        np.float64(gp.log_marginal_likelihood_).tobytes(),
        mean.tobytes(),
        std.tobytes(),
        gp.predict(X_test).tobytes(),
        gp.evaluated,
    )


def _assert_same_fit(make_kernel, X, y, X_test, **kwargs):
    got = _outcome(RecordingGP, make_kernel, X, y, X_test, **kwargs)
    want = _outcome(RecordingReferenceGP, make_kernel, X, y, X_test, **kwargs)
    assert got[-1] == want[-1], "the searches evaluated different thetas"
    assert got == want
    return got


D = 6
KERNELS = {
    "rbf": lambda: ConstantKernel(1.0) * RBFKernel(0.5),
    "matern": lambda: ConstantKernel(1.0) * Matern52Kernel(0.3),
    "mixed": lambda: ConstantKernel(1.0) * MixedKernel([0, 1, 2], [3, 4, 5]),
    "mixed_continuous": lambda: ConstantKernel(1.0) * MixedKernel(list(range(D)), []),
    "mixed_categorical": lambda: ConstantKernel(1.0) * MixedKernel([], list(range(D))),
}


def _data(n, seed, categorical=range(3, D)):
    """Rows in the unit cube, ``categorical`` columns on a four-level grid."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, D))
    cols = list(categorical)
    X[:, cols] = (np.floor(X[:, cols] * 4.0) + 0.5) / 4.0
    y = np.sin(3.0 * X[:, 0]) - X[:, 1] ** 2 + X[:, 3] + 0.1 * rng.standard_normal(n)
    X_test = rng.random((40, D))
    X_test[:, cols] = (np.floor(X_test[:, cols] * 4.0) + 0.5) / 4.0
    return X, y, X_test


class TestFitIdentity:
    @pytest.mark.parametrize("n_restarts", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 9, 24, 60])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_fit_and_predict_match_reference(self, kernel, n, n_restarts):
        categorical = range(D) if kernel == "mixed_categorical" else range(3, D)
        X, y, X_test = _data(n, seed=n * 10 + n_restarts, categorical=categorical)
        got = _assert_same_fit(
            KERNELS[kernel], X, y, X_test, noise=1e-4, n_restarts=n_restarts, seed=n
        )
        assert got[0] != "raised"

    @pytest.mark.parametrize("scale,offset", [(1e-3, 1e6), (1e4, 0.0), (1.0, -1e6)])
    def test_scaled_targets(self, scale, offset):
        X, y, X_test = _data(20, seed=3)
        _assert_same_fit(
            KERNELS["mixed"], X, y * scale + offset, X_test, noise=1e-4, n_restarts=1, seed=4
        )

    @pytest.mark.parametrize("normalize_y", [True, False])
    def test_constant_targets(self, normalize_y):
        X, _, X_test = _data(12, seed=5)
        _assert_same_fit(
            KERNELS["rbf"],
            X,
            np.full(12, 2.5),
            X_test,
            noise=1e-4,
            n_restarts=2,
            seed=6,
            normalize_y=normalize_y,
        )

    def test_start_at_upper_bound_flips_the_step(self):
        """Both parameters start at their upper bound, so the forward step
        would leave the box and the stencil steps backward instead."""
        def make_kernel():
            return ConstantKernel(1e3) * RBFKernel(1e2)

        X, y, X_test = _data(15, seed=7)
        got = _assert_same_fit(make_kernel, X, y, X_test, noise=1e-4, n_restarts=0, seed=8)
        upper = np.array([ub for _, ub in make_kernel().bounds])
        evaluated = [np.frombuffer(theta) for theta, _ in got[-1]]
        assert np.array_equal(evaluated[0], upper)
        assert np.array_equal(evaluated[1], [upper[0] - 1e-3, upper[1]])
        assert np.array_equal(evaluated[2], [upper[0], upper[1] - 1e-3])


class TestFailurePathIdentity:
    """The search's ``-inf`` branch, the jitter ladder and its final error
    go the same way on both paths."""

    @pytest.mark.parametrize("n_restarts", [0, 1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_indefinite_region_of_the_search(self, shifted_diagonal_kernel, seed, n_restarts):
        rng = np.random.default_rng(seed)
        X = rng.random((12, 2))
        y = np.sin(3.0 * X[:, 0]) + X[:, 1]
        got = _assert_same_fit(
            shifted_diagonal_kernel,
            X,
            y,
            rng.random((9, 2)),
            noise=0.0,
            n_restarts=n_restarts,
            seed=seed,
        )
        if (seed, n_restarts) == (1, 1):
            assert any(value == float("-inf") for _, value in got[-1])
            assert got[0] != "raised"

    def test_jitter_ladder(self, indefinite_table):
        kernel, X, _ = indefinite_table
        _assert_same_fit(
            lambda: kernel, X, np.arange(8.0) % 3, X, noise=0.0, optimize_hyperparams=False
        )

    def test_ladder_exhausted(self, negative_kernel):
        X, y, _ = _data(5, seed=9)
        got = _assert_same_fit(negative_kernel, X, y, X, noise=0.0)
        assert got[:2] == ("raised", linalg.LinAlgError)


class _NarrowRBF(RBFKernel):
    def __init__(self, bounds):
        super().__init__(1.0)
        self._bounds = bounds

    @property
    def bounds(self):
        return self._bounds


@pytest.mark.parametrize(
    "bounds",
    [
        [(0.0, 1e-3)],  # the step fits on neither side of the midpoint
        [(-1.0, -1.0)],
        [(-math.inf, math.inf)],
        [(2e12, 2e12 + 10.0)],  # theta + 1e-3 rounds back to theta
    ],
)
def test_bounds_that_would_change_the_step_are_rejected(bounds):
    """Bounds under which scipy would shrink the step or replace it with a
    relative one are refused rather than differentiated differently."""
    X, y, _ = _data(6, seed=10)
    with pytest.raises(ValueError, match="hyperparameter bounds"):
        GaussianProcessRegressor(kernel=_NarrowRBF(bounds), seed=0).fit(X, y)


def _drive(optimizer, space, iterations):
    history = History(space)
    sequence = []
    for _ in range(iterations):
        config = optimizer.suggest(history)
        x = space.encode(config)
        sequence.append((repr(config), x.tobytes()))
        score = -float(np.sum((x - 0.35) ** 2))
        observation = Observation(config=config, objective=score, score=score)
        history.append(observation)
        optimizer.observe(observation)
    return sequence


class TestOptimizerIdentity:
    """Suggestion sequences on the full catalog space are unchanged when the
    optimizers' GP is swapped for the reference."""

    @pytest.mark.parametrize(
        "module,make,iterations",
        [
            (bo_module, lambda s: VanillaBO(s, seed=11), 14),
            (bo_module, lambda s: MixedKernelBO(s, seed=12), 14),
            (turbo_module, lambda s: TuRBO(s, seed=13), 36),
        ],
        ids=["vanilla_bo", "mixed_kernel_bo", "turbo"],
    )
    def test_suggestion_sequence(self, module, make, iterations, monkeypatch):
        space = mysql_knob_space("B")
        fast = _drive(make(space), space, iterations)

        searched = []

        class CountingReferenceGP(ReferenceGP):
            def _fit_hyperparams(self, P, y):
                searched.append(len(y))
                super()._fit_hyperparams(P, y)

        monkeypatch.setattr(module, "GaussianProcessRegressor", CountingReferenceGP)
        reference = _drive(make(space), space, iterations)
        assert len(searched) >= 12
        assert fast == reference
