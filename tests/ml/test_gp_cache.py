"""The kernels' two-stage protocol, derived LML and hyperparameter-fit
regressions — the GP's bit-identical implementation-overhead savings.

A fit builds each kernel factor's theta-independent pairwise structure
of the training rows once and evaluates the covariance from it at every
theta of the search.  The reference is a fit whose kernel rebuilds the
structure at every theta; no option of the GP selects it, so the tests
build it themselves."""

import numpy as np
import pytest

from repro.ml import kernels
from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import (
    ConstantKernel,
    HammingKernel,
    Kernel,
    Matern52Kernel,
    MixedKernel,
    RBFKernel,
)


def _data(seed=0, n=20, d=5):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.sin(3.0 * X[:, 0]) - X[:, 2] + 0.1 * rng.standard_normal(n)
    return X, y


def _dims(space):
    return np.nonzero(space.continuous_mask)[0], np.nonzero(space.categorical_mask)[0]


#: The kernels of vanilla BO, TuRBO and mixed-kernel BO over a space.
KERNELS = {
    "rbf": lambda space: ConstantKernel(1.0) * RBFKernel(0.5),
    "matern": lambda space: ConstantKernel(1.0) * Matern52Kernel(0.3),
    "mixed": lambda space: ConstantKernel(1.0) * MixedKernel(*_dims(space)),
}


@pytest.fixture(scope="module")
def catalog():
    """``(space, X, y, X_test)``: catalog-encoded rows of the 197-knob space."""
    from repro.dbms.catalog import mysql_knob_space

    space = mysql_knob_space("B", seed=0)
    rng = np.random.default_rng(41)
    X = space.encode_many(space.sample_configurations(24, rng))
    X_test = space.encode_many(space.sample_configurations(9, rng))
    y = -np.sum((X - 0.35) ** 2, axis=1) + 0.05 * rng.standard_normal(len(X))
    return space, X, y, X_test


def _structure_bytes(P):
    """A pairwise structure (arrays, sizes, nested pairs) as comparable bytes."""
    if isinstance(P, tuple):
        return tuple(_structure_bytes(part) for part in P)
    if isinstance(P, np.ndarray):
        return P.dtype.str, P.shape, P.tobytes()
    return P


class _Rebuilding(Kernel):
    """``inner`` with its pairwise structure rebuilt at every theta: the
    first stage keeps the operands, the second calls ``inner`` afresh."""

    def __init__(self, inner):
        self.inner = inner

    def from_pairwise(self, P):
        return self.inner(*P)

    def diag(self, X):
        return self.inner.diag(X)

    @property
    def theta(self):
        return self.inner.theta

    @theta.setter
    def theta(self, value):
        self.inner.theta = value

    @property
    def bounds(self):
        return self.inner.bounds


class TestPairwise:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_structure_is_theta_independent(self, name, catalog):
        """``pairwise`` gives the same bytes at every theta, and
        ``from_pairwise`` of a structure built at one theta gives a fresh
        call's bytes at another."""
        space, X, _, X_test = catalog
        kernel = KERNELS[name](space)
        box = np.array(kernel.bounds)
        rng = np.random.default_rng(5)
        thetas = [kernel.theta] + [rng.uniform(box[:, 0], box[:, 1]) for _ in range(4)]
        for A, B in ((X, X), (X_test, X)):
            kernel.theta = thetas[0]
            first = kernel.pairwise(A, B)
            for theta in thetas:
                kernel.theta = theta
                assert _structure_bytes(kernel.pairwise(A, B)) == _structure_bytes(first)
                fresh = kernel(A, B)
                assert kernel.from_pairwise(first).tobytes() == fresh.tobytes()


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_fit_matches_per_theta_rebuild(self, name, catalog):
        """Building the structure once per fit must not perturb the
        hyperparameter search, the resulting theta, the likelihood or the
        predictions — byte for byte against a kernel that rebuilds it at
        every theta.  The restart this seed draws moves every parameter."""
        space, X, y, X_test = catalog
        start = KERNELS[name](space).theta
        results = []
        for make in (KERNELS[name], lambda s: _Rebuilding(KERNELS[name](s))):
            gp = GaussianProcessRegressor(kernel=make(space), noise=1e-4, n_restarts=1, seed=5)
            gp.fit(X, y)
            assert np.all(gp.kernel.theta != start)
            mean, std = gp.predict(X_test, return_std=True)
            results.append(
                (
                    gp.kernel.theta.tobytes(),
                    gp.log_marginal_likelihood_,
                    mean.tobytes(),
                    std.tobytes(),
                )
            )
        assert results[0] == results[1]

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_structure_built_once_per_factor(self, name, catalog, monkeypatch):
        """One fit computes each factor's distances or mismatch counts
        once, however many thetas its search evaluates."""
        space, X, y, _ = catalog
        calls = {"_sq_dists": 0, "_mismatch_counts": 0}
        for fn in calls:

            def counting(A, B, fn=fn, original=getattr(kernels, fn)):
                calls[fn] += 1
                return original(A, B)

            monkeypatch.setattr(kernels, fn, counting)
        evaluated = []

        class CountingGP(GaussianProcessRegressor):
            def _lml(self, P, y):
                evaluated.append(self.kernel.theta.tobytes())
                return super()._lml(P, y)

        gp = CountingGP(kernel=KERNELS[name](space), noise=1e-4, n_restarts=1, seed=5)
        gp.fit(X, y)
        assert len(set(evaluated)) > 10
        builds = {"rbf": (1, 0), "matern": (1, 0), "mixed": (1, 1)}[name]
        assert (calls["_sq_dists"], calls["_mismatch_counts"]) == builds


class TestMixedKernel:
    @pytest.mark.parametrize("factors", ["both", "continuous", "categorical"])
    def test_equals_explicit_factors(self, factors, catalog):
        """``MixedKernel`` is the Matérn × Hamming product, or the one
        factor whose dimension set is non-empty: same theta, bounds and
        matrix bytes, before and after a theta change."""
        space, X, _, X_test = catalog
        cont, cat = _dims(space)
        if factors == "continuous":
            cat = np.array([], dtype=int)
        elif factors == "categorical":
            cont = np.array([], dtype=int)
        mixed = MixedKernel(cont, cat, 0.7, 2.0)
        explicit = {
            "both": lambda: Matern52Kernel(0.7, dims=cont) * HammingKernel(2.0, dims=cat),
            "continuous": lambda: Matern52Kernel(0.7, dims=cont),
            "categorical": lambda: HammingKernel(2.0, dims=cat),
        }[factors]()
        box = np.array(explicit.bounds)
        for theta in (explicit.theta, (box[:, 0] + 2.0 * box[:, 1]) / 3.0):
            mixed.theta = explicit.theta = theta
            assert mixed.theta.tobytes() == explicit.theta.tobytes()
            assert mixed.bounds == explicit.bounds
            assert mixed.diag(X_test).tobytes() == explicit.diag(X_test).tobytes()
            for A, B in ((X, X), (X_test, X)):
                assert mixed(A, B).tobytes() == explicit(A, B).tobytes()


class TestFitHyperparams:
    def test_incumbent_lml_evaluated_once(self):
        """L-BFGS-B re-evaluates its start point; the memo must absorb the
        duplicate so the incumbent costs exactly one O(n^3) evaluation."""
        X, y = _data(n=12)

        class CountingGP(GaussianProcessRegressor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.eval_thetas = []

            def _lml(self, P, y):
                self.eval_thetas.append(self.kernel.theta.tobytes())
                return super()._lml(P, y)

        gp = CountingGP(
            kernel=ConstantKernel(1.0) * RBFKernel(0.5), noise=1e-4, n_restarts=1, seed=0
        )
        incumbent = gp.kernel.theta.tobytes()
        gp.fit(X, y)
        assert gp.eval_thetas.count(incumbent) == 1

    def test_theta_restored_when_all_results_non_finite(self, monkeypatch):
        """If every L-BFGS-B run returns a non-finite objective, the kernel
        must be left at the incumbent theta — not at the search's last
        evaluated point."""
        from scipy import optimize

        X, y = _data(n=10)
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * RBFKernel(0.5), noise=1e-4, n_restarts=2, seed=9
        )
        incumbent = gp.kernel.theta.copy()

        def _diverge(fun, x0, **kwargs):
            # Mimic a search that wandered off and failed: it *evaluated*
            # other thetas (mutating the kernel) but reports non-finite.
            fun(np.asarray(x0, dtype=float) + 1.0)
            return optimize.OptimizeResult(
                x=np.asarray(x0, dtype=float) + 1.0, fun=float("nan"), success=False
            )

        monkeypatch.setattr("repro.ml.gp.optimize.minimize", _diverge)
        gp.fit(X, y)
        np.testing.assert_array_equal(gp.kernel.theta, incumbent)

    def test_derived_lml_matches_direct_evaluation(self):
        X, y = _data(n=14)
        gp = GaussianProcessRegressor(
            kernel=ConstantKernel(1.0) * RBFKernel(0.5), noise=1e-4, n_restarts=0, seed=1
        )
        gp.fit(X, y)
        yn = (gp._y_raw - gp._y_mean) / gp._y_std
        # The stored value comes from the final factorization (which may
        # carry ladder jitter); it must agree with a fresh evaluation at
        # the fitted theta to numerical precision.
        direct = gp._lml(gp.kernel.pairwise(gp._X, gp._X), yn)
        np.testing.assert_allclose(gp.log_marginal_likelihood_, direct, rtol=1e-9, atol=1e-9)
