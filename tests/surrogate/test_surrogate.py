"""Tests for the surrogate benchmark (Section 8)."""

import numpy as np
import pytest

from repro.optimizers import SMAC
from repro.surrogate import (
    SURROGATE_MODEL_REGISTRY,
    SurrogateBenchmark,
    compare_surrogate_models,
)
from repro.tuning import TuningSession


class TestModelComparison:
    def test_all_six_candidates_present(self):
        assert set(SURROGATE_MODEL_REGISTRY) == {"RF", "GB", "SVR", "NuSVR", "KNN", "RR"}

    def test_tree_ensembles_win_on_nonlinear_surface(self):
        rng = np.random.default_rng(0)
        X = rng.random((300, 5))
        # step functions + interaction: hostile to linear models
        y = (
            5.0 * (X[:, 0] > 0.6)
            + 3.0 * (X[:, 1] > 0.3) * (X[:, 2] > 0.5)
            + rng.normal(0, 0.05, 300)
        )
        results = compare_surrogate_models(X, y, n_splits=4, seed=0)
        by_name = {r.name: r for r in results}
        # Table 9's qualitative claim: RF/GB beat Ridge on this surface.
        assert by_name["RF"].r2 > by_name["RR"].r2
        assert by_name["GB"].r2 > by_name["RR"].r2
        # results sorted best-first
        assert results[0].r2 == max(r.r2 for r in results)

    def test_rmse_positive_and_consistent(self, small_regression_data):
        X, y = small_regression_data
        results = compare_surrogate_models(X, y, n_splits=4, seed=0)
        for r in results:
            assert r.rmse > 0


class TestSurrogateBenchmark:
    @pytest.fixture(scope="class")
    def bench(self, sysbench_space):
        return SurrogateBenchmark.build("SYSBENCH", sysbench_space, n_samples=150, seed=3)

    def test_objective_is_cheap_and_never_fails(self, bench, sysbench_space):
        obj = bench.objective()
        for config in sysbench_space.sample_configurations(10, np.random.default_rng(0)):
            obs = obj(config)
            assert not obs.failed
            assert obs.simulated_seconds == pytest.approx(0.08)

    def test_predictions_correlate_with_truth(self, bench, sysbench_space):
        from scipy.stats import spearmanr

        from repro.dbms.server import MySQLServer

        server = MySQLServer("SYSBENCH", "B", noise=False)
        configs = [
            c
            for c in sysbench_space.sample_configurations(60, np.random.default_rng(5))
            if not server.evaluate(c).failed
        ]
        truth = np.array([server.evaluate(c).objective for c in configs])
        pred = bench.predict(configs)
        assert spearmanr(truth, pred)[0] > 0.5

    def test_speedup_is_large(self, bench):
        assert bench.speedup_over_real() > 100

    def test_tuning_session_on_surrogate(self, bench, sysbench_space):
        session = TuningSession(
            bench.objective(),
            SMAC(sysbench_space, seed=0),
            sysbench_space,
            max_iterations=20,
            n_initial=5,
            seed=0,
        )
        history = session.run()
        assert history.best().objective > bench.default_objective
