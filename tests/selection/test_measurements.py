"""Tests of the five importance measurements on the simulated DBMS."""

import numpy as np
import pytest

from repro.dbms.server import MySQLServer, StressTestResult
from repro.resilience.taxonomy import FailureKind
from repro.selection import MEASUREMENT_REGISTRY
from repro.selection.base import ImportanceResult, collect_samples
from repro.tuning.objective import DatabaseObjective
from repro.selection.fanova import tree_fanova_importances
from repro.ml.tree import DecisionTreeRegressor

#: Knobs known to carry real SYSBENCH gains in the simulator.
REAL_KNOBS = {
    "innodb_flush_log_at_trx_commit",
    "sync_binlog",
    "innodb_log_file_size",
    "innodb_io_capacity",
    "innodb_buffer_pool_size",
    "innodb_thread_concurrency",
}
#: High-variance knobs with no upside over the default (traps).
TRAP_KNOBS = {"max_connections", "query_cache_type", "query_cache_size", "general_log", "big_tables"}
#: Inert filler knobs.
FILLER_KNOBS = {"ft_min_word_len", "default_week_format", "net_retry_count"}
#: Each forest measurement's (default n_trees, max_depth,
#: min_samples_leaf, max_features).
FOREST_SHAPES = {
    "gini": (30, 14, 2, 0.6),
    "fanova": (16, 10, 3, 0.7),
    "shap": (40, 18, 3, 0.6),
    "ablation": (40, 18, 3, 0.6),
}


class _CrashingServer(MySQLServer):
    """A server whose every stress test crashes."""

    def evaluate(self, config):
        return StressTestResult(
            configuration=self.full_space.complete(config),
            objective=float("nan"),
            failed=True,
            failure_reason="mysqld killed",
            failure_kind=FailureKind.CRASH,
        )


class TestImportanceResult:
    def test_ranked_is_descending_and_stable(self):
        result = ImportanceResult({"a": 1.0, "b": 3.0, "c": 1.0})
        assert result.ranked() == ["b", "a", "c"]
        assert result.top(1) == ["b"]
        assert result.score_of("b") == 3.0


class TestCollectSamples:
    def test_pool_shapes_and_default(self, mysql_space):
        from repro.dbms.server import MySQLServer

        server = MySQLServer("SYSBENCH", "B", seed=3)
        configs, scores, default_score = collect_samples(server, mysql_space, 50, seed=3)
        assert len(configs) == 51  # default appended
        assert len(scores) == 51
        assert scores[-1] == default_score
        assert np.isfinite(scores).all()  # failures clamped

    def test_latency_scores_are_negated(self, mysql_space):
        from repro.dbms.server import MySQLServer

        server = MySQLServer("JOB", "B", seed=3)
        __, scores, default_score = collect_samples(server, mysql_space, 30, seed=3)
        assert default_score < 0  # negated latency
        assert (scores < 0).all()

    def test_all_crash_latency_pool_scores_failures_below_default(self, mysql_space):
        # With no success to clamp to, failures take a session's fallback:
        # three times the default latency, so worse than the default.
        __, scores, default_score = collect_samples(
            _CrashingServer("JOB", "B", seed=3), mysql_space, 6, seed=3
        )
        fallback = DatabaseObjective(
            MySQLServer("JOB", "B", seed=3), mysql_space
        ).failure_fallback_score()
        assert fallback == pytest.approx(3.0 * default_score)
        assert (scores[:-1] == fallback).all()
        assert (scores[:-1] < default_score).all()

    def test_all_crash_throughput_pool_keeps_a_third_of_the_default(self, mysql_space):
        __, scores, default_score = collect_samples(
            _CrashingServer("SYSBENCH", "B", seed=3), mysql_space, 6, seed=3
        )
        assert (scores[:-1] == default_score / 3.0).all()
        assert (scores[:-1] < default_score).all()


@pytest.mark.parametrize("name", ["gini", "fanova", "shap", "ablation", "lasso"])
class TestAllMeasurements:
    def test_ranks_all_knobs(self, name, mysql_space, sysbench_pool):
        configs, scores, default_score = sysbench_pool
        m = MEASUREMENT_REGISTRY[name](mysql_space, seed=1)
        result = m.rank(configs, scores, default_score=default_score)
        assert len(result.knob_scores) == 197
        assert all(np.isfinite(v) for v in result.knob_scores.values())

    def test_surrogate_r2_populated(self, name, mysql_space, sysbench_pool):
        configs, scores, default_score = sysbench_pool
        m = MEASUREMENT_REGISTRY[name](mysql_space, seed=1)
        m.rank(configs, scores, default_score=default_score)
        assert m.surrogate_r2_ is not None

    def test_real_knobs_beat_filler(self, name, mysql_space, sysbench_pool):
        configs, scores, default_score = sysbench_pool
        m = MEASUREMENT_REGISTRY[name](mysql_space, seed=1)
        result = m.rank(configs, scores, default_score=default_score)
        top30 = set(result.top(30))
        assert top30 & REAL_KNOBS, f"{name} found no real knob in its top-30"

    def test_input_validation(self, name, mysql_space):
        m = MEASUREMENT_REGISTRY[name](mysql_space, seed=1)
        with pytest.raises(ValueError):
            m.rank([], np.array([]), default_score=0.0)
        default = mysql_space.default_configuration()
        with pytest.raises(ValueError):
            m.rank([default], np.array([1.0, 2.0]), default_score=0.0)

    def test_predict_holdout_available(self, name, mysql_space, sysbench_pool):
        configs, scores, default_score = sysbench_pool
        m = MEASUREMENT_REGISTRY[name](mysql_space, seed=1)
        m.rank(configs, scores, default_score=default_score)
        preds = m.predict_holdout(configs[:5])
        assert preds.shape == (5,)

    def test_predict_holdout_before_rank_raises(self, name, mysql_space):
        m = MEASUREMENT_REGISTRY[name](mysql_space, seed=1)
        with pytest.raises(RuntimeError):
            m.predict_holdout([mysql_space.default_configuration()])


@pytest.mark.parametrize("name", list(FOREST_SHAPES))
def test_forest_shape(name, mysql_space, sysbench_pool):
    """Each measurement fits its own forest shape, seeded with its seed;
    ``n_trees`` sets only the forest's size."""
    configs, scores, default_score = sysbench_pool
    n_trees, max_depth, min_samples_leaf, max_features = FOREST_SHAPES[name]
    for kwargs, expected_trees in (({}, n_trees), ({"n_trees": 3}, 3)):
        m = MEASUREMENT_REGISTRY[name](mysql_space, seed=4, **kwargs)
        m.rank(configs[:60], scores[:60], default_score=default_score)
        forest = m._surrogate
        assert forest.n_estimators == expected_trees
        assert (forest.max_depth, forest.min_samples_leaf, forest.max_features) == (
            max_depth,
            min_samples_leaf,
            max_features,
        )
        assert forest.seed == 4


#: Small budgets for the tunability-based measurements.
SMALL_TUNABILITY = {
    "shap": dict(n_targets=4, n_permutations=2, n_trees=8),
    "ablation": dict(n_targets=3, n_trees=8),
}


@pytest.mark.parametrize("name", list(SMALL_TUNABILITY))
def test_tunability_targets_fall_back_to_the_best(name, mysql_space, sysbench_pool):
    """When nothing beats the default, the targets are the best samples
    overall: the scores equal those of a default that everything beats."""
    configs, scores = sysbench_pool[0][:100], sysbench_pool[1][:100]

    def score_bytes(default_score):
        m = MEASUREMENT_REGISTRY[name](mysql_space, seed=2, **SMALL_TUNABILITY[name])
        result = m.rank(configs, scores, default_score=default_score)
        values = np.array(list(result.knob_scores.values()))
        assert np.isfinite(values).all()
        return values.tobytes()

    assert score_bytes(float(scores.max()) + 1.0) == score_bytes(-np.inf)


class TestShapVsVariance:
    """The paper's central knob-selection claim: SHAP dodges trap knobs."""

    def test_shap_demotes_traps_gini_promotes_them(self, mysql_space, sysbench_pool):
        configs, scores, default_score = sysbench_pool
        shap = MEASUREMENT_REGISTRY["shap"](mysql_space, seed=1)
        gini = MEASUREMENT_REGISTRY["gini"](mysql_space, seed=1)
        shap_rank = shap.rank(configs, scores, default_score=default_score).ranked()
        gini_rank = gini.rank(configs, scores, default_score=default_score).ranked()
        shap_pos = np.mean([shap_rank.index(k) for k in TRAP_KNOBS])
        gini_pos = np.mean([gini_rank.index(k) for k in TRAP_KNOBS])
        assert gini_pos < shap_pos  # gini ranks traps higher (= earlier)

    def test_tunability_requires_default(self, mysql_space, sysbench_pool):
        configs, scores, __ = sysbench_pool
        for name in ("shap", "ablation"):
            m = MEASUREMENT_REGISTRY[name](mysql_space, seed=1)
            with pytest.raises(ValueError):
                m.rank(configs, scores, default_score=None)


class TestFanovaMath:
    def test_single_feature_step_gets_all_variance(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 3))
        y = np.where(X[:, 1] > 0.5, 1.0, 0.0)
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        imp = tree_fanova_importances(tree, 3)
        assert imp[1] > 0.95
        assert imp[0] < 0.05 and imp[2] < 0.05

    def test_additive_two_features_split_variance(self):
        rng = np.random.default_rng(1)
        X = rng.random((400, 2))
        y = 3.0 * (X[:, 0] > 0.5) + 1.0 * (X[:, 1] > 0.5)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        imp = tree_fanova_importances(tree, 2)
        # variance ratio should be ~9:1
        assert imp[0] / max(imp[1], 1e-9) > 4.0

    def test_constant_tree_zero_importance(self):
        X = np.random.default_rng(0).random((20, 2))
        tree = DecisionTreeRegressor().fit(X, np.ones(20))
        np.testing.assert_allclose(tree_fanova_importances(tree, 2), 0.0)
