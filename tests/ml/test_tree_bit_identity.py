"""Bit-identity proofs for the tree-ensemble fast path.

The CART/forest/GBM implementations and the optimizers that ride on them
must be *byte-for-byte* interchangeable with the scalar references built
inside these tests — same trees, same splits, same predictions.  The
references are ``DecisionTreeRegressor._fit_scalar`` (per-node argsort),
per-tree ``DecisionTreeRegressor.predict`` calls, and
``_NumericParzen.log_pdf`` (per-dimension KDE); no option of the library
selects them.  These tests pin that contract:

- structural identity of fitted trees across seeds, shapes, tie-heavy
  data, and ``max_features`` modes — including a pinned near-tie case
  where the scalar reference's libm-pow rounding decides the chosen
  feature;
- the primitives the fast path rests on: rank-key subset sorts equal
  fresh sorts, ``train_node_ids_`` equals ``apply`` on the training
  rows, and the batched KDE pass equals the per-dimension one;
- a brute-force SSE check of the (vectorized) split search;
- the conditional per-node label centering that rescues large label
  offsets without touching well-scaled trajectories;
- forest / GBM / SMAC / TPE outputs equal to their references, and
  equal across descent engines (native kernel vs numpy).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbms.catalog import mysql_knob_space
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.optimizers import smac as smac_module
from repro.optimizers import tpe as tpe_module
from repro.optimizers.base import History, Observation
from repro.optimizers.smac import SMAC
from repro.optimizers.tpe import TPE, _batched_numeric_log_pdf, _NumericParzen
from repro.perf import treefast
from repro.space import (
    CategoricalKnob,
    ConfigurationSpace,
    ContinuousKnob,
    IntegerKnob,
)

_TREE_ARRAYS = (
    "feature",
    "threshold",
    "left",
    "right",
    "value",
    "n_node_samples",
    "impurity_decrease",
    "train_node_ids_",
)


def _assert_trees_identical(a: DecisionTreeRegressor, b: DecisionTreeRegressor) -> None:
    for name in _TREE_ARRAYS:
        lhs, rhs = getattr(a, name), getattr(b, name)
        assert lhs.tobytes() == rhs.tobytes(), f"tree array {name!r} differs"


def _scalar_tree(X, y, **params) -> DecisionTreeRegressor:
    """The per-node argsort reference fitted on the same data."""
    return DecisionTreeRegressor(**params)._fit_scalar(
        np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    )


def _make_data(kind: str, n: int, d: int, seed: int):
    """Regression data in several tie regimes."""
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        X = rng.random((n, d))
    elif kind == "ties":
        # Few distinct values per column: many equal split candidates.
        X = rng.integers(0, 4, size=(n, d)).astype(float) / 3.0
    elif kind == "constant":
        X = rng.random((n, d))
        X[:, 0] = 0.5  # a wholly uninformative feature
        if d > 1:
            X[:, -1] = np.round(X[:, -1], 1)
    else:  # duplicated rows
        half = rng.random(((n + 1) // 2, d))
        X = np.vstack([half, half])[:n]
    y = np.round(X @ rng.standard_normal(d) + 0.3 * rng.standard_normal(n), 2)
    return X, y


class TestTreeStructuralIdentity:
    @pytest.mark.parametrize("kind", ["smooth", "ties", "constant", "duplicates"])
    @pytest.mark.parametrize("max_features", [None, "sqrt", 0.8, 2])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_fast_equals_scalar(self, kind, max_features, seed):
        X, y = _make_data(kind, 60, 6, seed)
        params = dict(
            max_features=max_features, min_samples_split=3, min_samples_leaf=2, seed=seed
        )
        fast = DecisionTreeRegressor(**params).fit(X, y)
        _assert_trees_identical(fast, _scalar_tree(X, y, **params))
        # The fit-time leaf partition is where ``apply`` routes the
        # training rows (GBM's in-sample updates rely on it).
        assert fast.train_node_ids_.tobytes() == fast.apply(X).tobytes()

    @pytest.mark.parametrize("max_depth", [1, 3, None])
    def test_depth_limits_and_prediction_identity(self, max_depth):
        X, y = _make_data("smooth", 90, 4, 11)
        fast = DecisionTreeRegressor(max_depth=max_depth, seed=1).fit(X, y)
        ref = _scalar_tree(X, y, max_depth=max_depth, seed=1)
        _assert_trees_identical(fast, ref)
        X_test = np.random.default_rng(2).random((50, 4))
        assert fast.predict(X_test).tobytes() == ref.predict(X_test).tobytes()

    def test_precomputed_sort_order_matches_internal(self):
        X, y = _make_data("ties", 40, 5, 3)
        order = treefast.full_sort_orders(X)
        with_order = DecisionTreeRegressor(seed=5).fit(X, y, sort_order=order)
        without = DecisionTreeRegressor(seed=5).fit(X, y)
        _assert_trees_identical(with_order, without)
        # Rank keys re-sort a bootstrap resample (duplicate rows included)
        # into exactly the fresh per-feature stable sort of that resample.
        rows = np.random.default_rng(4).integers(0, len(X), size=len(X))
        assert len(np.unique(rows)) < len(rows)
        subset = treefast.subset_sort_orders(treefast.feature_sort_ranks(X), rows)
        assert subset.tobytes() == treefast.full_sort_orders(X[rows]).tobytes()

    def test_near_tie_feature_choice_matches_scalar_pow(self):
        # Regression: the scalar reference squares each feature's label total
        # as a numpy *scalar*, which routes through libm pow and can
        # round one ULP away from the exact product that an array square
        # computes.  On this bootstrap resample (draw 17 of a 20-draw
        # forest sequence) four candidate features tie on the gain down
        # to that last bit; unless the fast path reproduces the scalar
        # power op per feature it picks a different winner and the whole
        # tree diverges.
        rng = np.random.default_rng(42)
        X = rng.random((120, 30))
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(120)
        frng = np.random.default_rng(7)
        for _ in range(18):  # advance to draw 17 in the reference order
            tree_seed = int(frng.integers(0, 2**31 - 1))
            rows = frng.integers(0, 120, size=120)
        params = dict(max_features=0.8, min_samples_split=3, seed=tree_seed)
        fast = DecisionTreeRegressor(**params).fit(X[rows], y[rows])
        _assert_trees_identical(fast, _scalar_tree(X[rows], y[rows], **params))


def _brute_force_best_sse_reduction(X, y, min_leaf):
    """Exhaustive best SSE reduction over every (feature, threshold)."""

    def sse(v):
        return float(np.sum((v - v.mean()) ** 2)) if len(v) else 0.0

    parent = sse(y)
    best = 0.0
    for f in range(X.shape[1]):
        for thr in np.unique(X[:, f])[:-1]:
            mask = X[:, f] <= thr
            nl = int(mask.sum())
            if nl < min_leaf or len(y) - nl < min_leaf:
                continue
            best = max(best, parent - sse(y[mask]) - sse(y[~mask]))
    return best


class TestSplitSearchAgainstBruteForce:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_root_split_is_sse_optimal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        d = int(rng.integers(1, 5))
        kind = ["smooth", "ties", "constant", "duplicates"][seed % 4]
        X, y = _make_data(kind, n, d, seed)
        min_leaf = int(rng.integers(1, 3))
        fast = DecisionTreeRegressor(max_depth=1, min_samples_leaf=min_leaf).fit(X, y)
        _assert_trees_identical(fast, _scalar_tree(X, y, max_depth=1, min_samples_leaf=min_leaf))
        brute = _brute_force_best_sse_reduction(X, y, min_leaf)
        scale = max(1.0, float(np.sum(y**2)))
        if fast.feature[0] < 0:
            # No split accepted: brute force must agree nothing helps.
            assert brute <= 1e-7 * scale
        else:
            # The chosen split achieves the exhaustive-scan optimum.
            def sse(v):
                return float(np.sum((v - v.mean()) ** 2)) if len(v) else 0.0

            mask = X[:, fast.feature[0]] <= fast.threshold[0]
            achieved = sse(y) - sse(y[mask]) - sse(y[~mask])
            assert achieved == pytest.approx(brute, rel=1e-9, abs=1e-9 * scale)


class TestLargeOffsetCentering:
    """Satellite fix: conditional per-node label centering.

    With labels ~1e8 the uncentered ``sum**2/n`` trick loses the entire
    signal to cancellation; the scan centers the node labels whenever
    their common offset dwarfs the in-node spread and must then still
    find the same split a brute-force SSE scan finds.  Well-scaled
    labels keep the historical uncentered arithmetic bit-for-bit.
    """

    def test_centering_predicate(self):
        from repro.ml.tree import _needs_centering

        rng = np.random.default_rng(0)
        y = rng.random(50) * 100
        assert not _needs_centering(y)          # offset ~ spread
        assert _needs_centering(y + 1e8)        # offset >> spread
        assert not _needs_centering(y - y.mean())

    @pytest.mark.parametrize("scalar", [False, True])
    def test_split_survives_huge_label_offset(self, scalar):
        rng = np.random.default_rng(42)
        n = 120
        X = rng.random((n, 3))
        signal = np.where(X[:, 1] > 0.6, 2.0, 0.0)
        y = 1e8 + signal + 0.01 * rng.standard_normal(n)
        if scalar:
            tree = _scalar_tree(X, y, max_depth=1)
        else:
            tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree.feature[0] == 1
        # Brute-force scan of the (centered) SSE objective on feature 1.
        xs = np.unique(X[:, 1])
        yc = y - y.mean()
        best_thr, best_red = None, -np.inf
        parent = float(np.sum((yc - yc.mean()) ** 2))
        for lo, hi in zip(xs[:-1], xs[1:]):
            thr = 0.5 * (lo + hi)
            mask = X[:, 1] <= thr
            red = (
                parent
                - float(np.sum((yc[mask] - yc[mask].mean()) ** 2))
                - float(np.sum((yc[~mask] - yc[~mask].mean()) ** 2))
            )
            if red > best_red:
                best_thr, best_red = thr, red
        assert tree.threshold[0] == pytest.approx(best_thr)

    def test_huge_offset_tree_bit_identity(self):
        # The centered branch must itself be bit-identical to the scalar
        # reference: a deep tree over offset labels exercises the
        # centered matrix scan against the centered scalar scan node for
        # node.
        rng = np.random.default_rng(3)
        X = rng.random((100, 6))
        y = 1e8 + X @ rng.standard_normal(6) + 0.01 * rng.standard_normal(100)
        params = dict(max_features=0.8, min_samples_split=3, min_samples_leaf=2, seed=21)
        fast = DecisionTreeRegressor(**params).fit(X, y)
        _assert_trees_identical(fast, _scalar_tree(X, y, **params))

    def test_offset_does_not_change_root_split(self):
        # Centering does not make trees bit-equal across offsets (the
        # residual of (y + 1e8) - mean carries last-bit noise), but a
        # clearly-signaled split must not move.
        rng = np.random.default_rng(9)
        X = rng.random((80, 4))
        y = np.where(X[:, 2] > 0.5, 5.0, -5.0) + 0.01 * rng.standard_normal(80)
        base = DecisionTreeRegressor(max_depth=1, seed=0).fit(X, y)
        shifted = DecisionTreeRegressor(max_depth=1, seed=0).fit(X, y + 1e8)
        assert base.feature[0] == shifted.feature[0] == 2
        assert base.threshold[0] == shifted.threshold[0]


def _reference_forest_trees(X, y, forest: RandomForestRegressor) -> list:
    """Per-tree ``_fit_scalar`` fits on bootstrap rows drawn in the
    forest's order: per tree, its seed and then its rows."""
    rng = np.random.default_rng(forest.seed)
    trees = []
    for _ in range(forest.n_estimators):
        tree_seed = int(rng.integers(0, 2**31 - 1))
        rows = rng.integers(0, len(X), size=len(X))
        trees.append(
            _scalar_tree(
                X[rows],
                y[rows],
                max_depth=forest.max_depth,
                min_samples_split=forest.min_samples_split,
                min_samples_leaf=forest.min_samples_leaf,
                max_features=forest.max_features,
                seed=tree_seed,
            )
        )
    return trees


class _ReferenceForest(RandomForestRegressor):
    """A forest of ``_fit_scalar`` trees predicting tree by tree."""

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        self.trees_ = _reference_forest_trees(X, np.asarray(y, dtype=float), self)
        self.n_features_ = X.shape[1]
        return self

    def tree_predictions(self, X):
        return np.array([tree.predict(X) for tree in self.trees_])


def _reference_gbm_trees(X, y, gbm: GradientBoostingRegressor) -> list:
    """Stagewise ``_fit_scalar`` trees whose residual updates re-descend
    each new tree with ``predict``."""
    rng = np.random.default_rng(gbm.seed)
    n = len(X)
    current = np.full(n, float(y.mean()))
    trees = []
    for _ in range(gbm.n_estimators):
        residual = y - current
        params = dict(
            max_depth=gbm.max_depth,
            min_samples_leaf=gbm.min_samples_leaf,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        tree = _scalar_tree(X, residual, **params)
        current += gbm.learning_rate * tree.predict(X)
        trees.append(tree)
    return trees


@pytest.fixture
def forest_data():
    rng = np.random.default_rng(5)
    X = rng.random((80, 7))
    y = X @ rng.standard_normal(7) + 0.2 * rng.standard_normal(80)
    return X, y


class TestEnsembleIdentity:
    def test_forest_bit_identity(self, forest_data):
        X, y = forest_data
        forest = RandomForestRegressor(
            n_estimators=12, max_features=0.8, min_samples_split=3, seed=2
        ).fit(X, y)
        ref = _ReferenceForest(
            n_estimators=12, max_features=0.8, min_samples_split=3, seed=2
        ).fit(X, y)
        for a, b in zip(forest.trees_, ref.trees_, strict=True):
            _assert_trees_identical(a, b)
        X_test = np.random.default_rng(6).random((200, 7))
        m1, s1 = forest.predict_with_std(X_test)
        m2, s2 = ref.predict_with_std(X_test)
        assert m1.tobytes() == m2.tobytes()
        assert s1.tobytes() == s2.tobytes()
        assert forest.predict(X_test).tobytes() == ref.predict(X_test).tobytes()

    def test_gbm_bit_identity(self, forest_data):
        X, y = forest_data
        gbm = GradientBoostingRegressor(n_estimators=25, max_depth=3, seed=4).fit(X, y)
        ref_trees = _reference_gbm_trees(X, y, gbm)
        for a, b in zip(gbm.trees_, ref_trees, strict=True):
            _assert_trees_identical(a, b)
        X_test = np.random.default_rng(8).random((120, 7))
        out = np.full(len(X_test), float(y.mean()))
        for tree in ref_trees:
            out = out + gbm.learning_rate * tree.predict(X_test)
        assert gbm.predict(X_test).tobytes() == out.tobytes()

    def test_numpy_engine_matches_native(self, forest_data, monkeypatch):
        X, y = forest_data
        forest = RandomForestRegressor(n_estimators=10, seed=7).fit(X, y)
        X_test = np.random.default_rng(9).random((300, 7))
        with_kernel = forest.tree_predictions(X_test)
        monkeypatch.setattr(treefast, "_NATIVE_KERNEL", False)
        assert treefast.native_kernel() is None
        forest._packed = None  # repack under the numpy engine
        without_kernel = forest.tree_predictions(X_test)
        assert with_kernel.tobytes() == without_kernel.tobytes()


def _mixed_space() -> ConfigurationSpace:
    return ConfigurationSpace(
        [
            ContinuousKnob("c0", 0.0, 1.0, 0.5),
            ContinuousKnob("c1", 1e-2, 1e2, 1.0, log=True),
            IntegerKnob("i0", 1, 64, 8),
            IntegerKnob("i1", 10, 10_000, 100, log=True),
            CategoricalKnob("k0", ["a", "b", "c"], "a"),
        ]
    )


def _drive(optimizer, space, iterations: int) -> list[tuple]:
    """The suggestions' native values (types included) and encodings."""
    history = History(space)
    sequence = []
    for _ in range(iterations):
        config = optimizer.suggest(history)
        x = space.encode(config)
        sequence.append((repr(config), tuple(x)))
        score = -float(np.sum((x - 0.35) ** 2))
        history.append(Observation(config=config, objective=score, score=score))
    return sequence


def _per_dimension_log_pdf(draws, centers, bandwidths):
    """``_batched_numeric_log_pdf`` as one ``_NumericParzen.log_pdf`` call
    per numeric dimension."""
    return np.array(
        [
            _NumericParzen.log_pdf(SimpleNamespace(centers=c, bandwidth=b), column)
            for column, c, b in zip(draws.T, centers, bandwidths)
        ]
    )


def _smac_space() -> ConfigurationSpace:
    """``_mixed_space`` plus catalog knobs: log integers up to 2**62
    (``max_join_size``) and 2**32, linear integers and categoricals."""
    catalog = mysql_knob_space(
        "B",
        knob_names=[
            "max_join_size",
            "max_seeks_for_key",
            "innodb_buffer_pool_instances",
            "innodb_old_blocks_time",
            "innodb_flush_method",
            "innodb_doublewrite",
        ],
    )
    return ConfigurationSpace(_mixed_space().knobs + catalog.knobs)


class _ScalarSMAC(SMAC):
    """SMAC scoring lists of configurations through the scalar codec
    (``tests/conftest.py``'s ``ScalarCodec``): sampled, encoded and
    neighboured one knob at a time, as before the space built candidates
    as unit rows."""

    def __init__(self, space, codec, seed):
        super().__init__(space, seed=seed)
        self.codec = codec

    def _training_data(self, history):
        return self.codec.encode(history.configs()), history.scores()

    def _random_config(self):
        return self.codec.sample(1, self.rng)[0]

    def _ei_of(self, forest, configs, best):
        mean, std = forest.predict_with_std(self.codec.encode(configs))
        return smac_module.expected_improvement(mean, std, best)

    def _local_search(self, forest, history, best):
        succ = sorted(history.successful(), key=lambda o: o.score, reverse=True)
        results = []
        for anchor in [o.config for o in succ[: self.n_local_anchors]]:
            current = anchor
            current_ei = float(self._ei_of(forest, [current], best)[0])
            for _ in range(self.n_local_steps):
                neighbors = self.codec.neighbors(current, self.rng, n_continuous=4, stdev=0.1)
                if len(neighbors) > 80:
                    idx = self.rng.choice(len(neighbors), size=80, replace=False)
                    neighbors = [neighbors[i] for i in idx]
                eis = self._ei_of(forest, neighbors, best)
                j = int(np.argmax(eis))
                if eis[j] <= current_ei:
                    break
                current, current_ei = neighbors[j], float(eis[j])
            results.append((current, current_ei))
        return results

    def suggest(self, history):
        succ = history.successful()
        if len(succ) < 2 or self.rng.random() < self.random_interleave_prob:
            return self._dedupe(self._random_config(), history)
        X, y = self._training_data(history)
        forest = self._fit_surrogate(X, y)
        best = max(o.score for o in succ)
        scored = self._local_search(forest, history, best)
        randoms = self.codec.sample(self.n_random_candidates, self.rng)
        random_eis = self._ei_of(forest, randoms, best)
        j = int(np.argmax(random_eis))
        scored.append((randoms[j], float(random_eis[j])))
        return self._dedupe(max(scored, key=lambda t: t[1])[0], history)


class TestOptimizerIdentity:
    def test_smac_suggest_sequence_identical(self, monkeypatch, scalar_codec):
        """Against per-tree forest predictions and the scalar codec."""
        space = _smac_space()
        fast = _drive(SMAC(space, seed=31), space, 16)
        monkeypatch.setattr(smac_module, "RandomForestRegressor", _ReferenceForest)
        ref = _drive(_ScalarSMAC(space, scalar_codec(space), seed=31), space, 16)
        assert fast == ref

    def test_smac_scores_representable_rows(self, monkeypatch):
        """Every candidate row SMAC's forest scores is an encoding of a
        configuration (``snap_many`` leaves it unchanged)."""
        space = _smac_space()
        scored = []
        predict = RandomForestRegressor.predict_with_std

        def spy(forest, X):
            scored.append(np.array(X))
            return predict(forest, X)

        monkeypatch.setattr(RandomForestRegressor, "predict_with_std", spy)
        _drive(SMAC(space, seed=31), space, 16)
        assert sum(len(X) for X in scored) > 512
        for X in scored:
            assert space.snap_many(X).tobytes() == X.tobytes()

    def test_tpe_suggest_sequence_identical(self, monkeypatch):
        space = _mixed_space()
        fast = _drive(TPE(space, seed=13), space, 12)
        monkeypatch.setattr(tpe_module, "_batched_numeric_log_pdf", _per_dimension_log_pdf)
        ref = _drive(TPE(space, seed=13), space, 12)
        assert fast == ref

    def test_batched_numeric_log_pdf_rows_match_log_pdf(self):
        rng = np.random.default_rng(17)
        parzens = [
            _NumericParzen(sample, rng)
            for sample in (rng.random(6), np.full(6, 0.5), rng.random(6) ** 4, np.zeros(6))
        ]
        draws = np.stack([p.sample(64) for p in parzens], axis=1)
        rows = _batched_numeric_log_pdf(
            draws,
            np.stack([p.centers for p in parzens]),
            np.array([p.bandwidth for p in parzens]),
        )
        for j, parzen in enumerate(parzens):
            assert rows[j].tobytes() == parzen.log_pdf(draws[:, j]).tobytes()
