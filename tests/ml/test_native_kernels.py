"""The native kernels of ``repro.perf.treefast`` against the numpy and
``math`` engines they stand in for, in one process.

With a C compiler on the machine, tree fits run their split scan and
partition in C and the codec maps its log columns through C's libm
``exp``/``log``; without one (or with ``treefast._NATIVE_KERNEL`` set to
``False``, as these tests do) the numpy scan and the ``math`` map run
instead.  Every output must be the same bytes either way:

- every tree array of single trees and forests over sizes from 2 to
  1,200 rows, ties, NaN and infinities in features and labels, labels
  offset by 1e8, ``min_samples_leaf`` 1-4 and every ``max_features``
  mode;
- the codec's log map over more than a million inputs, including the
  IEEE special values, and every log column of the MySQL catalog;
- the codec's one-pass snap, with its warnings, on matrices full of
  special values, on the catalog, on its numeric knobs alone and on
  knobs whose bounds are signed zeros;
- the exception a malformed ``sort_order`` raises under each engine.

Short SMAC, BO and TuRBO sessions on the 197-knob catalog run every
kernel together, and must leave the same history under either engine.
"""

import math
import shutil
import tempfile
import warnings

import numpy as np
import pytest

from repro.dbms.catalog import mysql_knob_space
from repro.dbms.server import MySQLServer
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.optimizers import OPTIMIZER_REGISTRY
from repro.parallel import history_fingerprint
from repro.perf import treefast
from repro.space import CategoricalKnob, ConfigurationSpace, ContinuousKnob, IntegerKnob
from repro.space import space as space_module
from repro.tuning.objective import DatabaseObjective
from repro.tuning.session import TuningSession

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


@pytest.fixture
def native():
    """Skip unless the kernels are loaded (see the compiler test below)."""
    if treefast.native_kernel() is None:
        pytest.skip("native kernels not loaded")


def _numpy_engine(monkeypatch):
    monkeypatch.setattr(treefast, "_NATIVE_KERNEL", False)
    assert treefast.native_kernel() is None


def _tree_bytes(tree):
    return [getattr(tree, name).tobytes() for name in _TREE_ARRAYS]


def _fit_both(monkeypatch, X, y, **params):
    """Tree array bytes from the native engine and from the numpy one."""
    with np.errstate(all="ignore"):
        fast = _tree_bytes(DecisionTreeRegressor(**params).fit(X, y))
        with monkeypatch.context() as patch:
            _numpy_engine(patch)
            ref = _tree_bytes(DecisionTreeRegressor(**params).fit(X, y))
    return fast, ref


@pytest.mark.skipif(
    not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")), reason="no C compiler on PATH"
)
def test_native_kernel_loads_with_a_compiler(monkeypatch, tmp_path):
    """A fresh compile with this source and these flags must load."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(treefast, "_NATIVE_KERNEL", None)
    assert treefast.native_kernel() is not None
    assert len(list(tmp_path.glob("repro-treefast-*/treefast.so"))) == 1


MAX_FEATURES = [None, 2, 0.7, "sqrt"]


@pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 255, 256, 257, 1200])
@pytest.mark.parametrize("ties", [False, True])
def test_tree_engines_agree_across_sizes(native, monkeypatch, n, ties):
    rng = np.random.default_rng(n)
    X = rng.random((n, 5))
    if ties:
        X = np.round(X * 3) / 3
    y = np.round(X @ rng.standard_normal(5) + 0.3 * rng.standard_normal(n), 1 if ties else 6)
    for seed, min_leaf in enumerate([1, 2, 3, 4]):
        params = dict(max_features=MAX_FEATURES[seed], min_samples_leaf=min_leaf, seed=seed)
        fast, ref = _fit_both(monkeypatch, X, y, **params)
        assert fast == ref, params


@pytest.mark.parametrize("where", ["X", "y", "both"])
def test_tree_engines_agree_on_nan_and_infinities(native, monkeypatch, where):
    rng = np.random.default_rng(3)
    for trial in range(12):
        n = int(rng.integers(6, 120))
        X = rng.random((n, 4))
        y = X @ rng.standard_normal(4)
        if trial % 2:
            # A constant feature has no valid split; a NaN gain after
            # its -inf must still win numpy's argmax.
            X[:, 0] = 0.5
        specials = [np.nan, np.inf, -np.inf]
        if where in ("X", "both"):
            cells = rng.integers(0, n * 4, size=max(1, n // 5))
            X.flat[cells] = rng.choice(specials, size=len(cells))
        if where in ("y", "both"):
            cells = rng.integers(0, n, size=int(rng.integers(1, 4)))
            y[cells] = rng.choice(specials, size=len(cells))
        params = dict(
            max_features=MAX_FEATURES[trial % 4], min_samples_leaf=1 + trial % 3, seed=trial
        )
        fast, ref = _fit_both(monkeypatch, X, y, **params)
        assert fast == ref, (trial, params)


def test_tree_engines_agree_on_offset_labels(native, monkeypatch):
    """Labels around 1e8 take the centred scan."""
    rng = np.random.default_rng(5)
    X = rng.random((300, 6))
    y = 1e8 + X @ rng.standard_normal(6) + 0.01 * rng.standard_normal(300)
    for seed, max_features in enumerate(MAX_FEATURES):
        fast, ref = _fit_both(monkeypatch, X, y, max_features=max_features, seed=seed)
        assert fast == ref


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_label_totals_beyond_pow_range_behave_as_numpy(native, monkeypatch, scale):
    """Squaring such a total may raise in Python; the kernel hands the
    node back to the numpy scan, so both engines raise or agree."""
    rng = np.random.default_rng(1)
    X = rng.random((40, 3))
    y = scale * (1.0 + X[:, 0])
    outcomes = []
    for engine in ("native", "numpy"):
        with monkeypatch.context() as patch:
            if engine == "numpy":
                _numpy_engine(patch)
            try:
                outcomes.append(_tree_bytes(DecisionTreeRegressor(seed=0).fit(X, y)))
            except ArithmeticError as exc:
                outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


def test_forest_engines_agree(native, monkeypatch):
    rng = np.random.default_rng(11)
    X = rng.random((90, 12))
    X[:, 3] = np.round(X[:, 3], 1)
    y = np.sin(4 * X[:, 0]) + X[:, 1] + 0.1 * rng.standard_normal(90)
    params = dict(n_estimators=8, max_features=0.8, seed=4)
    fast = RandomForestRegressor(**params).fit(X, y)
    with monkeypatch.context() as patch:
        _numpy_engine(patch)
        ref = RandomForestRegressor(**params).fit(X, y)
    for a, b in zip(fast.trees_, ref.trees_, strict=True):
        assert _tree_bytes(a) == _tree_bytes(b)


@pytest.mark.parametrize("n", [256, 257, 65_537])
def test_precomputed_sort_order_matches_internal_at_rank_widths(n):
    """Rank keys narrow to uint8 up to 256 rows and uint16 up to 65,536;
    a resample's rank sort still equals the fresh float sort, and a fit
    given it equals a fit that sorts for itself."""
    rng = np.random.default_rng(n)
    X = rng.integers(0, 50, size=(n, 3)) / 7.0
    X[:, 2] = rng.random(n)
    y = X[:, 0] - X[:, 2] + 0.1 * rng.standard_normal(n)
    ranks = treefast.feature_sort_ranks(X)
    assert ranks.dtype == {256: np.uint8, 257: np.uint16, 65_537: np.int64}[n]
    rows = rng.integers(0, n, size=n)
    order = treefast.subset_sort_orders(ranks, rows)
    assert order.tobytes() == treefast.full_sort_orders(X[rows]).tobytes()
    depth = 6 if n > 1000 else None
    with_order = DecisionTreeRegressor(max_depth=depth, seed=5).fit(X[rows], y[rows], order)
    without = DecisionTreeRegressor(max_depth=depth, seed=5).fit(X[rows], y[rows])
    assert _tree_bytes(with_order) == _tree_bytes(without)


def _malformed_orders(order, n):
    wrong_shape, beyond, negative = order.T.copy(), order.copy(), order.copy()
    beyond[1, 3] = n
    negative[1, 3] = -1
    return {"wrong shape": wrong_shape, "index >= n": beyond, "negative index": negative}


@pytest.fixture(params=["native", "numpy"])
def engine(request, monkeypatch):
    """Each engine in turn; the native one only where it loads."""
    if request.param == "numpy":
        _numpy_engine(monkeypatch)
    elif treefast.native_kernel() is None:
        pytest.skip("native kernels not loaded")
    return request.param


@pytest.mark.parametrize("case", ["wrong shape", "index >= n", "negative index"])
def test_malformed_sort_order_raises_index_error(engine, case):
    rng = np.random.default_rng(2)
    X, y = rng.random((30, 4)), rng.random(30)
    bad = _malformed_orders(treefast.full_sort_orders(X), 30)[case]
    with pytest.raises(IndexError):
        DecisionTreeRegressor(seed=1).fit(X, y, sort_order=bad)


def test_sort_order_rows_that_are_not_orderings_raise_value_error(engine):
    rng = np.random.default_rng(2)
    X, y = rng.random((30, 4)), rng.random(30)
    bad = treefast.full_sort_orders(X)
    bad[1, 3] = bad[1, 4]
    with pytest.raises(ValueError):
        DecisionTreeRegressor(seed=1).fit(X, y, sort_order=bad)


def _math_map(fn, block):
    return np.fromiter(map(fn, block.ravel().tolist()), dtype=float, count=block.size)


def _special_inputs():
    tiny = np.nextafter(0.0, 1.0)
    return np.array(
        [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 1e-310, 709.78, 709.782712893384,
         -745.1, -745.2, -708.4, 1.0, -1.0, 2.0**62, 2.0**-1074, np.nan, np.inf, -np.inf,
         np.finfo(float).max, 1e-300, 0.5, 1e300]
    )


def test_libm_map_matches_math_over_a_million_inputs(native):
    rng = np.random.default_rng(17)
    exp_in = np.concatenate([rng.uniform(-745.2, 709.78, 1_000_000), _special_inputs()])
    exp_in = exp_in[~((exp_in > 709.782712893384) & np.isfinite(exp_in))]  # math.exp overflows
    log_in = np.concatenate(
        [2.0 ** rng.uniform(-1074, 1024, 1_000_000), rng.random(50_000), _special_inputs()]
    )
    log_in = log_in[~(log_in <= 0.0)]  # where math.log raises
    for fn, block in ((math.exp, exp_in), (math.log, log_in)):
        assert np.isnan(block).any() and np.isinf(block).any() and block.size > 1_000_000
        assert space_module._libm(fn, block).tobytes() == _math_map(fn, block).tobytes()


@pytest.mark.parametrize(
    "fn, value, error",
    [
        (math.exp, 710.0, OverflowError),
        (math.log, 0.0, ValueError),
        (math.log, -0.0, ValueError),
        (math.log, -1.0, ValueError),
        (math.log, -np.inf, ValueError),
    ],
)
def test_libm_map_raises_where_math_raises(native, fn, value, error):
    with pytest.raises(error):
        fn(value)
    with pytest.raises(error):
        space_module._libm(fn, np.array([[1.0, value], [2.0, 3.0]]))


def test_catalog_log_columns_match_between_engines(native, monkeypatch):
    """Every log knob of the catalog, decoded and snapped by both maps."""
    space = mysql_knob_space("B")
    codec = space._codec
    assert sum(len(g.cols) for g in codec.numeric if g.log) == 64
    rng = np.random.default_rng(23)
    U = rng.random((8_000, space.n_dims))
    U[:8] = np.array([0.0, 1.0, -0.0, 0.5, 1 - 1e-16, 1e-300, -1.0, 2.0])[:, None]
    fast = (space.snap_many(U), [repr(c) for c in space.decode_many(U[:500])])
    _numpy_engine(monkeypatch)
    ref = (space.snap_many(U), [repr(c) for c in space.decode_many(U[:500])])
    assert fast[0].tobytes() == ref[0].tobytes()
    assert fast[1] == ref[1]


#: Unit positions that take every branch of a snap: signed zeros (the
#: lower bound), the upper bound and the last double below it,
#: subnormals, values outside [0, 1], the infinities and NaN.
_SNAP_SPECIALS = np.array(
    [0.0, -0.0, 1.0, 0.5, 1 - 1e-16, 1e-300, 5e-324, -5e-324, -1.0, 2.0, 1e308, -1e308,
     np.inf, -np.inf, np.nan]
)


def _signed_zero_space():
    """Linear knobs bounded by signed zeros, where Python's clamp keeps
    the value on a tie and ``np.clip`` the bound, next to one knob of
    every other kind."""
    return ConfigurationSpace(
        [
            ContinuousKnob("from_zero", 0.0, 1.0, 0.5),
            ContinuousKnob("to_zero", -1.0, 0.0, -0.5),
            ContinuousKnob("from_negative_zero", -0.0, 2.0, 1.0),
            ContinuousKnob("to_negative_zero", -3.0, -0.0, -1.0),
            ContinuousKnob("log", 1e-3, 1e3, 1.0, log=True),
            IntegerKnob("int_to_zero", -5, 0, -1),
            IntegerKnob("int_from_zero", 0, 7, 3),
            IntegerKnob("int_log", 1, 2**62, 64, log=True),
            CategoricalKnob("choice", ["a", "b", "c"], "a"),
        ]
    )


def _numeric_catalog():
    space = mysql_knob_space("B")
    return space.subspace([k.name for k in space.knobs if not k.is_categorical])


_SNAP_SPACES = {
    "catalog": lambda: mysql_knob_space("B"),
    "numeric catalog": _numeric_catalog,
    "signed-zero bounds": _signed_zero_space,
}


def _snap_and_warnings(space, U):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = space.snap_many(U)
    return out.tobytes(), [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("nan_choices", [False, True])
@pytest.mark.parametrize("name", list(_SNAP_SPACES))
def test_snap_engines_agree_on_special_values(native, monkeypatch, name, nan_choices):
    """The native snap against the numpy groups, byte for byte, on rows
    with 30% special cells and rows of one special value each.  A NaN
    choice position makes numpy's cast to int64 warn; the kernel hands
    such a matrix back to the groups, so both engines warn alike."""
    space = _SNAP_SPACES[name]()
    rng = np.random.default_rng(31)
    U = rng.random((10_000, space.n_dims))
    special = rng.random(U.shape) < 0.3
    U[special] = rng.choice(_SNAP_SPECIALS, size=int(special.sum()))
    U[: len(_SNAP_SPECIALS)] = _SNAP_SPECIALS[:, None]
    cat = space.categorical_mask
    if not nan_choices:
        U[:, cat] = np.where(np.isnan(U[:, cat]), 0.25, U[:, cat])
    assert np.isnan(U[:, ~cat]).any() and np.isinf(U).any()
    fast = _snap_and_warnings(space, U)
    _numpy_engine(monkeypatch)
    ref = _snap_and_warnings(space, U)
    assert fast == ref
    assert bool(ref[1]) == (nan_choices and cat.any())


@pytest.mark.parametrize("optimizer", ["smac", "vanilla_bo", "mixed_kernel_bo", "turbo"])
def test_sessions_agree_between_engines(native, monkeypatch, optimizer):
    """A short SYSBENCH session on all 197 knobs gives the same history
    with the kernels loaded and without: the snap, the log map and the
    tree kernels together, inside the optimizers that call them.  Both
    sessions run on this host, so the check holds where BO trajectories
    differ between kinds of host."""

    def fingerprint():
        space = mysql_knob_space("B")
        session = TuningSession(
            DatabaseObjective(MySQLServer("SYSBENCH", "B", seed=3), space),
            OPTIMIZER_REGISTRY[optimizer](space, seed=5),
            space,
            max_iterations=16,
            n_initial=10,
            seed=7,
        )
        return history_fingerprint(session.run())

    fast = fingerprint()
    _numpy_engine(monkeypatch)
    assert fingerprint() == fast
