"""CART regression trees.

The tree exposes its full structure (feature/threshold/children/value
arrays) because downstream algorithms need more than predictions:

- Gini-score knob ranking counts per-feature splits (Tuneful, paper §3.1),
- fANOVA decomposes the tree's variance by marginalizing subsets of
  features over the leaf partition (Hutter et al., 2014),
- SMAC's surrogate needs per-tree predictions to form an ensemble variance.

``fit`` sorts each feature once per tree and propagates the order down
via stable partitions, scanning all candidate features of a node in one
pass: in C when :mod:`repro.perf.treefast`'s native kernels are loaded,
else as one cumulative-sum matrix in numpy.  The depth-first loop, the
feature draws, the node means and the centring test stay in Python for
both, because the generator stream and numpy's pairwise sums define
their bits.  :meth:`DecisionTreeRegressor._fit_scalar`,
which argsorts every candidate feature at every node, is kept as the
reference that ``tests/ml/test_tree_bit_identity.py`` proves the fit
byte-identical to; no option selects it.  Both center the node labels
before the prefix-sum score whenever the labels' common offset dwarfs
their in-node spread (large offsets would otherwise cancel
catastrophically in ``sum**2/n`` arithmetic; well-scaled labels keep the
historical arithmetic bit-for-bit).
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from repro.perf.treefast import TreeFit, full_sort_orders, native_kernel

_NO_CHILD = -1
#: Minimum SSE reduction for a split to be accepted.
_MIN_GAIN = 1e-12
#: Offset-to-spread ratio beyond which the split scan centers the labels.
_CENTERING_RATIO = 1e4


def _needs_centering(y: np.ndarray) -> bool:
    """True when the node labels' common offset dwarfs their spread.

    The split score compares ``sum**2 / count`` terms whose *differences*
    shrink quadratically in the offset-to-spread ratio: at ratio r the
    score difference keeps roughly ``16 - 2*log10(r)`` significant
    digits, so beyond ~1e4 (e.g. throughput labels around 1e8 with
    noise around 1e2) the split signal drowns in cancellation and the
    scan must run on centered labels.  Below the threshold the score
    difference still carries >= 8 digits, and keeping the uncentered
    arithmetic preserves the reference trajectories bit-for-bit.
    """
    return _dwarfs(float(y.mean()), float(y.max()) - float(y.min()))


def _dwarfs(mean: float, spread: float) -> bool:
    """The centring test of :func:`_needs_centering` on the labels'
    mean and ``max - min``."""
    return abs(mean) > _CENTERING_RATIO * spread


class DecisionTreeRegressor:
    """A binary regression tree minimizing squared error.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or
        ``min_samples_split`` stops growth.
    min_samples_split:
        Minimum samples required to attempt a split.
    min_samples_leaf:
        Minimum samples in each child of a split.
    max_features:
        Number of features examined per split: ``None`` (all), an int,
        a float fraction, or ``"sqrt"``.  Random forests use ``"sqrt"`` or
        a fraction to decorrelate trees.
    seed:
        Seed for the feature subsampling RNG.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        seed: int | None = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed

        # Flat tree structure (filled by fit).
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        self.n_node_samples: np.ndarray | None = None
        self.impurity_decrease: np.ndarray | None = None
        #: Leaf node id of each *training* sample (filled by fit); lets
        #: ensembles reuse the fit-time partition for in-sample
        #: prediction instead of re-descending the tree.
        self.train_node_ids_: np.ndarray | None = None
        self.n_features_: int = 0

    # ------------------------------------------------------------------
    def _n_candidate_features(self, d: int) -> int:
        mf = self.max_features
        if mf is None:
            return d
        if mf == "sqrt":
            return max(1, int(math.sqrt(d)))
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError("float max_features must be in (0, 1]")
            return max(1, int(round(mf * d)))
        if isinstance(mf, int):
            if mf < 1:
                raise ValueError("int max_features must be >= 1")
            return min(mf, d)
        raise ValueError(f"invalid max_features: {mf!r}")

    @staticmethod
    def _best_split_for_feature(
        x: np.ndarray, y: np.ndarray, min_leaf: int
    ) -> tuple[float, float]:
        """Return (SSE reduction, threshold) of the best split on one feature.

        Uses prefix sums over the sorted column: for a split after position
        ``i`` (1-based count), reduction = sum_sq_total - (left SSE + right
        SSE), which only depends on partial sums of y and y^2.  When the
        labels carry a common offset far above their spread (see
        :func:`_needs_centering`) they are centered on the node mean
        first — centering changes no SSE reduction mathematically but
        removes the offset that would otherwise cancel away the score
        differences.
        """
        if _needs_centering(y):
            y = y - y.mean()
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        n = len(ys)
        csum = np.cumsum(ys)
        total = csum[-1]
        # Candidate split positions: between i-1 and i where x changes.
        positions = np.arange(min_leaf, n - min_leaf + 1)
        if len(positions) == 0:
            return 0.0, math.nan
        valid = xs[positions - 1] < xs[positions]
        positions = positions[valid]
        if len(positions) == 0:
            return 0.0, math.nan
        left_sum = csum[positions - 1]
        right_sum = total - left_sum
        n_left = positions.astype(float)
        n_right = n - n_left
        # Maximizing SSE reduction == maximizing sum of squared child means
        # weighted by child size (total SS is constant).
        score = left_sum**2 / n_left + right_sum**2 / n_right
        best = int(np.argmax(score))
        pos = positions[best]
        base = total**2 / n
        reduction = float(score[best] - base)
        threshold = float(0.5 * (xs[pos - 1] + xs[pos]))
        return reduction, threshold

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sort_order: np.ndarray | None = None,
    ) -> "DecisionTreeRegressor":
        """Fit the tree.

        ``sort_order`` is an optional ``(d, n)`` matrix of per-feature
        stable sort orders (see :func:`repro.perf.treefast.full_sort_orders`)
        that ensembles precompute so bootstrap resamples and boosting
        rounds never re-sort the float columns; when omitted it is
        computed here, once.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self.n_features_ = X.shape[1]
        return self._fit_fast(X, y, sort_order)

    def _fit_scalar(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Reference implementation: per-node, per-feature argsort.

        Not reachable from ``fit``; the bit-identity tests build their
        reference trees with it.
        """
        n, d = X.shape
        rng = np.random.default_rng(self.seed)

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        n_node: list[int] = []
        decrease: list[float] = []
        node_of = np.zeros(n, dtype=int)

        k_features = self._n_candidate_features(d)

        def new_node(idx: np.ndarray) -> int:
            node = len(feature)
            feature.append(_NO_CHILD)
            threshold.append(math.nan)
            left.append(_NO_CHILD)
            right.append(_NO_CHILD)
            value.append(float(y[idx].mean()))
            n_node.append(len(idx))
            decrease.append(0.0)
            return node

        # Iterative depth-first construction to avoid recursion limits.
        root = new_node(np.arange(n))
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
        while stack:
            node, idx, depth = stack.pop()
            if len(idx) < self.min_samples_split:
                continue
            if self.max_depth is not None and depth >= self.max_depth:
                continue
            y_node = y[idx]
            if np.all(y_node == y_node[0]):
                continue
            if k_features < d:
                candidates = rng.choice(d, size=k_features, replace=False)
            else:
                candidates = np.arange(d)
            best_gain, best_feat, best_thr = 0.0, -1, math.nan
            for f in candidates:
                gain, thr = self._best_split_for_feature(
                    X[idx, f], y_node, self.min_samples_leaf
                )
                if gain > best_gain and not math.isnan(thr):
                    best_gain, best_feat, best_thr = gain, int(f), thr
            if best_feat < 0 or best_gain <= _MIN_GAIN:
                continue
            mask = X[idx, best_feat] <= best_thr
            left_idx, right_idx = idx[mask], idx[~mask]
            if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
                continue
            feature[node] = best_feat
            threshold[node] = best_thr
            decrease[node] = best_gain
            l_node = new_node(left_idx)
            r_node = new_node(right_idx)
            left[node] = l_node
            right[node] = r_node
            node_of[left_idx] = l_node
            node_of[right_idx] = r_node
            stack.append((l_node, left_idx, depth + 1))
            stack.append((r_node, right_idx, depth + 1))

        self._store(feature, threshold, left, right, value, n_node, decrease, node_of)
        return self

    def _fit_fast(
        self, X: np.ndarray, y: np.ndarray, sort_order: np.ndarray | None
    ) -> "DecisionTreeRegressor":
        """Presorted split search with a vectorized multi-feature scan.

        Mirrors :meth:`_fit_scalar` node for node (same DFS order, same
        RNG stream, same tie-breaking) but never argsorts inside a node:
        the root's per-feature sort orders are partitioned stably into
        the children, which preserves sortedness, and all candidate
        features of a node are scanned in one pass.  The node's samples
        are always in ascending original-row order, so stable partition
        exactly reproduces the scalar path's stable per-node argsort.
        The scan and the partition run in the native kernels when they
        are loaded (:class:`_NativeSplitter`), otherwise in numpy.
        """
        n, d = X.shape
        rng = np.random.default_rng(self.seed)
        min_leaf = self.min_samples_leaf

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        n_node: list[int] = []
        decrease: list[float] = []

        k_features = self._n_candidate_features(d)
        all_features = np.arange(d, dtype=np.int64)
        if sort_order is None:
            orders = np.ascontiguousarray(full_sort_orders(X), dtype=np.int64)
        else:
            orders = _checked_sort_order(sort_order, n, d)
        lib = native_kernel()
        if lib is None:
            splitter = _Splitter(X, y, orders, min_leaf)
        else:
            splitter = _NativeSplitter(lib, X, y, orders, min_leaf)
        rows = splitter.idx

        def new_node(start: int, size: int) -> int:
            node = len(feature)
            feature.append(_NO_CHILD)
            threshold.append(math.nan)
            left.append(_NO_CHILD)
            right.append(_NO_CHILD)
            # ndarray.mean's own arithmetic: numpy's pairwise sum over
            # the count, without its Python-level wrapper.
            value.append(float(np.add.reduce(y[rows[start : start + size]])) / size)
            n_node.append(size)
            decrease.append(0.0)
            return node

        root = new_node(0, n)
        # A node is (id, start, size, depth): it owns the segment
        # [start, start + size) of the splitter's row buffers.
        stack: list[tuple[int, int, int, int]] = [(root, 0, n, 0)]
        while stack:
            node, start, m, depth = stack.pop()
            if m < self.min_samples_split:
                continue
            if self.max_depth is not None and depth >= self.max_depth:
                continue
            spread = splitter.spread(start, m)
            if spread is None:
                continue
            if k_features < d:
                candidates = rng.choice(d, size=k_features, replace=False)
            else:
                candidates = all_features
            if m < 2 * min_leaf:
                continue
            mean = value[node]  # the node labels' ndarray.mean, as _needs_centering takes it
            offset = mean if _dwarfs(mean, spread) else None
            best_gain, best_feat, best_thr = splitter.scan(start, m, candidates, offset)
            if best_gain <= _MIN_GAIN:
                continue
            n_left = splitter.partition(start, m, best_feat, best_thr, len(feature))
            if n_left is None:
                continue
            feature[node] = best_feat
            threshold[node] = best_thr
            decrease[node] = best_gain
            l_node = new_node(start, n_left)
            r_node = new_node(start + n_left, m - n_left)
            left[node] = l_node
            right[node] = r_node
            stack.append((l_node, start, n_left, depth + 1))
            stack.append((r_node, start + n_left, m - n_left, depth + 1))

        self._store(feature, threshold, left, right, value, n_node, decrease, splitter.node_of)
        return self

    def _store(
        self,
        feature: list[int],
        threshold: list[float],
        left: list[int],
        right: list[int],
        value: list[float],
        n_node: list[int],
        decrease: list[float],
        node_of: np.ndarray,
    ) -> None:
        self.feature = np.array(feature, dtype=int)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=int)
        self.right = np.array(right, dtype=int)
        self.value = np.array(value, dtype=float)
        self.n_node_samples = np.array(n_node, dtype=int)
        self.impurity_decrease = np.array(decrease, dtype=float)
        self.train_node_ids_ = node_of

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.feature is None:
            raise RuntimeError("tree is not fitted")

    @property
    def n_nodes(self) -> int:
        self._check_fitted()
        assert self.feature is not None
        return len(self.feature)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Return the leaf index each sample falls into."""
        self._check_fitted()
        assert self.feature is not None and self.left is not None
        assert self.right is not None and self.threshold is not None
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        n = len(X)
        nodes = np.zeros(n, dtype=int)
        active = self.feature[nodes] >= 0
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            feats = self.feature[cur]
            go_left = X[idx, feats] <= self.threshold[cur]
            nodes[idx[go_left]] = self.left[cur[go_left]]
            nodes[idx[~go_left]] = self.right[cur[~go_left]]
            active = self.feature[nodes] >= 0
        return nodes

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        assert self.value is not None
        return self.value[self.apply(X)]

    # ------------------------------------------------------------------
    # structure accessors used by importance measurements
    # ------------------------------------------------------------------
    def split_counts(self) -> np.ndarray:
        """Number of internal-node splits per feature (Gini score basis)."""
        self._check_fitted()
        assert self.feature is not None
        counts = np.zeros(self.n_features_, dtype=float)
        for f in self.feature:
            if f >= 0:
                counts[f] += 1
        return counts

    def leaf_partition(self, bounds: np.ndarray) -> list[tuple[np.ndarray, float]]:
        """Enumerate leaves as (per-feature interval box, leaf value) pairs.

        ``bounds`` is an ``(d, 2)`` array of feature [lower, upper) limits.
        Used by fANOVA to integrate marginal predictions exactly.
        """
        self._check_fitted()
        assert self.feature is not None and self.left is not None
        assert self.right is not None and self.threshold is not None
        assert self.value is not None
        bounds = np.asarray(bounds, dtype=float)
        if bounds.shape != (self.n_features_, 2):
            raise ValueError(f"bounds must be ({self.n_features_}, 2)")
        result: list[tuple[np.ndarray, float]] = []
        stack: list[tuple[int, np.ndarray]] = [(0, bounds.copy())]
        while stack:
            node, box = stack.pop()
            f = self.feature[node]
            if f < 0:
                result.append((box, float(self.value[node])))
                continue
            thr = self.threshold[node]
            left_box = box.copy()
            left_box[f, 1] = min(left_box[f, 1], thr)
            right_box = box.copy()
            right_box[f, 0] = max(right_box[f, 0], thr)
            if left_box[f, 0] < left_box[f, 1]:
                stack.append((self.left[node], left_box))
            if right_box[f, 0] < right_box[f, 1]:
                stack.append((self.right[node], right_box))
        return result


def _checked_sort_order(sort_order: np.ndarray, n: int, d: int) -> np.ndarray:
    """A private int64 copy of a caller's ``(d, n)`` sort orders.

    Raises ``IndexError``, as indexing with it would, when it is not an
    integer matrix of that shape or holds a row index outside
    ``[0, n)``; the fit partitions its copy in place.
    """
    order = np.asarray(sort_order)
    if order.dtype.kind not in "iu":
        raise IndexError("sort_order must hold integer row indices")
    if order.shape != (d, n):
        raise IndexError(f"sort_order has shape {order.shape}, expected {(d, n)}")
    if order.size and (order.min() < 0 or order.max() >= n):
        raise IndexError(f"sort_order holds a row index outside [0, {n})")
    return np.array(order, dtype=np.int64, order="C")


class _Splitter:
    """One fit's split search and partition, in numpy.

    A node owns a segment ``[start, start + m)`` of ``idx`` (its rows,
    ascending) and of every row of ``orders`` (its rows in that
    feature's sorted order).  A split partitions the segment stably in
    place, so the children own its two halves and stay sorted.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, orders: np.ndarray, min_leaf: int) -> None:
        self.X, self.y, self.orders, self.min_leaf = X, y, orders, min_leaf
        self.idx = np.arange(len(y), dtype=np.int64)
        self.node_of = np.zeros(len(y), dtype=int)
        self._flags = np.zeros(len(y), dtype=bool)

    def spread(self, start: int, m: int) -> float | None:
        """``max - min`` of the node's labels, or ``None`` when all are equal."""
        y_node = self.y[self.idx[start : start + m]]
        if np.all(y_node == y_node[0]):
            return None
        return float(y_node.max()) - float(y_node.min())

    def scan(
        self, start: int, m: int, candidates: np.ndarray, offset: float | None
    ) -> tuple[float, int, float]:
        """``(gain, feature, threshold)`` of the node's best split over
        ``candidates``, on labels less ``offset`` unless it is ``None``.
        A gain of ``-inf`` means no candidate has a valid split."""
        X, min_leaf = self.X, self.min_leaf
        positions = np.arange(min_leaf, m - min_leaf + 1)
        # One (k, m) pass over all candidate features: rows are the
        # node's samples in that feature's sorted order.
        rows = self.orders[candidates, start : start + m]
        xs = X[rows, candidates[:, None]]
        ys = self.y[rows]
        if offset is not None:
            ys = ys - offset
        csum = np.cumsum(ys, axis=1)
        total = csum[:, -1]
        valid = xs[:, positions - 1] < xs[:, positions]
        left_sum = csum[:, positions - 1]
        right_sum = total[:, None] - left_sum
        n_left = positions.astype(float)
        n_right = m - n_left
        score = left_sum**2 / n_left + right_sum**2 / n_right
        per_row = np.arange(len(candidates))
        best_pos = np.argmax(np.where(valid, score, -np.inf), axis=1)
        has_split = valid[per_row, best_pos]
        # ``_fit_scalar`` squares ``total`` as a numpy *scalar*,
        # which routes through libm pow and can land one ULP away
        # from the exact product that the array square (x*x)
        # produces.  Near-tie feature choices hinge on those low
        # bits, so reproduce the scalar power op element by element.
        base = np.array([t**2 for t in total.tolist()]) / m
        gains = np.where(has_split, score[per_row, best_pos] - base, -np.inf)
        j = int(np.argmax(gains))
        pos = positions[best_pos[j]]
        return float(gains[j]), int(candidates[j]), float(0.5 * (xs[j, pos - 1] + xs[j, pos]))

    def partition(
        self, start: int, m: int, feature: int, threshold: float, l_node: int
    ) -> int | None:
        """Split the node at ``X[:, feature] <= threshold``: partition its
        segment and point ``node_of`` at ``l_node`` and ``l_node + 1``.
        Returns the left child's size, or ``None`` (changing nothing)
        when a child would hold fewer than ``min_leaf`` rows."""
        idx = self.idx[start : start + m]
        mask = self.X[idx, feature] <= threshold
        left_idx, right_idx = idx[mask], idx[~mask]
        n_left = len(left_idx)
        if n_left < self.min_leaf or m - n_left < self.min_leaf:
            return None
        # Each row keeps exactly n_left members, so the boolean gathers
        # reshape back to (d, child size).
        seg = self.orders[:, start : start + m]
        self._flags[left_idx] = True
        member = self._flags[seg]
        self._flags[left_idx] = False
        d = len(seg)
        seg[:, :n_left], seg[:, n_left:] = (
            seg[member].reshape(d, n_left),
            seg[~member].reshape(d, m - n_left),
        )
        idx[:n_left], idx[n_left:] = left_idx, right_idx
        self.node_of[left_idx] = l_node
        self.node_of[right_idx] = l_node + 1
        return n_left


class _NativeSplitter(_Splitter):
    """:class:`_Splitter` through the C kernels of
    :mod:`repro.perf.treefast`, which compute the same IEEE operations
    in the same order (see ``repro_tree_scan``).  A node whose label
    total the kernel cannot square as Python does is scanned in numpy."""

    def __init__(
        self, lib: ctypes.CDLL, X: np.ndarray, y: np.ndarray, orders: np.ndarray, min_leaf: int
    ) -> None:
        super().__init__(X, y, orders, min_leaf)
        n, d = X.shape
        self.node_of = np.zeros(n, dtype=np.int64)
        # Kept alive here: the kernels see only their addresses.
        self._buffers = {
            "xt": np.asfortranarray(X),  # column f at f * n: a feature's values are contiguous
            "y": np.ascontiguousarray(y),
            "idx": self.idx,
            "orders": orders,
            "node_of": self.node_of,
            "csum": np.empty(n),
            "tmp": np.empty(n, dtype=np.int64),
            "side": np.zeros(n, dtype=np.uint8),
        }
        self._fit = TreeFit(
            n=n, d=d, min_leaf=min_leaf, **{k: a.ctypes.data for k, a in self._buffers.items()}
        )
        self._addr = ctypes.addressof(self._fit)
        self._spread = lib.repro_tree_spread
        self._scan = lib.repro_tree_scan
        self._partition = lib.repro_tree_partition

    def spread(self, start: int, m: int) -> float | None:
        if self._spread(self._addr, start, m):
            return None
        return self._fit.spread

    def scan(
        self, start: int, m: int, candidates: np.ndarray, offset: float | None
    ) -> tuple[float, int, float]:
        feat = self._scan(
            self._addr,
            start,
            m,
            candidates.tobytes(),
            len(candidates),
            offset is not None,
            0.0 if offset is None else offset,
        )
        if feat < 0:
            return super().scan(start, m, candidates, offset)
        return self._fit.gain, feat, self._fit.threshold

    def partition(
        self, start: int, m: int, feature: int, threshold: float, l_node: int
    ) -> int | None:
        n_left = self._partition(self._addr, start, m, feature, threshold, l_node)
        if n_left == -2:
            raise ValueError("sort_order rows are not orderings of the same rows")
        return None if n_left < 0 else n_left
