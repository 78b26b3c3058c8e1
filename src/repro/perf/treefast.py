"""Tree-ensemble primitives: rank-key presorting and packed prediction.

Machinery shared by :mod:`repro.ml.tree`, :mod:`repro.ml.forest`, and
:mod:`repro.ml.boosting`:

- **Presorting.**  CART split search needs each node's samples in
  per-feature sorted order.  The naive implementation re-argsorts every
  candidate feature at every node (O(d · n log n) *per node*); the fast
  path sorts once per tree (:func:`full_sort_orders`) and propagates the
  order down via stable partitions.  Ensembles go further:
  :func:`feature_sort_ranks` compresses each feature column into dense
  integer ranks *once per dataset*, after which the sorted order of any
  row subset (a bootstrap resample, a subsample) comes from a radix sort
  of small integers (:func:`subset_sort_orders`) — no float comparisons
  ever repeat across the forest's trees or the GBM's boosting rounds.
- **Packed prediction.**  :class:`PackedTrees` concatenates an
  ensemble's flat node arrays (with child pointers rebased) so one
  batched descent routes *every (tree, sample) pair at once*, instead of
  a Python loop over trees.  The descent itself has two interchangeable
  engines: a tiny C kernel compiled on first use (gathers dominate the
  numpy formulation, and a compiled loop removes that per-element
  overhead entirely), and a vectorized numpy loop over the still-pending
  pairs used whenever no C toolchain is available.  Selection is
  automatic; set ``REPRO_TREEFAST_NATIVE=0`` to force the numpy engine.

Everything here is bit-identical to the scalar reference paths by
construction: stable sort permutations are uniquely determined by the
key order (rank keys induce exactly the value order), and both descent
engines apply the same ``x <= threshold`` double comparisons and
leaf-value gathers as per-tree traversal — IEEE-754 comparison has a
single correct answer, so the engine choice cannot change a routing
decision.  ``tests/ml/test_tree_bit_identity.py`` proves it
byte-for-byte.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Callable, Sequence

import numpy as np


def full_sort_orders(X: np.ndarray) -> np.ndarray:
    """Per-feature stable argsort of ``X``'s columns, shape ``(d, n)``.

    Row ``f`` equals ``np.argsort(X[:, f], kind="stable")`` — the unique
    permutation sorting by ``(value, row index)``.
    """
    X = np.asarray(X, dtype=float)
    return np.argsort(X.T, axis=1, kind="stable")


def feature_sort_ranks(X: np.ndarray) -> np.ndarray:
    """Dense per-feature value ranks, shape ``(d, n)``, int64.

    ``ranks[f, i] == ranks[f, j]`` iff ``X[i, f] == X[j, f]``, and ranks
    increase with the value.  Computed from one stable float sort per
    feature; afterwards any row subset can be re-sorted with an integer
    (radix) sort — see :func:`subset_sort_orders`.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    order = np.argsort(X.T, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(X.T, order, axis=1)
    ranks_sorted = np.zeros((d, n), dtype=np.int64)
    if n > 1:
        np.cumsum(sorted_vals[:, 1:] != sorted_vals[:, :-1], axis=1, out=ranks_sorted[:, 1:])
    ranks = np.empty((d, n), dtype=np.int64)
    np.put_along_axis(ranks, order, ranks_sorted, axis=1)
    return ranks


def subset_sort_orders(ranks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Stable per-feature sort orders for the row subset ``X[rows]``.

    Equal to ``full_sort_orders(X[rows])`` — stable sorting by dense
    rank is stable sorting by value (equal value iff equal rank) — but
    runs on small integers, so numpy uses radix sort and the float
    comparisons done once in :func:`feature_sort_ranks` are never
    repeated.  ``rows`` may contain duplicates (bootstrap resamples).
    """
    return np.argsort(ranks[:, rows], axis=1, kind="stable")


# ----------------------------------------------------------------------
# Native descent kernel
# ----------------------------------------------------------------------

_NATIVE_SRC = """
#include <stdint.h>

/* One sample descends all trees in lockstep.  A single (tree, sample)
 * walk is a chain of dependent loads (node -> feature -> x -> child),
 * so its speed is bound by memory latency; advancing n_trees
 * independent chains per round lets those loads overlap, and the
 * sample's feature row stays hot in L1 across every tree.
 *
 * The round body is branch-free — leaves carry a NaN threshold, for
 * which `x > NaN` is false, and their left "child" loops back to the
 * leaf itself, so finished chains spin harmlessly while the deepest
 * one keeps descending.  `feat_safe` replaces the leaf's -1 feature
 * with 0 (any in-bounds column works: the comparison against NaN
 * ignores the value), and `feat_plus1` is feature+1, making the
 * leaf-detection accumulator a plain integer OR.  `children` is
 * interleaved [left0, right0, left1, right1, ...] so routing is one
 * indexed load at 2*node + (x > threshold). */
void repro_forest_apply(const double *X, int64_t n, int64_t d,
                        const int64_t *feat_safe, const int64_t *feat_plus1,
                        const double *threshold, const int64_t *children,
                        const int64_t *roots, int64_t n_trees, int64_t *out)
{
    int64_t nodes[512];
    int64_t chunk = n_trees < 512 ? n_trees : 512;
    for (int64_t t0 = 0; t0 < n_trees; t0 += chunk) {
        int64_t tn = n_trees - t0 < chunk ? n_trees - t0 : chunk;
        for (int64_t s = 0; s < n; s++) {
            const double *row = X + s * d;
            for (int64_t t = 0; t < tn; t++)
                nodes[t] = roots[t0 + t];
            int64_t alive = 1;
            while (alive) {
                alive = 0;
                for (int64_t t = 0; t < tn; t++) {
                    int64_t node = nodes[t];
                    nodes[t] = children[2 * node + (row[feat_safe[node]] > threshold[node])];
                    alive |= feat_plus1[node];
                }
            }
            for (int64_t t = 0; t < tn; t++)
                out[(t0 + t) * n + s] = nodes[t];
        }
    }
}
"""

#: ``None`` until first use, then the kernel callable or ``False`` when
#: unavailable (disabled, no compiler, or compilation failed).
_NATIVE_KERNEL: Callable[..., None] | bool | None = None


def _compile_native() -> Callable[..., None] | None:
    """Compile and load the descent kernel; ``None`` on any failure.

    The shared object is cached in the system temp directory under a
    hash of the source, so each machine compiles at most once.  Every
    failure mode (no compiler, sandboxed tmp, bad toolchain) degrades to
    the numpy engine — never to an exception.
    """
    digest = hashlib.sha256(_NATIVE_SRC.encode()).hexdigest()[:16]
    cache = os.path.join(tempfile.gettempdir(), f"repro-treefast-{digest}")
    lib_path = os.path.join(cache, "treefast.so")
    if not os.path.exists(lib_path):
        os.makedirs(cache, exist_ok=True)
        src_path = os.path.join(cache, "treefast.c")
        with open(src_path, "w", encoding="utf-8") as fh:
            fh.write(_NATIVE_SRC)
        tmp_path = os.path.join(cache, f"treefast-{os.getpid()}.so")
        for compiler in ("cc", "gcc", "clang"):
            try:
                proc = subprocess.run(
                    [compiler, "-O3", "-shared", "-fPIC", "-o", tmp_path, src_path],
                    capture_output=True,
                    timeout=60,
                )
            except (OSError, subprocess.SubprocessError):
                continue
            if proc.returncode == 0:
                os.replace(tmp_path, lib_path)  # atomic: racing processes agree
                break
        else:
            return None
    lib = ctypes.CDLL(lib_path)
    fn = lib.repro_forest_apply
    fn.restype = None
    fn.argtypes = [
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
        ctypes.c_int64,
        ctypes.c_int64,
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),
        ctypes.c_int64,
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),
    ]
    return fn


def native_kernel() -> Callable[..., None] | None:
    """The compiled descent kernel, or ``None`` when unavailable."""
    global _NATIVE_KERNEL
    if _NATIVE_KERNEL is None:
        if os.environ.get("REPRO_TREEFAST_NATIVE", "1") == "0":
            _NATIVE_KERNEL = False
        else:
            try:
                _NATIVE_KERNEL = _compile_native() or False
            except OSError:
                _NATIVE_KERNEL = False
    return _NATIVE_KERNEL or None


class PackedTrees:
    """Flat concatenation of an ensemble's node arrays for batched descent.

    Child pointers are rebased onto the concatenated layout; leaves keep
    the ``-1`` sentinel.  :meth:`apply` descends all ``(tree, sample)``
    pairs in one call — through the native kernel when available,
    otherwise through a numpy loop that each round advances only the
    pairs still on internal nodes (flat ``take`` gathers; finished pairs
    are compacted away, so total work is the sum of path lengths).  No
    Python-level per-tree loop remains either way.
    """

    def __init__(self, trees: Sequence[object]) -> None:
        sizes = [tree.n_nodes for tree in trees]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.n_trees = len(sizes)
        self.roots = np.ascontiguousarray(offsets[:-1], dtype=np.int64)
        self.feature = np.ascontiguousarray(
            np.concatenate([tree.feature for tree in trees]), dtype=np.int64
        )
        self.threshold = np.ascontiguousarray(
            np.concatenate([tree.threshold for tree in trees]), dtype=np.float64
        )
        self.value = np.ascontiguousarray(
            np.concatenate([tree.value for tree in trees]), dtype=np.float64
        )
        self.left = np.ascontiguousarray(
            np.concatenate(
                [np.where(t.left >= 0, t.left + off, -1) for t, off in zip(trees, offsets)]
            ),
            dtype=np.int64,
        )
        self.right = np.ascontiguousarray(
            np.concatenate(
                [np.where(t.right >= 0, t.right + off, -1) for t, off in zip(trees, offsets)]
            ),
            dtype=np.int64,
        )
        # Shared engine scratch (see the kernel comment): leaf-safe
        # feature column, feature+1 for the branch-free leaf check,
        # leaf thresholds pinned to NaN, and interleaved self-looping
        # children so routing is one gather at 2*node + go_right.
        self._internal = self.feature >= 0
        self._feat_safe = np.maximum(self.feature, 0)
        self._feat_plus1 = self.feature + 1
        self._thr_nan = np.ascontiguousarray(
            np.where(self._internal, self.threshold, np.nan), dtype=np.float64
        )
        self._children = np.empty(2 * len(self.feature), dtype=np.int64)
        self._children[0::2] = np.where(self.left >= 0, self.left, np.arange(len(self.feature)))
        self._children[1::2] = np.where(self.right >= 0, self.right, np.arange(len(self.feature)))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node ids (into the packed arrays), shape ``(n_trees, n)``."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        n, d = X.shape
        kernel = native_kernel()
        if kernel is not None:
            out = np.empty((self.n_trees, n), dtype=np.int64)
            kernel(
                X,
                n,
                d,
                self._feat_safe,
                self._feat_plus1,
                self._thr_nan,
                self._children,
                self.roots,
                self.n_trees,
                out,
            )
            return out
        return self._apply_numpy(X)

    def _apply_numpy(self, X: np.ndarray) -> np.ndarray:
        """Batched descent over still-pending pairs (portable engine)."""
        n, d = X.shape
        flat = X.ravel()
        out = np.empty(self.n_trees * n, dtype=np.int64)
        cur = np.repeat(self.roots, n)
        # Row base of each pair's sample in the flattened X; the split
        # value gather is then flat[base + feature].
        base = np.tile(np.arange(n, dtype=np.int64) * d, self.n_trees)
        pos = np.arange(self.n_trees * n)
        live = self._internal.take(cur)
        if not live.all():  # single-leaf trees resolve immediately
            out[pos[~live]] = cur[~live]
            cur, base, pos = cur[live], base[live], pos[live]
        while cur.size:
            xv = flat.take(base + self._feat_safe.take(cur))
            go_right = xv > self.threshold.take(cur)
            nxt = self._children.take(2 * cur + go_right)
            live = self._internal.take(nxt)
            done = ~live
            out[pos[done]] = nxt[done]
            cur, base, pos = nxt[live], base[live], pos[live]
        return out.reshape(self.n_trees, n)

    def values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values, shape ``(n_trees, n)`` — one descent."""
        return self.value[self.apply(X)]
