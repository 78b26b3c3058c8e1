"""Tree-ensemble primitives and the repository's native kernels.

Machinery shared by :mod:`repro.ml.tree`, :mod:`repro.ml.forest`,
:mod:`repro.ml.boosting` and the knob codec of :mod:`repro.space`:

- **Presorting.**  CART split search needs each node's samples in
  per-feature sorted order.  The naive implementation re-argsorts every
  candidate feature at every node (O(d · n log n) *per node*); the fast
  path sorts once per tree (:func:`full_sort_orders`) and propagates the
  order down via stable partitions.  Ensembles go further:
  :func:`feature_sort_ranks` compresses each feature column into dense
  integer ranks *once per dataset*, after which the sorted order of any
  row subset (a bootstrap resample) comes from a radix sort
  of small integers (:func:`subset_sort_orders`) — no float comparisons
  ever repeat across the forest's trees or the GBM's boosting rounds.
- **Packed prediction.**  :class:`PackedTrees` concatenates an
  ensemble's flat node arrays (with child pointers rebased) so one
  batched descent routes *every (tree, sample) pair at once*, instead of
  a Python loop over trees.
- **Native kernels.**  One C source, compiled on first use and loaded
  by :func:`native_kernel`, holds the loops that a Python or numpy
  formulation pays for per element or per call: the packed descent,
  the codec's ``exp``/``log`` over its log columns
  (``repro_libm_map``), the codec's whole snap of a candidate matrix
  (``repro_codec_snap``), and a CART node's split scan and stable
  partition (``repro_tree_scan``, ``repro_tree_partition``).  Each has
  a numpy or ``math`` twin that runs whenever no C toolchain is
  available.

Everything here is bit-identical to the scalar reference paths by
construction: stable sort permutations are uniquely determined by the
key order (rank keys induce exactly the value order), both descent
engines apply the same ``x <= threshold`` double comparisons and
leaf-value gathers as per-tree traversal, and the other kernels call
the libm ``exp``, ``log`` and ``pow`` that ``math.exp``, ``math.log``
and Python's float ``**`` call, with every other operation an IEEE
add, subtract, multiply, divide or compare in the numpy twin's order.
Two compiler flags keep it so (see ``_CFLAGS``).
``tests/ml/test_tree_bit_identity.py`` and
``tests/ml/test_native_kernels.py`` prove it byte for byte.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Sequence

import numpy as np


def full_sort_orders(X: np.ndarray) -> np.ndarray:
    """Per-feature stable argsort of ``X``'s columns, shape ``(d, n)``.

    Row ``f`` equals ``np.argsort(X[:, f], kind="stable")`` — the unique
    permutation sorting by ``(value, row index)``.
    """
    X = np.asarray(X, dtype=float)
    return np.argsort(X.T, axis=1, kind="stable")


def feature_sort_ranks(X: np.ndarray) -> np.ndarray:
    """Dense per-feature value ranks, shape ``(d, n)``.

    ``ranks[f, i] == ranks[f, j]`` iff ``X[i, f] == X[j, f]``, and ranks
    increase with the value.  Computed from one stable float sort per
    feature; afterwards any row subset can be re-sorted with an integer
    (radix) sort — see :func:`subset_sort_orders`.  The ranks are
    ``uint8`` for up to 256 rows and ``uint16`` for up to 65,536 (int64
    beyond), the key widths numpy's stable argsort radix-sorts.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    order = np.argsort(X.T, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(X.T, order, axis=1)
    ranks_sorted = np.zeros((d, n), dtype=np.int64)
    if n > 1:
        np.cumsum(sorted_vals[:, 1:] != sorted_vals[:, :-1], axis=1, out=ranks_sorted[:, 1:])
    dtype = np.uint8 if n <= 1 << 8 else np.uint16 if n <= 1 << 16 else np.int64
    ranks = np.empty((d, n), dtype=dtype)
    np.put_along_axis(ranks, order, ranks_sorted.astype(dtype), axis=1)
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
# Native kernels
# ----------------------------------------------------------------------

_NATIVE_SRC = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

/* ---- Tree descent ----------------------------------------------------
 * One sample descends all trees in lockstep.  A single (tree, sample)
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

/* ---- Codec libm map --------------------------------------------------
 * Python's math.exp (op 0) or math.log (op 1) over n doubles, through
 * the same libm exp and log the math module calls.  Returns -1, or the
 * index of the first input on which math raises instead (exp overflow;
 * log of zero, a negative or -inf); the caller then maps with math. */
int64_t repro_libm_map(int64_t op, const double *in, double *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        double x = in[i];
        if (op == 0) {
            double r = exp(x);
            if (isinf(r) && isfinite(x))
                return i;
            out[i] = r;
        } else if (isnan(x) || x == INFINITY) {
            out[i] = x;  /* math.log returns NaN and +inf unchanged */
        } else if (x > 0.0) {
            out[i] = log(x);
        } else {
            return i;
        }
    }
    return -1;
}

/* ---- Codec snap ------------------------------------------------------
 * The codec's snap, to_unit(from_unit(u)) for numeric columns and
 * units(indices(u)) for categorical ones, over n row-major rows of d
 * unit positions, one column at a time from the codec's table.  Each
 * step is the numpy group's, in its order: clamp, affine map, libm exp,
 * rint + 0.0 and clamp, trunc + 0.0, clamp, libm log, affine map back.
 * One clamp serves every column: Python's min/max rule, which the
 * linear continuous group uses (the value wins a tie, NaN passes).
 * np.clip, which the other groups use (the bound wins a tie, NaN
 * passes), differs from it only where a signed zero ties a bound, and
 * in those groups such a tie cannot reach an output.  Returns -1, or
 * the index of the first cell the numpy groups must snap instead,
 * because numpy's cast of a NaN choice position warns or math.exp /
 * math.log would raise there. */
enum { SNAP_LOG = 1, SNAP_INTEGER = 2, SNAP_CATEGORICAL = 4 };

typedef struct {
    int64_t kind;  /* SNAP_* flags; 0 is linear continuous */
    int64_t n;     /* choices of a categorical column */
    double base, span, lower, upper;
} snap_col;

static double clamp(double x, double lo, double hi)
{
    x = lo > x ? lo : x;
    return hi < x ? hi : x;
}

int64_t repro_codec_snap(const snap_col *cols, int64_t d, const double *in, double *out,
                         int64_t n)
{
    for (int64_t i = 0; i < n * d; i += d) {
        for (int64_t j = 0; j < d; j++) {
            const snap_col *c = cols + j;
            double v = clamp(in[i + j], 0.0, 1.0);
            if (c->kind == SNAP_CATEGORICAL) {
                if (isnan(v))
                    return i + j;
                int64_t k = (int64_t)(v * (double)c->n);
                k = k < c->n - 1 ? k : c->n - 1;
                out[i + j] = ((double)k + 0.5) / (double)c->n;
                continue;
            }
            v = c->base + v * c->span;
            if (c->kind & SNAP_LOG) {
                double r = exp(v);
                if (isinf(r) && isfinite(v))
                    return i + j;
                v = r;
            }
            if (c->kind & SNAP_INTEGER)
                v = trunc(clamp(rint(v) + 0.0, c->lower, c->upper)) + 0.0;
            v = clamp(v, c->lower, c->upper);
            if ((c->kind & SNAP_LOG) && !isnan(v) && v != INFINITY) {
                if (!(v > 0.0))
                    return i + j;
                v = log(v);
            }
            out[i + j] = (v - c->base) / c->span;
        }
    }
    return -1;
}

/* ---- CART node kernels -----------------------------------------------
 * One tree fit.  A node owns the segment [start, start + m) of `idx`
 * (its rows, ascending) and of every row of `orders` (its rows in that
 * feature's sorted order); a split partitions the segment stably in
 * place, so the children own its two halves. */
typedef struct {
    const double *xt;  /* (d, n): feature f of row r at xt[f * n + r] */
    const double *y;   /* (n,) labels */
    int64_t n, d, min_leaf;
    int64_t *idx;      /* (n,) */
    int64_t *orders;   /* (d, n) */
    int64_t *node_of;  /* (n,) leaf of each row */
    double *csum;      /* (n,) scratch */
    int64_t *tmp;      /* (n,) scratch */
    uint8_t *side;     /* (n,) scratch, all zero between calls */
    double gain, threshold, spread;  /* outputs */
} tree_fit;

/* Whether the node's labels are all equal (np.all(y == y[0])); if not,
 * stores max - min, NaN when a label is NaN (np.max and np.min). */
int64_t repro_tree_spread(tree_fit *t, int64_t start, int64_t m)
{
    const int64_t *idx = t->idx + start;
    const double first = t->y[idx[0]];
    double lo = first, hi = first;
    int64_t pure = 1, nan = isnan(first);
    for (int64_t i = 1; i < m; i++) {
        double v = t->y[idx[i]];
        pure &= v == first;
        nan |= isnan(v);
        if (v < lo)
            lo = v;
        if (v > hi)
            hi = v;
    }
    if (!pure)
        t->spread = nan ? NAN : hi - lo;
    return pure;
}

/* Python's float `t ** 2`: CPython's float_pow answers NaN, infinities,
 * zero and one itself and calls libm pow on |t| otherwise.  Outside
 * [2^-511, 2^511) that pow may set errno, which Python turns into an
 * OverflowError or not; *defer asks the caller to let Python decide. */
static double py_square(double t, int64_t *defer)
{
    if (isnan(t))
        return t;
    if (isinf(t))
        return fabs(t);
    if (t == 0.0)
        return 0.0;
    double a = fabs(t);
    if (a == 1.0)
        return 1.0;
    if (!(a >= 0x1p-511 && a < 0x1p511)) {
        *defer = 1;
        return 0.0;
    }
    return pow(a, 2.0);
}

/* The best split of a node over k candidate features, as the numpy scan
 * finds it: per feature the sorted labels (less `offset` when centred)
 * and their sequential prefix sums, the score ls*ls/nl + rs*rs/nr at
 * every position where x increases, numpy's argmax (first maximum; a
 * NaN wins at once), the gain over pow(total, 2.0)/m, and numpy's
 * argmax again across features.  Returns the feature and stores its
 * gain and midpoint threshold, or returns -1 when the numpy scan must
 * run instead (no candidates, or a total out of py_square's range). */
int64_t repro_tree_scan(tree_fit *t, int64_t start, int64_t m, const int64_t *cand,
                        int64_t k, int64_t centred, double offset)
{
    const int64_t n = t->n, min_leaf = t->min_leaf;
    double *csum = t->csum;
    int64_t best_j = -1, best_p = 0, defer = 0;
    double best_gain = 0.0;
    for (int64_t j = 0; j < k; j++) {
        const int64_t *rows = t->orders + cand[j] * n + start;
        const double *x = t->xt + cand[j] * n;
        double s = 0.0;
        for (int64_t i = 0; i < m; i++) {
            double v = t->y[rows[i]];
            if (centred)
                v = v - offset;
            s = i ? s + v : v;
            csum[i] = s;
        }
        const double total = csum[m - 1];
        int64_t bp = min_leaf, bvalid = 0;
        double bv = 0.0, lo = x[rows[min_leaf - 1]];
        for (int64_t p = min_leaf; p <= m - min_leaf; p++) {
            double hi = x[rows[p]], v = -INFINITY;
            int64_t valid = lo < hi;
            if (valid) {
                double ls = csum[p - 1], rs = total - ls;
                double nl = (double)p, nr = (double)m - nl;
                v = ls * ls / nl + rs * rs / nr;
            }
            if (p == min_leaf || !(v <= bv)) {
                bv = v;
                bp = p;
                bvalid = valid;
                if (isnan(v))
                    break;
            }
            lo = hi;
        }
        double base = py_square(total, &defer) / (double)m;
        double gain = bvalid ? bv - base : -INFINITY;
        if (best_j < 0 || (!isnan(best_gain) && !(gain <= best_gain))) {
            best_j = j;
            best_p = bp;
            best_gain = gain;
        }
    }
    if (k == 0 || defer)
        return -1;
    const int64_t *rows = t->orders + cand[best_j] * n + start;
    const double *x = t->xt + cand[best_j] * n;
    t->gain = best_gain;
    t->threshold = 0.5 * (x[rows[best_p - 1]] + x[rows[best_p]]);
    return cand[best_j];
}

/* Stable in-place partition of one segment row by `side` (1 left,
 * 2 right); nonzero when the row is not an ordering of the node's rows
 * split nl : m - nl.  Branch-free (each row is written to both cursors,
 * a <= i and b <= i keep every store in bounds): the side of a row is
 * a coin flip to the branch predictor. */
static int partition_row(int64_t *seg, int64_t m, int64_t nl, const uint8_t *side,
                         int64_t *tmp)
{
    int64_t a = 0, b = 0, bad = 0;
    for (int64_t i = 0; i < m; i++) {
        int64_t r = seg[i], go_left = side[r] == 1;
        bad |= side[r] == 0;
        seg[a] = r;
        tmp[b] = r;
        a += go_left;
        b += 1 - go_left;
    }
    if (bad || a != nl)
        return 1;
    memcpy(seg + nl, tmp, (size_t)b * sizeof(int64_t));
    return 0;
}

/* Splits a node at x[f] <= threshold: partitions its segment of idx and
 * of every orders row, and points node_of at l_node and l_node + 1.
 * Returns the left child's size, -1 when a child would hold fewer than
 * min_leaf rows (nothing changes), or -2 when an orders row is not an
 * ordering of the node's rows. */
int64_t repro_tree_partition(tree_fit *t, int64_t start, int64_t m, int64_t f,
                             double threshold, int64_t l_node)
{
    const int64_t n = t->n;
    const double *x = t->xt + f * n;
    int64_t *idx = t->idx + start;
    int64_t nl = 0;
    for (int64_t i = 0; i < m; i++) {
        int64_t left = x[idx[i]] <= threshold;
        t->side[idx[i]] = (uint8_t)(2 - left);
        nl += left;
    }
    int64_t status = nl < t->min_leaf || m - nl < t->min_leaf ? -1 : nl;
    for (int64_t g = 0; status >= 0 && g < t->d; g++)
        if (partition_row(t->orders + g * n + start, m, nl, t->side, t->tmp))
            status = -2;
    if (status >= 0) {
        partition_row(idx, m, nl, t->side, t->tmp);
        for (int64_t i = 0; i < m; i++)
            t->node_of[idx[i]] = i < nl ? l_node : l_node + 1;
    }
    for (int64_t i = 0; i < m; i++)
        t->side[idx[i]] = 0;
    return status;
}
"""

#: Compiler flags.  ``-fno-builtin`` keeps GCC from folding
#: ``pow(x, 2.0)`` into ``x*x`` (and ``exp``/``log`` into anything but
#: the libm calls Python makes); ``-ffp-contract=off`` keeps
#: ``a*b + c`` from fusing into an FMA that rounds once instead of twice.
_CFLAGS = ("-O3", "-shared", "-fPIC", "-fno-builtin", "-ffp-contract=off")


class TreeFit(ctypes.Structure):
    """The CART kernels' view of one tree fit (``tree_fit`` in the C source)."""

    _fields_ = [
        ("xt", ctypes.c_void_p),
        ("y", ctypes.c_void_p),
        ("n", ctypes.c_int64),
        ("d", ctypes.c_int64),
        ("min_leaf", ctypes.c_int64),
        ("idx", ctypes.c_void_p),
        ("orders", ctypes.c_void_p),
        ("node_of", ctypes.c_void_p),
        ("csum", ctypes.c_void_p),
        ("tmp", ctypes.c_void_p),
        ("side", ctypes.c_void_p),
        ("gain", ctypes.c_double),
        ("threshold", ctypes.c_double),
        ("spread", ctypes.c_double),
    ]


#: ``None`` until first use, then the loaded library or ``False`` when
#: unavailable (disabled, no compiler, or compilation failed).
_NATIVE_KERNEL: ctypes.CDLL | bool | None = None


def _compile_native() -> ctypes.CDLL | None:
    """Compile and load the kernels; ``None`` on any failure.

    The shared object is cached in the system temp directory under a
    hash of the source and the flags, so each machine compiles each
    build at most once.  Every failure mode (no compiler, sandboxed tmp,
    bad toolchain) degrades to the numpy engines — never to an exception.
    """
    key = "\0".join((_NATIVE_SRC, *_CFLAGS))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
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
                    [compiler, *_CFLAGS, "-o", tmp_path, src_path, "-lm"],
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
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    i, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    # The per-node kernels take raw addresses: their callers check
    # dtype, layout and index bounds once per fit, where an ndpointer
    # check would cost microseconds on every one of thousands of calls.
    signatures = {
        "repro_forest_apply": (None, [f64, i, i, i64, i64, f64, i64, i64, i, i64]),
        "repro_libm_map": (i, [i, ptr, ptr, i]),
        "repro_codec_snap": (i, [ptr, i, ptr, ptr, i]),
        "repro_tree_spread": (i, [ptr, i, i]),
        "repro_tree_scan": (i, [ptr, i, i, ptr, i, i, dbl]),
        "repro_tree_partition": (i, [ptr, i, i, i, dbl, i]),
    }
    for name, (restype, argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def native_kernel() -> ctypes.CDLL | None:
    """The compiled kernels, or ``None`` when unavailable."""
    global _NATIVE_KERNEL
    if _NATIVE_KERNEL is None:
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
        lib = native_kernel()
        if lib is not None:
            out = np.empty((self.n_trees, n), dtype=np.int64)
            lib.repro_forest_apply(
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
