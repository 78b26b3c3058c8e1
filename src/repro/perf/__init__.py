"""Surrogate hot-path primitives.

Every optimizer study in the paper spends its wall-clock inside a
surrogate model.  This package holds the primitives that keep
*implementation* overhead off those hot paths without changing a single
output bit:

- :mod:`repro.perf.cache` — :class:`KernelCache`, a per-fit store for
  theta-independent pairwise structures (squared distances, Hamming
  mismatch counts) reused across the ~120 log-marginal-likelihood
  evaluations one L-BFGS-B GP hyperparameter fit performs.
- :mod:`repro.perf.treefast` — the tree-ensemble primitives:
  once-per-dataset feature presorting with integer rank keys
  (:func:`feature_sort_ranks` / :func:`subset_sort_orders`) reused
  across every bootstrap resample and boosting round, and
  :class:`PackedTrees`, the batched whole-ensemble descent behind
  forest/GBM prediction, and the native kernels (compiled on first use
  when a C toolchain exists, numpy or ``math`` otherwise) that run the
  descent, CART's split scan and partition, and the codec's libm map.

Their cost is measured inside whole tuning sessions by the session
benchmark in ``perfbench/`` (see ``docs/PERFORMANCE.md``).
"""

from repro.perf.cache import KernelCache
from repro.perf.treefast import (
    PackedTrees,
    feature_sort_ranks,
    full_sort_orders,
    subset_sort_orders,
)

__all__ = [
    "KernelCache",
    "PackedTrees",
    "feature_sort_ranks",
    "full_sort_orders",
    "subset_sort_orders",
]
