"""Tree-ensemble hot-path primitives.

:mod:`repro.perf.treefast` holds the primitives that keep
*implementation* overhead off the tree surrogates' hot paths without
changing a single output bit: once-per-dataset feature presorting with
integer rank keys (``feature_sort_ranks`` / ``subset_sort_orders``)
reused across every bootstrap resample and boosting round,
``PackedTrees``, the batched whole-ensemble descent behind forest/GBM
prediction, and the native kernels (compiled on first use when a C
toolchain exists, numpy or ``math`` otherwise) that run the descent,
CART's split scan and partition, and the codec's libm map.  Import the
module itself; this package re-exports nothing.

Their cost is measured inside whole tuning sessions by the session
benchmark in ``perfbench/`` (see ``docs/PERFORMANCE.md``).
"""
