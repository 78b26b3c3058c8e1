"""Microbenchmark harness for the surrogate hot paths (``python -m repro.perf.bench``).

Times the operations the paper's optimizer studies spend their
wall-clock in, at several history sizes, one implementation per cell:

==================  =====================================================
``gp_fit``          Full hyperparameter-optimized GP fit (L-BFGS-B over
                    theta) on an ``(n, d)`` training set.
``gp_predict``      Posterior mean + std at a 1024-point candidate pool.
``candidate_pool``  Snapping a 1280-row candidate matrix to valid unit
                    encodings over a mixed (continuous/integer/
                    categorical, linear/log) space.
``bo_iteration``    One BO iteration at history size ``n``: from-scratch
                    GP fit plus acquisition maximization.
``forest_fit``      SMAC-shaped random forest (20 trees, 0.8 features)
                    fit on an ``(n, 197)`` training set — the paper's
                    full-knob dimensionality.
``forest_predict``  ``predict_with_std`` (SMAC's mu/sigma) for a
                    candidate batch against a forest trained at the
                    largest history size.
``gbm_fit``         Gradient-boosted trees (Table 9 surrogate config)
                    fit on an ``(n, 197)`` training set.
``smac_iteration``  One non-interleaved SMAC suggest at history ``n``:
                    forest refit, local search, 512 random candidates.
``tpe_iteration``   One TPE suggest at history ``n``: good/bad Parzens,
                    64 candidates, l/g ranking.
==================  =====================================================

Each cell is timed as the minimum over ``--repeats`` trials of the one
code path the library runs.  Results are written as JSON (default
``benchmarks/perf/BENCH_PR15.json``; rows are ``{op, n, seconds}``) and
the trajectory is tracked by diffing two committed payloads with
``--compare OLD NEW``; ``--validate`` checks an existing file against
the schema without re-running anything.  Both also read schema-1
payloads, whose rows timed a baseline and an optimized arm: the
optimized arm ran the default code, so its time is the row's time.

All entropy derives from the explicit ``--seed``; no wall-clock state
enters the payload (durations come from ``time.perf_counter``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Sequence

import numpy as np
import scipy

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import ConstantKernel, RBFKernel
from repro.optimizers.base import History, Observation, Optimizer
from repro.optimizers.bo import VanillaBO
from repro.optimizers.smac import SMAC
from repro.optimizers.tpe import TPE
from repro.space import ConfigurationSpace
from repro.space.parameter import CategoricalKnob, ContinuousKnob, IntegerKnob

SCHEMA_VERSION = 2
#: Row key holding a cell's time, per schema version.
_TIME_KEY = {1: "optimized_seconds", 2: "seconds"}
DEFAULT_SIZES = (25, 50, 100, 200)
SMOKE_SIZES = (10, 20)
DEFAULT_OUT = "benchmarks/perf/BENCH_PR15.json"
DEFAULT_SEED = 17
DEFAULT_REPEATS = 3
POOL_ROWS = 1280
PREDICT_ROWS = 1024
GP_DIMS = 12
#: PostgreSQL's full knob count (paper §4) — the tree-ensemble suites
#: run at the dimensionality the SMAC surrogate actually faces.
FOREST_DIMS = 197
OPS = (
    "gp_fit",
    "gp_predict",
    "candidate_pool",
    "bo_iteration",
    "forest_fit",
    "forest_predict",
    "gbm_fit",
    "smac_iteration",
    "tpe_iteration",
)


def bench_space() -> ConfigurationSpace:
    """A 12-knob mixed space exercising every codec flavor."""
    return ConfigurationSpace(
        [
            ContinuousKnob("c0", 0.0, 1.0, 0.5),
            ContinuousKnob("c1", -5.0, 5.0, 0.0),
            ContinuousKnob("c2", 1e-3, 1e3, 1.0, log=True),
            ContinuousKnob("c3", 1e-2, 1e4, 10.0, log=True),
            IntegerKnob("i0", 0, 10_000, 500),
            IntegerKnob("i1", 1, 64, 8),
            IntegerKnob("i2", 1, 2**30, 4096, log=True),
            IntegerKnob("i3", 4, 10**6, 1000, log=True),
            CategoricalKnob("k0", ["off", "on"], "off"),
            CategoricalKnob("k1", ["a", "b", "c"], "a"),
            CategoricalKnob("k2", list("pqrst"), "p"),
            CategoricalKnob("k3", ["lru", "fifo", "clock", "arc"], "lru"),
        ]
    )


def _surface_score(x: np.ndarray) -> float:
    """Deterministic smooth objective over unit encodings (maximized)."""
    return -float(np.sum((np.asarray(x, dtype=float) - 0.4) ** 2))


def _synthetic_history(space: ConfigurationSpace, n: int, seed: int) -> History:
    rng = np.random.default_rng(seed)
    history = History(space)
    for config in space.sample_configurations(n, rng):
        score = _surface_score(space.encode(config))
        history.append(Observation(config=config, objective=score, score=score))
    return history


def _best_of(repeats: int, trial: Callable[[], float]) -> float:
    """Minimum duration over ``repeats`` independent trials."""
    return min(trial() for _ in range(max(1, repeats)))


# ----------------------------------------------------------------------
# per-operation trials — each returns elapsed seconds for one execution
# ----------------------------------------------------------------------
def _gp_fit_seconds(n: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    X = rng.random((n, GP_DIMS))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(n)
    gp = GaussianProcessRegressor(
        kernel=ConstantKernel(1.0) * RBFKernel(0.5),
        noise=1e-4,
        n_restarts=1,
        seed=seed,
    )
    start = perf_counter()
    gp.fit(X, y)
    return perf_counter() - start


def _gp_predict_seconds(n: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    X = rng.random((n, GP_DIMS))
    y = np.sin(3.0 * X[:, 0]) + 0.1 * rng.standard_normal(n)
    gp = GaussianProcessRegressor(
        kernel=ConstantKernel(1.0) * RBFKernel(0.5),
        noise=1e-4,
        n_restarts=0,
        seed=seed,
    )
    gp.fit(X, y)
    X_test = rng.random((PREDICT_ROWS, GP_DIMS))
    start = perf_counter()
    gp.predict(X_test, return_std=True)
    return perf_counter() - start


def _candidate_pool_seconds(
    space: ConfigurationSpace, rows: int, seed: int
) -> float:
    rng = np.random.default_rng(seed)
    U = rng.random((rows, space.n_dims))
    start = perf_counter()
    space.snap_many(U)
    return perf_counter() - start


def _timed_suggest(optimizer: Optimizer, space: ConfigurationSpace, history: History) -> float:
    """Time one suggest after an untimed warm-up one.

    The warm-up grows the history from ``n`` to ``n + 1`` observations,
    the size every tracked payload has timed.
    """
    config = optimizer.suggest(history)
    score = _surface_score(space.encode(config))
    history.append(Observation(config=config, objective=score, score=score))
    start = perf_counter()
    optimizer.suggest(history)
    return perf_counter() - start


def _bo_iteration_seconds(
    space: ConfigurationSpace, n: int, seed: int
) -> float:
    history = _synthetic_history(space, n, seed)
    return _timed_suggest(VanillaBO(space, seed=seed), space, history)


def _forest_data(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = rng.random((n, FOREST_DIMS))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(n)
    return X, y


def _bench_forest(seed: int) -> RandomForestRegressor:
    """SMAC's surrogate shape (see ``SMAC._fit_surrogate``)."""
    return RandomForestRegressor(
        n_estimators=20,
        max_features=0.8,
        min_samples_leaf=1,
        min_samples_split=3,
        bootstrap=True,
        seed=seed,
    )


def _forest_fit_seconds(n: int, seed: int) -> float:
    X, y = _forest_data(n, seed)
    forest = _bench_forest(seed)
    start = perf_counter()
    forest.fit(X, y)
    return perf_counter() - start


def _forest_predict_seconds(n: int, rows: int, seed: int) -> float:
    X, y = _forest_data(n, seed)
    forest = _bench_forest(seed).fit(X, y)
    X_test = np.random.default_rng(seed + 1).random((rows, FOREST_DIMS))
    forest.predict_with_std(X_test)  # untimed warm-up (packs trees, loads kernel)
    start = perf_counter()
    forest.predict_with_std(X_test)
    return perf_counter() - start


def _gbm_fit_seconds(n: int, seed: int) -> float:
    X, y = _forest_data(n, seed)
    # The tuning benchmark's GB surrogate config (Table 9).
    gbm = GradientBoostingRegressor(
        n_estimators=150,
        learning_rate=0.08,
        max_depth=4,
        seed=seed,
    )
    start = perf_counter()
    gbm.fit(X, y)
    return perf_counter() - start


def _smac_iteration_seconds(
    space: ConfigurationSpace, n: int, seed: int
) -> float:
    history = _synthetic_history(space, n, seed)
    # random_interleave_prob=0 so the timed call always takes the
    # model-based path (an interleaved iteration is a no-op to time).
    optimizer = SMAC(space, seed=seed, random_interleave_prob=0.0)
    return _timed_suggest(optimizer, space, history)


def _tpe_iteration_seconds(
    space: ConfigurationSpace, n: int, seed: int
) -> float:
    history = _synthetic_history(space, n, seed)
    return _timed_suggest(TPE(space, seed=seed), space, history)


# ----------------------------------------------------------------------
def run_bench(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seed: int = DEFAULT_SEED,
    repeats: int = DEFAULT_REPEATS,
    pool_rows: int = POOL_ROWS,
    smoke: bool = False,
) -> dict[str, Any]:
    """Run every (operation, size) cell; return the payload."""
    space = bench_space()
    sizes = tuple(int(n) for n in sizes)
    results: list[dict[str, Any]] = []

    def cell(op: str, n: int, trial: Callable[[], float]) -> None:
        results.append({"op": op, "n": n, "seconds": _best_of(repeats, trial)})

    for n in sizes:
        cell("gp_fit", n, lambda n=n: _gp_fit_seconds(n, seed))
        cell("gp_predict", n, lambda n=n: _gp_predict_seconds(n, seed))
        cell("bo_iteration", n, lambda n=n: _bo_iteration_seconds(space, n, seed))
        cell("forest_fit", n, lambda n=n: _forest_fit_seconds(n, seed))
        cell("gbm_fit", n, lambda n=n: _gbm_fit_seconds(n, seed))
        cell("smac_iteration", n, lambda n=n: _smac_iteration_seconds(space, n, seed))
        cell("tpe_iteration", n, lambda n=n: _tpe_iteration_seconds(space, n, seed))
    cell(
        "candidate_pool",
        pool_rows,
        lambda: _candidate_pool_seconds(space, pool_rows, seed),
    )
    cell(
        "forest_predict",
        pool_rows,
        lambda: _forest_predict_seconds(max(sizes), pool_rows, seed),
    )

    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "repro.perf.bench",
        "seed": seed,
        "smoke": smoke,
        "repeats": repeats,
        "sizes": list(sizes),
        "pool_rows": pool_rows,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "results": results,
    }


# ----------------------------------------------------------------------
def validate_payload(payload: Any) -> list[str]:
    """Return schema violations (empty list == valid).

    Checks structure and value domains only — never timing magnitudes, so
    CI stays insensitive to runner speed.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]

    def require(key: str, kind: type | tuple[type, ...]) -> Any:
        if key not in payload:
            errors.append(f"missing key: {key}")
            return None
        if not isinstance(payload[key], kind):
            errors.append(f"key {key!r} has type {type(payload[key]).__name__}")
            return None
        return payload[key]

    version = payload.get("schema_version")
    if isinstance(version, int) and version in _TIME_KEY:
        time_key = _TIME_KEY[version]
    else:
        errors.append(f"schema_version must be one of {sorted(_TIME_KEY)}")
        time_key = _TIME_KEY[SCHEMA_VERSION]
    require("seed", int)
    require("smoke", bool)
    require("repeats", int)
    sizes = require("sizes", list)
    require("pool_rows", int)
    env = require("env", dict)
    if env is not None:
        for key in ("python", "numpy", "scipy"):
            if not isinstance(env.get(key), str):
                errors.append(f"env.{key} must be a string")
    if sizes is not None and not all(isinstance(n, int) and n > 0 for n in sizes):
        errors.append("sizes must be positive integers")
    results = require("results", list)
    if results is not None:
        if not results:
            errors.append("results must be non-empty")
        for i, row in enumerate(results):
            if not isinstance(row, dict):
                errors.append(f"results[{i}] is not an object")
                continue
            if row.get("op") not in OPS:
                errors.append(f"results[{i}].op {row.get('op')!r} not in {OPS}")
            if not (isinstance(row.get("n"), int) and row["n"] > 0):
                errors.append(f"results[{i}].n must be a positive integer")
            value = row.get(time_key)
            if not (isinstance(value, (int, float)) and value > 0):
                errors.append(f"results[{i}].{time_key} must be a positive number")
    return errors


def compare_payloads(
    old: dict[str, Any], new: dict[str, Any]
) -> tuple[list[str], list[dict[str, Any]]]:
    """Diff two tracked bench payloads cell by cell.

    Returns ``(errors, rows)``.  Errors cover schema violations in
    either payload, benchmark-suite mismatches, and an empty cell
    intersection; rows (one per common ``(op, n)`` cell, in ``OPS``
    order) carry both timings and their ratio.  Ops present in
    only one payload are fine — trajectories grow suites over time — as
    long as at least one cell overlaps.
    """
    errors: list[str] = []
    for label, payload in (("old", old), ("new", new)):
        errors.extend(f"{label}: {e}" for e in validate_payload(payload))
    if errors:
        return errors, []
    if old.get("benchmark") != new.get("benchmark"):
        return [
            f"benchmark suite mismatch: {old.get('benchmark')!r} vs {new.get('benchmark')!r}"
        ], []
    old_cells = _cell_seconds(old)
    new_cells = _cell_seconds(new)
    common = sorted(
        set(old_cells) & set(new_cells), key=lambda key: (OPS.index(key[0]), key[1])
    )
    if not common:
        return ["no common (op, n) cells between the payloads"], []
    rows = [
        {
            "op": key[0],
            "n": key[1],
            "old_seconds": old_cells[key],
            "new_seconds": new_cells[key],
            "ratio": old_cells[key] / new_cells[key],
        }
        for key in common
    ]
    return [], rows


def _cell_seconds(payload: dict[str, Any]) -> dict[tuple[str, int], float]:
    """``(op, n) -> seconds`` of a schema-valid payload of any version."""
    time_key = _TIME_KEY[payload["schema_version"]]
    return {(r["op"], r["n"]): r[time_key] for r in payload["results"]}


def _format_compare(rows: list[dict[str, Any]]) -> str:
    lines = [f"{'op':<16}{'n':>7}{'old (s)':>15}{'new (s)':>15}{'old/new':>10}"]
    for row in rows:
        lines.append(
            f"{row['op']:<16}{row['n']:>7}"
            f"{row['old_seconds']:>15.6f}{row['new_seconds']:>15.6f}"
            f"{row['ratio']:>9.2f}x"
        )
    return "\n".join(lines)


def _format_report(payload: dict[str, Any]) -> str:
    lines = [
        f"repro.perf.bench (seed={payload['seed']}, repeats={payload['repeats']}, "
        f"smoke={payload['smoke']})",
        f"{'op':<16}{'n':>7}{'seconds':>15}",
    ]
    for row in payload["results"]:
        lines.append(f"{row['op']:<16}{row['n']:>7}{row['seconds']:>15.6f}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="GP/BO hot-path microbenchmarks (see docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--sizes",
        default=None,
        help=f"comma-separated history sizes (default {','.join(map(str, DEFAULT_SIZES))})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="explicit RNG seed for all synthetic data (no wall-clock entropy)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="trials per cell (min is reported)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"tiny sizes {SMOKE_SIZES} and one repeat, for CI schema checks",
    )
    parser.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    parser.add_argument(
        "--validate",
        metavar="PATH",
        default=None,
        help="validate an existing payload against the schema and exit",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help="diff two tracked payloads cell by cell and exit",
    )
    args = parser.parse_args(argv)

    if args.compare is not None:
        payloads = []
        for path in args.compare:
            try:
                payloads.append(json.loads(Path(path).read_text()))
            except (OSError, json.JSONDecodeError) as exc:
                print(f"cannot read payload {path}: {exc}", file=sys.stderr)
                return 2
        errors, rows = compare_payloads(payloads[0], payloads[1])
        if errors:
            for error in errors:
                print(f"compare error: {error}", file=sys.stderr)
            return 1
        print(f"comparing {args.compare[0]} (old) vs {args.compare[1]} (new)")
        print(_format_compare(rows))
        return 0

    if args.validate is not None:
        try:
            payload = json.loads(Path(args.validate).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read payload: {exc}", file=sys.stderr)
            return 2
        errors = validate_payload(payload)
        if errors:
            for error in errors:
                print(f"schema violation: {error}", file=sys.stderr)
            return 1
        print(f"{args.validate}: schema OK ({len(payload['results'])} result rows)")
        return 0

    if args.smoke:
        sizes = SMOKE_SIZES if args.sizes is None else tuple(
            int(s) for s in args.sizes.split(",")
        )
        repeats = 1 if args.repeats is None else args.repeats
        pool_rows = 256
    else:
        sizes = DEFAULT_SIZES if args.sizes is None else tuple(
            int(s) for s in args.sizes.split(",")
        )
        repeats = DEFAULT_REPEATS if args.repeats is None else args.repeats
        pool_rows = POOL_ROWS

    payload = run_bench(
        sizes=sizes, seed=args.seed, repeats=repeats, pool_rows=pool_rows, smoke=args.smoke
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(_format_report(payload))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
