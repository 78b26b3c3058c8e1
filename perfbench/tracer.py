"""Span recorder for the benchmark's traced run.

The traced run wraps public functions of the ``repro`` layers from the
outside -- nothing under ``src/`` knows about tracing -- and records one
span per call into a metric group, as a tuple indexed by the constants
below:

    (id, parent, name, group, start, end, session, thread, rows, phase, attrs)

A call made while a span of the same group is innermost on its thread is
not a boundary and records nothing, so ``sample_configurations`` calling
``sample_configuration`` counts its rows once.  Each thread keeps its own
span stack.  A span that opens on a thread with an empty stack is parented
to the innermost open *adopting* span -- the guard, whose watchdog thread
runs the evaluation -- so the guard's self time is its own overhead.

Forked pool workers inherit the installed wrappers.  In a worker, the
wrapped ``execute_run`` resets the child's copy of the recorder, parents
the child's root spans to the ``ParallelExecutor.run`` span that forked
it, and dumps them to a file the parent merges when ``run`` returns.
Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

ID, PARENT, NAME, GROUP, START, END, SESSION, THREAD, ROWS, PHASE, ATTRS = range(11)

#: ``(args, kwargs, result) -> value``, evaluated after the span's end time.
Extractor = Callable[[tuple, dict, Any], Any]


@dataclass(frozen=True)
class Entry:
    """``owner.attr``, recorded under the metric ``group``."""

    owner: Any
    attr: str
    group: str
    #: Rows the call handled (1 for a single configuration).
    rows: Extractor | None = None
    #: Counters read off the call's arguments and result.
    attrs: Extractor | None = None
    #: Root spans opened on other threads while this span is open are its
    #: children (the guard's watchdog thread).
    adopts_threads: bool = False
    #: Pool workers forked while this span is open hang their spans here.
    forks_workers: bool = False
    #: Runs inside forked workers: reset the copy, run, dump.  No span.
    worker_entry: bool = False


def _qualname(owner: Any, attr: str) -> str:
    return f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"


class Tracer:
    """In-memory span store with one span stack per thread."""

    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir
        self.spans: list[tuple] = []
        self.session: str | None = None
        self.phase = "setup"
        self._pid = os.getpid()
        self._ids = itertools.count(self._pid * 100_000_000)
        self._local = threading.local()
        self._adopters: list[list] = []
        self._installed: list[tuple[Any, str, bool, Any]] = []
        self._fork_parent: int | None = None

    def mark(self, session: str) -> None:
        """Attribute the spans that follow to ``session``."""
        self.session = session

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _root_parent(self) -> int | None:
        if self._adopters:
            return self._adopters[-1][ID]
        return self._fork_parent if os.getpid() != self._pid else None

    def wrap(self, fn: Callable, entry: Entry) -> Callable:
        """``fn``, recording a span per boundary call (see the module doc)."""
        tracer = self
        group = entry.group
        name = _qualname(entry.owner, entry.attr)

        def traced(*args, **kwargs):
            if entry.worker_entry:
                if os.getpid() == tracer._pid:
                    return fn(*args, **kwargs)
                return tracer._in_worker(fn, args, kwargs)
            stack = tracer._stack()
            if stack and stack[-1][GROUP] == group:
                return fn(*args, **kwargs)
            parent = stack[-1][ID] if stack else tracer._root_parent()
            span = [
                next(tracer._ids), parent, name, group, 0.0, 0.0, tracer.session,
                threading.get_ident(), 0, tracer.phase, None,
            ]
            stack.append(span)
            if entry.adopts_threads:
                tracer._adopters.append(span)
            if entry.forks_workers:
                tracer._fork_parent = span[ID]
            returned = False
            result = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if entry.adopts_threads:
                    tracer._adopters.pop()
                if returned:
                    if entry.rows is not None:
                        span[ROWS] = int(entry.rows(args, kwargs, result))
                    if entry.attrs is not None:
                        span[ATTRS] = entry.attrs(args, kwargs, result)
                tracer.spans.append(tuple(span))
                if entry.forks_workers:
                    tracer._merge_workers()

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # forked workers
    # ------------------------------------------------------------------
    def _in_worker(self, fn: Callable, args: tuple, kwargs: dict):
        """Run a worker entry in a forked child; dump the child's spans."""
        self.spans = []
        self._adopters = []
        self._local = threading.local()
        self._ids = itertools.count(os.getpid() * 100_000_000)
        try:
            return fn(*args, **kwargs)
        finally:
            os.makedirs(self.worker_dir, exist_ok=True)
            path = os.path.join(self.worker_dir, f"{os.getpid()}-{next(self._ids)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.spans, fh)

    def _merge_workers(self) -> None:
        if not os.path.isdir(self.worker_dir):
            return
        for fname in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, fname)
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(tuple(span) for span in json.load(fh))
            os.remove(path)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self, entries: list[Entry]):
        """Wrap every entry for the duration of the block, then restore it.

        An attribute a class only inherits is wrapped on the class itself
        and deleted again afterwards, so lookups fall back to the base.
        """
        try:
            for entry in entries:
                own = entry.attr in vars(entry.owner)
                original = getattr(entry.owner, entry.attr)
                self._installed.append((entry.owner, entry.attr, own, original))
                setattr(entry.owner, entry.attr, self.wrap(original, entry))
            yield self
        finally:
            while self._installed:
                owner, attr, own, original = self._installed.pop()
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)


# ----------------------------------------------------------------------
# the wrapped entry points
# ----------------------------------------------------------------------
def _one(args, kwargs, result) -> int:
    return 1


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _len_batch(args, kwargs, result) -> int:
    """``method(self, batch, ...)``: the rows of the batch argument."""
    return len(args[1])


def _len_prediction(args, kwargs, result) -> int:
    return len(result[0] if isinstance(result, tuple) else result)


def _pool_size(args, kwargs, result) -> int:
    """``collect_samples(server, space, n_samples, ...)``."""
    return int(args[2]) if len(args) > 2 else int(kwargs["n_samples"])


def _evaluation(args, kwargs, result) -> dict:
    return {"failed": bool(result.failed)}


def _guard_counters(args, kwargs, result) -> dict:
    return {
        "retries": result["n_retries"],
        "quarantine_regions": result["n_quarantine_regions"],
        "short_circuits": result["n_short_circuits"],
        "breaker_trips": result["breaker_trips"],
    }


def _batch_results(args, kwargs, result) -> dict:
    return {
        "attempts": sum(r.attempts for r in result),
        "worker_busy_s": sum(r.wall_seconds for r in result),
    }


def _checkpoint_size(args, kwargs, result) -> dict:
    path = args[0].path
    return {"path": path, "size": os.path.getsize(path) if os.path.exists(path) else 0}


def _telemetry_rows(args, kwargs, result) -> int:
    """``append_telemetry_record(path, record)`` or ``write_telemetry(path, results)``."""
    return 1 if isinstance(args[1], dict) else len(args[1])


def default_entries() -> list[Entry]:
    """Every wrapped entry point, by layer (see README.md)."""
    from repro.dbms.server import MySQLServer
    from repro.experiments import spaces
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.gp import GaussianProcessRegressor
    from repro.ml.neural import MLP, Adam
    from repro.optimizers import OPTIMIZER_REGISTRY, bo, smac
    from repro.optimizers.base import Optimizer
    from repro.parallel import executor
    from repro.parallel.checkpoint import StudyCheckpoint
    from repro.resilience.guard import GuardedObjective
    from repro.selection.shap import ShapImportance
    from repro.space import ConfigurationSpace
    from repro.space.sampling import LatinHypercubeSampler
    from repro.tuning.objective import DatabaseObjective
    from repro.tuning.session import TuningSession

    cs = ConfigurationSpace
    forest, gp = RandomForestRegressor, GaussianProcessRegressor
    entries = [
        Entry(cs, "encode", "space.encode", _one),
        Entry(cs, "encode_many", "space.encode", _len_result),
        Entry(cs, "decode", "space.decode", _one),
        Entry(cs, "decode_many", "space.decode", _len_result),
        Entry(cs, "snap_many", "space.snap", _len_result),
        Entry(cs, "sample_configuration", "space.sample", _one),
        Entry(cs, "sample_configurations", "space.sample", _len_result),
        Entry(LatinHypercubeSampler, "sample", "space.sample", _len_result),
        Entry(cs, "neighbors", "space.neighbors", _len_result),
        Entry(forest, "fit", "ml.forest_fit", _len_batch),
        Entry(forest, "predict", "ml.forest_predict", _len_prediction),
        Entry(forest, "predict_with_std", "ml.forest_predict", _len_prediction),
        Entry(gp, "fit", "ml.gp_fit", _len_batch),
        Entry(gp, "predict", "ml.gp_predict", _len_prediction),
        Entry(gp, "predict_with_std", "ml.gp_predict", _len_prediction),
        Entry(MLP, "forward", "ml.mlp", _one),
        Entry(MLP, "backward", "ml.mlp", _one),
        Entry(Adam, "step", "ml.mlp", _one),
        Entry(smac, "expected_improvement", "optimizers.ei", _len_result),
        Entry(bo, "expected_improvement", "optimizers.ei", _len_result),
        Entry(MySQLServer, "evaluate", "dbms.evaluate", _one, _evaluation),
        Entry(TuningSession, "run", "tuning.session", _len_result),
        Entry(DatabaseObjective, "__call__", "tuning.objective", _one),
        Entry(GuardedObjective, "__call__", "resilience.guard", _one, adopts_threads=True),
        Entry(GuardedObjective, "summary", "resilience.summary", _one, _guard_counters),
        Entry(
            executor.ParallelExecutor, "run", "parallel.run", _len_result, _batch_results,
            forks_workers=True,
        ),
        Entry(executor, "execute_run", "parallel.worker", worker_entry=True),
        Entry(StudyCheckpoint, "record", "parallel.checkpoint", _one, _checkpoint_size),
        Entry(executor, "append_telemetry_record", "parallel.telemetry", _telemetry_rows),
        Entry(executor, "write_telemetry", "parallel.telemetry", _telemetry_rows),
        Entry(spaces, "collect_samples", "selection.collect", _pool_size),
        Entry(ShapImportance, "rank", "selection.rank", _len_batch),
    ]
    seen: set[tuple[type, str]] = set()
    for cls in OPTIMIZER_REGISTRY.values():
        for klass in cls.__mro__:
            if not issubclass(klass, Optimizer):
                continue
            for attr in ("suggest", "observe"):
                if attr in vars(klass) and (klass, attr) not in seen:
                    seen.add((klass, attr))
                    entries.append(Entry(klass, attr, f"optimizers.{attr}", _one))
    return entries
