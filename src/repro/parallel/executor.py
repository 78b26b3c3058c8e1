"""The executor behind every experiment harness.

Scheduling rules:

- ``n_workers <= 1`` runs everything in-process — no pickling, no child
  processes, identical results (and no isolation: serial mode cannot
  survive a hard death, by construction).  With ``n_workers > 1`` each
  attempt of a picklable spec runs in a process of its own, at most
  ``n_workers`` at a time, even when only one spec remains: the process
  is the isolation boundary that keeps a dying run from taking the study
  down.
- Specs that cannot be pickled (e.g. a closure-based optimizer factory)
  are detected up front and run in-process after the round's child
  processes; callers never have to care.
- Results are taken *as they arrive*; every finished attempt is streamed
  to the telemetry file immediately and every completed run is appended
  to the checkpoint immediately, so an interrupted study keeps all
  finished work.
- A run's exception is caught inside its process and returned as a
  failed :class:`RunResult`.  A hard death (``os._exit``, OOM kill,
  SIGSEGV) closes the process's result pipe without a result: that run,
  and only that run, is charged a failed attempt whose error starts with
  ``worker died:`` and names the exit code.  Failed attempts are retried
  up to ``max_retries`` times after a short deterministic jittered
  backoff, always from the spec's original seeds.
- With a ``checkpoint_path``, ``run`` skips any spec whose completed
  result is already in the checkpoint (matched by content hash, see
  :func:`repro.parallel.checkpoint.spec_key`), returning the stored
  result unchanged.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from multiprocessing.connection import Connection, wait

import numpy as np

from repro.parallel.checkpoint import StudyCheckpoint, record_to_result, spec_key
from repro.parallel.spec import RunResult, RunSpec
from repro.parallel.telemetry import (
    append_telemetry_record,
    telemetry_record,
    write_telemetry,
)


class _TimedObjective:
    """Delegating objective that accounts evaluation wall-time.

    Everything except the call/timing concern is forwarded to the wrapped
    objective via ``__getattr__`` — harness code that inspects
    ``direction``, ``score_of``, ``server`` (or anything added later)
    sees identical behavior with and without timing.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.eval_seconds = 0.0

    def __call__(self, config):
        t0 = time.perf_counter()
        try:
            return self.inner(config)
        finally:
            self.eval_seconds += time.perf_counter() - t0

    def __getattr__(self, name):
        # Only called for attributes not found on the wrapper itself
        # (``inner`` / ``eval_seconds`` resolve normally).
        return getattr(self.inner, name)


def execute_run(spec: RunSpec) -> RunResult:
    """Execute one spec in the current process; never raises.

    Any exception — a crashing objective, a singular GP fit, a bad
    optimizer suggestion — is converted into a failed :class:`RunResult`
    carrying the traceback tail, so one diverging run cannot take down a
    whole study.
    """
    t0 = time.perf_counter()
    try:
        # Imported here so a worker only pays for what the spec needs.
        from repro.tuning.objective import DatabaseObjective
        from repro.tuning.session import TuningSession

        objective = spec.objective
        if objective is None:
            from repro.dbms.server import MySQLServer

            server = MySQLServer(spec.workload, spec.instance, seed=spec.server_seed)
            objective = DatabaseObjective(server, spec.space)
        if spec.guard is not None:
            from repro.resilience.guard import GuardedObjective

            # Guard inside the timer: watchdog/backoff wall-time is part
            # of the evaluation cost the timer reports.
            objective = GuardedObjective(
                objective, spec.space, policy=spec.guard, seed=spec.guard_seed
            )
        timed = _TimedObjective(objective)
        optimizer = spec.optimizer
        if optimizer is None:
            optimizer = spec.optimizer_factory(spec.space, spec.optimizer_seed)
        session = TuningSession(
            timed,
            optimizer,
            spec.space,
            max_iterations=spec.n_iterations,
            n_initial=spec.n_initial,
            seed=spec.session_seed,
            warm_start=spec.warm_start,
            on_iteration=spec.iteration_hook,
            max_simulated_hours=spec.max_simulated_hours,
        )
        history = session.run()
        return RunResult(
            run_index=spec.run_index,
            history=history,
            wall_seconds=time.perf_counter() - t0,
            suggest_seconds=float(sum(o.suggest_seconds for o in history)),
            eval_seconds=timed.eval_seconds,
            simulated_hours=session.total_simulated_hours(),
            n_iterations=len(history),
            n_failed_evals=sum(1 for o in history if o.failed),
            stop_reason=session.stop_reason,
            failure_kinds=history.failure_summary(),
            tags=dict(spec.tags),
        )
    except Exception as exc:  # noqa: BLE001 — the whole point is containment
        tb = traceback.format_exc(limit=3)
        return RunResult(
            run_index=spec.run_index,
            failed=True,
            error=f"{type(exc).__name__}: {exc}\n{tb}",
            wall_seconds=time.perf_counter() - t0,
            tags=dict(spec.tags),
        )


def _worker_death_result(spec: RunSpec, detail: str) -> RunResult:
    return RunResult(
        run_index=spec.run_index,
        failed=True,
        error=f"worker died: {detail}",
        tags=dict(spec.tags),
    )


def _lost_in_transit(exc: Exception) -> str:
    return f"result lost in transit: {type(exc).__name__}: {exc}"


def _attempt(spec: RunSpec, writer: Connection) -> None:
    """Body of one attempt's process: run ``spec``, send its result back.

    ``execute_run`` is looked up at call time, so a wrapper installed on
    this module before the fork runs in the child as well.
    """
    result = execute_run(spec)
    try:
        writer.send(result)
    except Exception as exc:  # noqa: BLE001 — e.g. a history holding an unpicklable value
        writer.send(_worker_death_result(spec, _lost_in_transit(exc)))


def _picklable(spec: RunSpec) -> bool:
    try:
        pickle.dumps(spec)
        return True
    except Exception:  # reprolint: disable=R009 probe only: unpicklable specs run inline, nothing is lost
        return False


class ParallelExecutor:
    """Runs batches of :class:`RunSpec` with containment, retry, streaming
    telemetry, and checkpoint/resume."""

    def __init__(
        self,
        n_workers: int = 1,
        max_retries: int = 1,
        telemetry_path: str | None = None,
        checkpoint_path: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.n_workers = n_workers
        self.max_retries = max_retries
        self.telemetry_path = telemetry_path
        self.checkpoint_path = checkpoint_path

    # ------------------------------------------------------------------
    def run(self, specs: list[RunSpec]) -> list[RunResult]:
        """Execute all specs; results come back in spec order.

        With ``checkpoint_path`` set, specs whose completed result the
        :class:`StudyCheckpoint` already holds are returned from it
        without re-execution, and every newly completed run is appended
        as it finishes, so a killed study resumes where it stopped.
        """
        results: dict[int, RunResult] = {}
        checkpoint = (
            StudyCheckpoint(self.checkpoint_path) if self.checkpoint_path else None
        )
        # Keys are derived only when a checkpoint is read or written, so
        # specs without a process-stable key still run uncheckpointed.
        keys = {id(spec): spec_key(spec) for spec in specs} if checkpoint is not None else {}

        pending = list(specs)
        if checkpoint is not None:
            cache = checkpoint.load()
            pending = []
            for spec in specs:
                record = cache.get(keys[id(spec)])
                if record is None:
                    pending.append(spec)
                else:
                    results[id(spec)] = record_to_result(record, spec.space)

        attempts: dict[int, int] = {id(spec): 0 for spec in specs}
        round_no = 0
        while pending:
            if round_no > 0:
                time.sleep(self._jitter(round_no))
            retry_ids: set[int] = set()
            for spec, result in self._run_round(pending, attempts):
                sid = id(spec)
                if result.failed and attempts[sid] <= self.max_retries:
                    retry_ids.add(sid)
                else:
                    results[sid] = result
                    if checkpoint is not None:
                        checkpoint.record(keys[sid], result)
            pending = [spec for spec in pending if id(spec) in retry_ids]
            round_no += 1

        ordered = [results[id(spec)] for spec in specs]
        if self.telemetry_path is not None:
            write_telemetry(self.telemetry_path, ordered)
        return ordered

    # ------------------------------------------------------------------
    def _run_round(
        self, specs: list[RunSpec], attempts: dict[int, int]
    ) -> list[tuple[RunSpec, RunResult]]:
        """One attempt of every spec; returns charged, streamed results.

        With ``n_workers > 1`` each picklable spec runs in a process of
        its own, at most ``n_workers`` at a time, and sends its result
        back over a one-way pipe.  A pipe that closes without a result
        means that process died: its run, and only its run, is charged
        a failed attempt.  Live children are terminated if the parent
        raises.  Unpicklable specs run in-process afterwards.
        """
        forked: list[RunSpec] = []
        inline: list[RunSpec] = []
        for spec in specs:
            (forked if self.n_workers > 1 and _picklable(spec) else inline).append(spec)
        finished: list[tuple[RunSpec, RunResult]] = []
        running: dict[Connection, tuple[RunSpec, multiprocessing.Process]] = {}
        try:
            while forked or running:
                while forked and len(running) < self.n_workers:
                    spec = forked.pop(0)
                    reader, writer = multiprocessing.Pipe(duplex=False)
                    proc = multiprocessing.Process(target=_attempt, args=(spec, writer))
                    proc.start()
                    writer.close()
                    running[reader] = (spec, proc)
                for reader in wait(list(running)):
                    spec, proc = running[reader]
                    try:
                        result = reader.recv()
                    except EOFError:
                        proc.join()
                        result = _worker_death_result(spec, f"exit code {proc.exitcode}")
                    except Exception as exc:  # noqa: BLE001 — e.g. a result that fails to unpickle
                        result = _worker_death_result(spec, _lost_in_transit(exc))
                    proc.join()
                    reader.close()
                    del running[reader]
                    finished.append(self._charge(spec, result, attempts))
        finally:
            for reader, (_, proc) in running.items():
                proc.terminate()
                proc.join()
                reader.close()
        for spec in inline:
            finished.append(self._charge(spec, execute_run(spec), attempts))
        return finished

    def _charge(
        self, spec: RunSpec, result: RunResult, attempts: dict[int, int]
    ) -> tuple[RunSpec, RunResult]:
        """Count ``result`` as the spec's next attempt and stream it."""
        attempts[id(spec)] += 1
        result.attempts = attempts[id(spec)]
        self._stream(result)
        return spec, result

    # ------------------------------------------------------------------
    def _stream(self, result: RunResult) -> None:
        """Append the per-attempt telemetry record the moment it exists."""
        if self.telemetry_path is None:
            return
        append_telemetry_record(
            self.telemetry_path,
            telemetry_record(result, event="attempt", attempt=result.attempts),
        )

    def _jitter(self, attempt: int) -> float:
        """Deterministic short backoff before a retry round."""
        rng = np.random.default_rng(0xC0FFEE + attempt)
        return float(rng.uniform(0.05, 0.25))
