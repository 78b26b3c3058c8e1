"""Tests for the parallel experiment engine.

Covers the three tentpole guarantees: deterministic seed derivation
(serial == parallel bit-for-bit), crash containment (one dying run never
aborts the study), and per-run JSONL telemetry.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.dbms.catalog import mysql_knob_space
from repro.experiments.runner import run_sessions
from repro.optimizers.base import Observation
from repro.parallel import (
    ParallelExecutor,
    RegistryOptimizerFactory,
    RunSpec,
    attempt_records,
    derive_run_seeds,
    execute_run,
    final_records,
    read_telemetry,
)
from repro.space import Configuration


@pytest.fixture(scope="module")
def small_space():
    return mysql_knob_space(
        "B",
        knob_names=["innodb_flush_log_at_trx_commit", "innodb_log_file_size"],
        seed=0,
    )


class ExplodingObjective:
    """Picklable objective that always raises (simulates a worker crash)."""

    def __call__(self, config):
        raise RuntimeError("boom")

    def failure_fallback_score(self) -> float:
        return 0.0

    def default_score(self) -> float:
        return 0.0


class FlakyObjective:
    """Fails until a sentinel file exists, then succeeds (cross-process)."""

    def __init__(self, sentinel: str) -> None:
        self.sentinel = sentinel

    def __call__(self, config):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as fh:
                fh.write("attempted")
            raise RuntimeError("first-attempt crash")
        return Observation(
            config=Configuration(dict(config)), objective=1.0, score=1.0
        )

    def failure_fallback_score(self) -> float:
        return -1.0

    def default_score(self) -> float:
        return 0.0


class UnpicklableResultObjective:
    """Picklable objective whose observations cannot be pickled back."""

    def __call__(self, config):
        return Observation(
            config=Configuration(dict(config)),
            objective=1.0,
            score=1.0,
            metrics={"lock": threading.Lock()},
        )

    def failure_fallback_score(self) -> float:
        return -1.0

    def default_score(self) -> float:
        return 0.0


@dataclass
class PidRecorder:
    """Iteration hook that records the pid of the process running it."""

    directory: str

    def __call__(self, iteration, observation) -> None:
        open(os.path.join(self.directory, str(os.getpid())), "w").close()


@dataclass
class Stall:
    """Iteration hook that keeps its run busy for ``seconds``."""

    seconds: float

    def __call__(self, iteration, observation) -> None:
        time.sleep(self.seconds)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_run_seeds(7, 4) == derive_run_seeds(7, 4)
        assert derive_run_seeds(7, 4) != derive_run_seeds(8, 4)

    def test_streams_independent_within_and_across_runs(self):
        seeds = derive_run_seeds(0, 8)
        flat = [s for rs in seeds for s in (rs.server, rs.optimizer, rs.session)]
        assert len(set(flat)) == len(flat)

    def test_prefix_stable(self):
        # Adding runs must not change the seeds of earlier runs.
        assert derive_run_seeds(3, 2) == derive_run_seeds(3, 5)[:2]


class TestSerialParallelEquivalence:
    def test_histories_identical(self, small_space):
        kwargs = dict(
            n_runs=3, n_iterations=8, n_initial=4, instance="B", seed=11
        )
        factory = RegistryOptimizerFactory("vanilla_bo")
        serial = run_sessions("SYSBENCH", small_space, factory, n_workers=1, **kwargs)
        parallel = run_sessions("SYSBENCH", small_space, factory, n_workers=4, **kwargs)
        assert len(serial) == len(parallel) == 3
        for a, b in zip(serial, parallel):
            assert a.scores().tolist() == b.scores().tolist()
            assert [o.iteration for o in a] == [o.iteration for o in b]
            assert [o.config for o in a] == [o.config for o in b]
            assert [o.objective for o in a] == [o.objective for o in b]

    def test_closure_factories_still_work_in_parallel(self, small_space):
        # Unpicklable factories fall back to in-process execution with
        # identical results instead of erroring.
        from repro.optimizers import RandomSearch

        factory = lambda s, sd: RandomSearch(s, seed=sd)  # noqa: E731
        serial = run_sessions(
            "Voter", small_space, factory, n_runs=2, n_iterations=5, seed=3
        )
        parallel = run_sessions(
            "Voter", small_space, factory, n_runs=2, n_iterations=5, seed=3, n_workers=2
        )
        for a, b in zip(serial, parallel):
            assert a.scores().tolist() == b.scores().tolist()


def _spec(space, run_index, objective=None, n_iterations=4):
    return RunSpec(
        run_index=run_index,
        workload="Voter",
        space=space,
        n_iterations=n_iterations,
        n_initial=0,
        optimizer_factory=RegistryOptimizerFactory("random"),
        objective=objective,
        server_seed=run_index,
        optimizer_seed=run_index + 1,
        session_seed=run_index + 2,
        tags={"run": run_index},
    )


class TestCrashResilience:
    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_one_crashing_run_does_not_abort_the_rest(self, small_space, n_workers):
        specs = [
            _spec(small_space, 0),
            _spec(small_space, 1, objective=ExplodingObjective()),
            _spec(small_space, 2),
        ]
        results = ParallelExecutor(n_workers=n_workers).run(specs)
        assert [r.run_index for r in results] == [0, 1, 2]
        assert results[0].history is not None and results[2].history is not None
        assert results[1].failed and results[1].history is None
        assert "boom" in results[1].error
        # failed run was retried exactly once
        assert results[1].attempts == 2
        assert results[0].attempts == 1

    def test_retry_recovers_transient_failures(self, small_space, tmp_path):
        sentinel = str(tmp_path / "flaky-sentinel")
        specs = [_spec(small_space, 0, objective=FlakyObjective(sentinel))]
        results = ParallelExecutor(n_workers=2).run(specs)
        assert not results[0].failed
        assert results[0].attempts == 2
        assert len(results[0].history) == 4

    def test_run_sessions_warns_and_drops_dead_runs(self, small_space, monkeypatch):
        import repro.experiments.runner as runner_mod

        real_build = runner_mod.build_session_specs

        def sabotaged(*args, **kwargs):
            specs = real_build(*args, **kwargs)
            specs[1].objective = ExplodingObjective()
            return specs

        monkeypatch.setattr(runner_mod, "build_session_specs", sabotaged)
        with pytest.warns(RuntimeWarning, match="1/3 runs failed"):
            histories = run_sessions(
                "Voter",
                small_space,
                RegistryOptimizerFactory("random"),
                n_runs=3,
                n_iterations=4,
                n_initial=0,
                seed=5,
            )
        assert len(histories) == 2


class TestProcessPerAttempt:
    def test_each_attempt_runs_in_its_own_process(self, small_space, tmp_path):
        specs = [_spec(small_space, i) for i in range(4)]
        for spec in specs:
            spec.iteration_hook = PidRecorder(str(tmp_path))
        results = ParallelExecutor(n_workers=2).run(specs)
        assert not any(r.failed for r in results)
        pids = {int(name) for name in os.listdir(tmp_path)}
        assert len(pids) == 4
        assert os.getpid() not in pids

    def test_unpicklable_result_is_a_failed_retried_attempt(self, small_space):
        specs = [
            _spec(small_space, 0),
            _spec(small_space, 1, objective=UnpicklableResultObjective()),
            _spec(small_space, 2),
        ]
        results = ParallelExecutor(n_workers=2).run(specs)
        assert results[1].failed and results[1].history is None
        assert "result lost in transit" in results[1].error
        assert results[1].attempts == 2
        for i in (0, 2):
            assert not results[i].failed
            assert results[i].attempts == 1

    def test_parent_failure_stops_every_child(self, small_space, tmp_path, monkeypatch):
        import repro.parallel.executor as executor_mod

        def broken_append(path, record):
            raise OSError("disk full")

        monkeypatch.setattr(executor_mod, "append_telemetry_record", broken_append)
        specs = [_spec(small_space, i) for i in range(4)]
        for spec in specs[1:]:
            spec.iteration_hook = Stall(10.0)
        executor = ParallelExecutor(n_workers=2, telemetry_path=str(tmp_path / "t.jsonl"))
        with pytest.raises(OSError, match="disk full"):
            executor.run(specs)
        assert multiprocessing.active_children() == []


class TestTelemetry:
    def test_final_records(self, small_space, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        specs = [
            _spec(small_space, 0),
            _spec(small_space, 1, objective=ExplodingObjective()),
        ]
        ParallelExecutor(n_workers=1, telemetry_path=path).run(specs)
        finals = final_records(read_telemetry(path))
        assert len(finals) == 2
        ok, bad = finals
        assert ok["status"] == "ok" and bad["status"] == "failed"
        assert ok["n_iterations"] == 4
        assert ok["wall_seconds"] > 0
        assert ok["suggest_seconds"] >= 0
        assert ok["eval_seconds"] > 0
        assert ok["simulated_hours"] > 0
        assert ok["tags"] == {"run": 0}
        assert bad["attempts"] == 2
        assert "boom" in bad["error"]

    def test_streams_one_record_per_attempt(self, small_space, tmp_path):
        # The docstring contract: records land per finished *attempt*,
        # not once at study end — a failed-then-retried run leaves one
        # line per execution, each tagged with its attempt number.
        path = str(tmp_path / "telemetry.jsonl")
        specs = [
            _spec(small_space, 0),
            _spec(small_space, 1, objective=ExplodingObjective()),
        ]
        ParallelExecutor(n_workers=1, telemetry_path=path).run(specs)
        streamed = attempt_records(read_telemetry(path))
        assert [(r["run_index"], r["attempt"], r["status"]) for r in streamed] == [
            (0, 1, "ok"),
            (1, 1, "failed"),
            (1, 2, "failed"),
        ]

    def test_append_only(self, small_space, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        executor = ParallelExecutor(n_workers=1, telemetry_path=path)
        executor.run([_spec(small_space, 0)])
        executor.run([_spec(small_space, 1)])
        assert [r["run_index"] for r in final_records(read_telemetry(path))] == [0, 1]


class TestExecuteRun:
    def test_telemetry_fields_populated(self, small_space):
        result = execute_run(_spec(small_space, 0, n_iterations=6))
        assert not result.failed
        assert result.n_iterations == 6
        assert result.simulated_hours > 0
        assert result.n_failed_evals >= 0
        assert result.eval_seconds > 0

    def test_spec_validation(self, small_space):
        with pytest.raises(ValueError, match="exactly one"):
            RunSpec(
                run_index=0,
                workload="Voter",
                space=small_space,
                n_iterations=1,
            )

    def test_never_raises(self, small_space):
        result = execute_run(_spec(small_space, 0, objective=ExplodingObjective()))
        assert result.failed
        assert "RuntimeError" in result.error


class TestTimedObjective:
    def test_delegates_unknown_attributes(self):
        from repro.parallel.executor import _TimedObjective

        class Inner:
            direction = "min"
            server = "fake-server"

            def score_of(self, value):
                return -value

            def __call__(self, config):
                return config

            def failure_fallback_score(self):
                return -7.0

        timed = _TimedObjective(Inner())
        # Harness code inspecting the objective must see identical
        # behavior with and without the timing wrapper.
        assert timed.direction == "min"
        assert timed.server == "fake-server"
        assert timed.score_of(3.0) == pytest.approx(-3.0)
        assert timed.failure_fallback_score() == pytest.approx(-7.0)
        assert timed("cfg") == "cfg"
        assert timed.eval_seconds > 0

    def test_missing_attribute_still_raises(self):
        from repro.parallel.executor import _TimedObjective

        timed = _TimedObjective(object())
        with pytest.raises(AttributeError):
            timed.no_such_attribute


class TestJitter:
    def test_deterministic_per_attempt(self):
        executor = ParallelExecutor(n_workers=2)
        other = ParallelExecutor(n_workers=4)
        for attempt in (1, 2, 3):
            assert executor._jitter(attempt) == other._jitter(attempt)
        assert executor._jitter(1) != executor._jitter(2)
        assert all(0.05 <= executor._jitter(a) <= 0.25 for a in range(1, 6))


class TestDeterminismAcrossWorkerCounts:
    def test_seed_reuse_matches_numpy_streams(self, small_space):
        # The derived server seed drives default_rng directly; verify the
        # engine-built server reproduces a hand-built one.
        from repro.dbms.server import MySQLServer

        seeds = derive_run_seeds(42, 1)[0]
        a = MySQLServer("SYSBENCH", "B", seed=seeds.server)
        b = MySQLServer("SYSBENCH", "B", seed=seeds.server)
        config = small_space.default_configuration()
        ra = a.evaluate(small_space.complete(config))
        rb = b.evaluate(small_space.complete(config))
        assert ra.objective == rb.objective
        assert np.isfinite(ra.objective)
