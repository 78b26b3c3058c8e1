"""Fault-injection tests: the executor's containment contract, enforced.

These tests kill real run processes mid-run (via the seeded injectors
in :mod:`repro.parallel.faults`) and assert the scheduler's three
guarantees: a process death costs only the run it was executing, retries
reuse the spec's original seeds (so recovered histories are identical to
never-failed ones), and torn telemetry/checkpoint tails never take down
a reader.
"""

from __future__ import annotations

import json
import pickle
import zlib

import pytest

from repro.dbms.catalog import mysql_knob_space
from repro.optimizers.base import Observation
from repro.parallel import (
    FlakyEval,
    InjectedFault,
    ParallelExecutor,
    RegistryOptimizerFactory,
    RunSpec,
    WorkerKiller,
    attempt_records,
    choose_victims,
    read_telemetry,
    result_fingerprint,
    spec_key,
    truncate_tail,
)
from repro.space import Configuration


@pytest.fixture(scope="module")
def small_space():
    return mysql_knob_space(
        "B",
        knob_names=["innodb_flush_log_at_trx_commit", "innodb_log_file_size"],
        seed=0,
    )


def _specs(space, n_runs=4, n_iterations=5):
    from repro.experiments.runner import build_session_specs

    return build_session_specs(
        "SYSBENCH",
        space,
        RegistryOptimizerFactory("random"),
        n_runs=n_runs,
        n_iterations=n_iterations,
        n_initial=2,
        seed=23,
    )


class SimpleObjective:
    """Minimal deterministic picklable objective for wrapper tests.

    Scores via ``crc32`` (not ``hash``, whose per-process randomization
    would make serial and worker-process evaluations disagree).
    """

    def __call__(self, config):
        value = float(sum(zlib.crc32(repr(v).encode()) % 97 for v in config.values()))
        return Observation(config=Configuration(dict(config)), objective=value, score=value)

    def failure_fallback_score(self) -> float:
        return -1.0

    def default_score(self) -> float:
        return 0.0


class TestInjectors:
    def test_choose_victims_deterministic(self):
        assert choose_victims(5, 10, 3) == choose_victims(5, 10, 3)
        assert choose_victims(5, 10, 3) != choose_victims(6, 10, 3)
        assert all(0 <= v < 10 for v in choose_victims(0, 10, 10))
        with pytest.raises(ValueError):
            choose_victims(0, 4, 5)

    def test_injectors_are_picklable(self, tmp_path):
        killer = WorkerKiller(at_iteration=1, arm_dir=str(tmp_path))
        flaky = FlakyEval(SimpleObjective(), arm_path=str(tmp_path / "flaky"))
        for obj in (killer, flaky):
            assert pickle.loads(pickle.dumps(obj)).__class__ is obj.__class__

    def test_flaky_eval_delegates_attributes(self, tmp_path):
        flaky = FlakyEval(SimpleObjective(), arm_path=str(tmp_path / "flaky"))
        assert flaky.default_score() == 0.0
        assert flaky.failure_fallback_score() == -1.0
        with pytest.raises(AttributeError):
            flaky.no_such_attribute

    def test_flaky_eval_spec_key_is_stable(self, small_space, tmp_path):
        # A resumed study finds a run by its key, so the key must not
        # depend on where the wrapped objective happens to live in memory.
        arm = str(tmp_path / "flaky")
        a, b = (_specs(small_space, n_runs=1)[0] for _ in range(2))
        for spec in (a, b):
            spec.objective = FlakyEval(SimpleObjective(), arm_path=arm)
        assert spec_key(a) == spec_key(b)

    def test_flaky_eval_counts_across_processes(self, tmp_path):
        arm = str(tmp_path / "flaky")
        flaky = FlakyEval(SimpleObjective(), arm_path=arm, fail_attempts=2)
        config = Configuration({"a": 1})
        for _ in range(2):
            with pytest.raises(InjectedFault):
                flaky(config)
        # A fresh (un)pickled copy sees the on-disk counter, not its own.
        clone = pickle.loads(pickle.dumps(flaky))
        assert clone(config).score == clone(config).score


class TestPoolBreakContainment:
    def test_only_the_dead_workers_run_is_charged(self, small_space, tmp_path):
        """The tentpole regression: a worker death mid-batch.

        The victim's worker is hard-killed at iteration 2 of its first
        attempt; every other run must come back successful with
        ``attempts == 1`` and a history identical to the uninterrupted
        baseline — first-attempt results survive the pool break.
        """
        baseline = ParallelExecutor(n_workers=1).run(_specs(small_space))
        expected = [result_fingerprint(r) for r in baseline]

        specs = _specs(small_space)
        victim = 1
        specs[victim].iteration_hook = WorkerKiller(
            at_iteration=2, arm_dir=str(tmp_path), label="contain", once=True
        )
        results = ParallelExecutor(n_workers=2).run(specs)

        assert [r.run_index for r in results] == [0, 1, 2, 3]
        assert not any(r.failed for r in results)
        # the once-killer died on attempt 1; the retry (same seeds) succeeded
        assert results[victim].attempts == 2
        for i, result in enumerate(results):
            if i != victim:
                assert result.attempts == 1
        assert [result_fingerprint(r) for r in results] == expected

    def test_persistent_killer_fails_alone(self, small_space, tmp_path):
        """A run that kills its worker on every attempt is marked failed
        (with a worker-death error) while the rest of the study completes."""
        specs = _specs(small_space)
        victim = 2
        specs[victim].iteration_hook = WorkerKiller(
            at_iteration=1, arm_dir=str(tmp_path), label="persistent", once=False
        )
        results = ParallelExecutor(n_workers=2, max_retries=1).run(specs)

        assert results[victim].failed
        assert results[victim].history is None
        assert "worker died" in results[victim].error
        assert results[victim].attempts == 2  # initial attempt + one retry
        for i, result in enumerate(results):
            if i != victim:
                assert not result.failed

    def test_telemetry_streams_the_death(self, small_space, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        specs = _specs(small_space, n_runs=2)
        specs[0].iteration_hook = WorkerKiller(
            at_iteration=1, arm_dir=str(tmp_path), label="stream", once=False
        )
        ParallelExecutor(n_workers=2, max_retries=0, telemetry_path=path).run(specs)
        streamed = attempt_records(read_telemetry(path))
        dead = [r for r in streamed if r["run_index"] == 0]
        assert dead and all(r["status"] == "failed" for r in dead)
        assert any("worker died" in r.get("error", "") for r in dead)


class TestRetryAccounting:
    def test_failed_then_succeeded_counts_two_attempts(self, small_space, tmp_path):
        spec = _specs(small_space, n_runs=1)[0]
        spec.objective = FlakyEval(
            SimpleObjective(), arm_path=str(tmp_path / "flaky"), fail_attempts=1
        )
        results = ParallelExecutor(n_workers=2).run([spec])
        assert not results[0].failed
        assert results[0].attempts == 2

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_retry_reuses_original_seeds(self, small_space, tmp_path, n_workers):
        """A retried run replays the identical history as a clean run.

        ``FlakyEval`` aborts attempt 1 at its first evaluation, so
        attempt 2 starts from scratch — and because seeds live in the
        spec, its history is byte-for-byte the clean baseline's, serial
        or parallel.
        """
        clean = _specs(small_space, n_runs=1)[0]
        clean.objective = SimpleObjective()
        baseline = ParallelExecutor(n_workers=1).run([clean])[0]

        flaky = _specs(small_space, n_runs=1)[0]
        flaky.objective = FlakyEval(
            SimpleObjective(),
            arm_path=str(tmp_path / f"flaky-{n_workers}"),
            fail_attempts=1,
        )
        retried = ParallelExecutor(n_workers=n_workers).run([flaky])[0]
        assert retried.attempts == 2
        assert result_fingerprint(retried) == result_fingerprint(baseline)


class TestTornWrites:
    def test_read_telemetry_skips_truncated_final_line(self, small_space, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        ParallelExecutor(n_workers=1, telemetry_path=path).run(
            _specs(small_space, n_runs=2)
        )
        intact = read_telemetry(path)
        truncate_tail(path, n_bytes=9)
        with pytest.warns(RuntimeWarning, match="torn final telemetry line"):
            torn = read_telemetry(path)
        assert torn == intact[:-1]

    def test_midfile_corruption_still_raises(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"run_index": 0}\n{"torn...\n{"run_index": 1}\n')
        with pytest.raises(json.JSONDecodeError):
            read_telemetry(path)

    def test_truncate_tail_validates(self, tmp_path):
        path = str(tmp_path / "f")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("abcdef")
        with pytest.raises(ValueError):
            truncate_tail(path, n_bytes=-1)
        truncate_tail(path, n_bytes=100)
        assert open(path, encoding="utf-8").read() == ""


def test_spec_with_hook_requires_one_optimizer(small_space, tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        RunSpec(
            run_index=0,
            workload="Voter",
            space=small_space,
            n_iterations=1,
            iteration_hook=WorkerKiller(at_iteration=0, arm_dir=str(tmp_path)),
        )
