"""Checkpoint/resume tests: durability without re-execution.

The acceptance bar: a study interrupted mid-flight (injected worker
death after k runs completed) and resumed via its checkpoint yields run
results byte-identical to the uninterrupted study, with per-attempt
telemetry showing that no completed run was re-executed.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.dbms.catalog import mysql_knob_space
from repro.parallel import (
    ParallelExecutor,
    RegistryOptimizerFactory,
    StudyCheckpoint,
    WorkerKiller,
    attempt_records,
    history_fingerprint,
    read_telemetry,
    record_to_result,
    result_fingerprint,
    result_to_record,
    spec_key,
    truncate_tail,
)
from repro.parallel.checkpoint import record_to_history


@pytest.fixture(scope="module")
def small_space():
    return mysql_knob_space(
        "B",
        knob_names=["innodb_flush_log_at_trx_commit", "innodb_log_file_size"],
        seed=0,
    )


def _specs(space, n_runs=4, n_iterations=5, seed=31):
    from repro.experiments.runner import build_session_specs

    return build_session_specs(
        "SYSBENCH",
        space,
        RegistryOptimizerFactory("random"),
        n_runs=n_runs,
        n_iterations=n_iterations,
        n_initial=2,
        seed=seed,
    )


class TestSpecKey:
    def test_stable_across_rebuilds(self, small_space):
        # Two independently materialized spec lists (same arguments) must
        # produce identical keys — that is what makes resume work across
        # process restarts.
        a = [spec_key(s) for s in _specs(small_space)]
        b = [spec_key(s) for s in _specs(small_space)]
        assert a == b
        assert len(set(a)) == len(a)

    def test_sensitive_to_content(self, small_space):
        base = spec_key(_specs(small_space)[0])
        assert spec_key(_specs(small_space, seed=32)[0]) != base
        assert spec_key(_specs(small_space, n_iterations=6)[0]) != base

    def test_insensitive_to_hooks_and_tags(self, small_space, tmp_path):
        plain = _specs(small_space)[0]
        base = spec_key(plain)
        hooked = _specs(small_space)[0]
        hooked.iteration_hook = WorkerKiller(at_iteration=0, arm_dir=str(tmp_path))
        hooked.tags["extra"] = "display-only"
        # Observers and display metadata don't change what the run
        # computes, so a study resumed without its injectors still matches.
        assert spec_key(hooked) == base


class TestUnkeyableSpecs:
    """A spec carrying a plain (non-dataclass) objective has no
    process-stable description: its attributes' reprs embed addresses."""

    @staticmethod
    def _spec(space):
        from dataclasses import replace

        from repro.dbms.server import MySQLServer
        from repro.tuning.objective import DatabaseObjective

        objective = DatabaseObjective(MySQLServer("SYSBENCH", "B", seed=1), space)
        return replace(_specs(space, n_runs=1)[0], objective=objective)

    def test_key_raises_naming_the_type(self, small_space):
        with pytest.raises(ValueError, match="DatabaseObjective"):
            spec_key(self._spec(small_space))

    def test_checkpointed_run_raises_before_any_spec_runs(
        self, small_space, tmp_path, monkeypatch
    ):
        ran = []
        monkeypatch.setattr(
            "repro.parallel.executor.execute_run", lambda spec: ran.append(spec)
        )
        path = str(tmp_path / "ck.jsonl")
        with pytest.raises(ValueError, match="DatabaseObjective"):
            ParallelExecutor(n_workers=1, checkpoint_path=path).run([self._spec(small_space)])
        assert ran == []
        assert not os.path.exists(path)

    def test_runs_without_a_checkpoint_without_a_key(self, small_space, monkeypatch):
        def no_key(spec):
            raise AssertionError("spec_key called without a checkpoint")

        monkeypatch.setattr("repro.parallel.executor.spec_key", no_key)
        (result,) = ParallelExecutor(n_workers=1).run([self._spec(small_space)])
        assert not result.failed
        assert result.n_iterations == 5


class TestResultRoundTrip:
    def test_value_exact(self, small_space):
        result = ParallelExecutor(n_workers=1).run(_specs(small_space, n_runs=1))[0]
        record = json.loads(json.dumps(result_to_record(result)))
        loaded = record_to_result(record, small_space)
        assert result_fingerprint(loaded) == result_fingerprint(result)
        assert loaded.wall_seconds == result.wall_seconds
        assert loaded.attempts == result.attempts
        assert len(loaded.history) == len(result.history)
        for a, b in zip(loaded.history, result.history):
            assert a.config == b.config
            assert a.score == b.score
            assert a.objective == b.objective
            assert a.iteration == b.iteration

    def test_history_fingerprint_ignores_host_timing(self, small_space):
        result = ParallelExecutor(n_workers=1).run(_specs(small_space, n_runs=1))[0]
        record = result_to_record(result)
        for obs in record["history"]["observations"]:
            obs["suggest_seconds"] = obs["suggest_seconds"] + 1.0
        retimed = record_to_history(record["history"], small_space)
        assert history_fingerprint(retimed) == history_fingerprint(result.history)


class TestStudyCheckpoint:
    def test_record_and_get(self, small_space, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        spec = _specs(small_space, n_runs=1)[0]
        result = ParallelExecutor(n_workers=1).run([spec])[0]
        checkpoint = StudyCheckpoint(path)
        key = spec_key(spec)
        assert checkpoint.get(key, small_space) is None
        checkpoint.record(key, result)
        loaded = checkpoint.get(key, small_space)
        assert result_fingerprint(loaded) == result_fingerprint(result)

    def test_failed_results_are_not_recorded(self, small_space, tmp_path):
        from repro.parallel.spec import RunResult

        checkpoint = StudyCheckpoint(str(tmp_path / "ck.jsonl"))
        checkpoint.record("key", RunResult(run_index=0, failed=True, error="x"))
        assert not checkpoint.exists()

    def test_torn_final_line_is_skipped(self, small_space, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        specs = _specs(small_space, n_runs=2)
        ParallelExecutor(n_workers=1, checkpoint_path=path).run(specs)
        truncate_tail(path, n_bytes=25)
        with pytest.warns(RuntimeWarning, match="torn final checkpoint line"):
            cache = StudyCheckpoint(path).load()
        assert set(cache) == {spec_key(specs[0])}

    def test_midfile_corruption_still_raises(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"key": "a", "result": {}}\n{"torn...\n{"key": "b", "result": {}}\n')
        with pytest.raises(json.JSONDecodeError):
            StudyCheckpoint(path).load()


class TestResume:
    def test_completed_runs_are_not_reexecuted(self, small_space, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first = ParallelExecutor(n_workers=1, checkpoint_path=path).run(
            _specs(small_space)
        )
        telemetry = str(tmp_path / "resumed.jsonl")
        second = ParallelExecutor(
            n_workers=2, checkpoint_path=path, telemetry_path=telemetry
        ).run(_specs(small_space))
        assert [result_fingerprint(r) for r in second] == [
            result_fingerprint(r) for r in first
        ]
        # No attempt records: the whole study came from the checkpoint —
        # but the final-state telemetry block is still complete.
        records = read_telemetry(telemetry)
        assert attempt_records(records) == []
        assert len(records) == 4

    def test_kill_and_resume_equivalence(self, small_space, tmp_path):
        """Acceptance criterion: interrupt, resume, compare byte-for-byte.

        Phase 1 keeps killing the victim's worker with ``max_retries=0``,
        leaving a checkpoint holding exactly the completed runs — the
        state of a study whose operator pulled the plug.  Phase 2 resumes
        with the injector gone: only the victim may execute, and the full
        result set must match the uninterrupted baseline exactly.
        """
        baseline = ParallelExecutor(n_workers=1).run(_specs(small_space))
        expected = [result_fingerprint(r) for r in baseline]

        checkpoint = str(tmp_path / "ck.jsonl")
        victim = 1
        interrupted = _specs(small_space)
        interrupted[victim].iteration_hook = WorkerKiller(
            at_iteration=2, arm_dir=str(tmp_path), label="kill-resume", once=False
        )
        phase1 = ParallelExecutor(
            n_workers=2, max_retries=0, checkpoint_path=checkpoint
        ).run(interrupted)
        assert phase1[victim].failed and "worker died" in phase1[victim].error
        completed = {i for i, r in enumerate(phase1) if not r.failed}
        assert completed == {0, 2, 3}

        telemetry = str(tmp_path / "resumed.jsonl")
        phase2 = ParallelExecutor(
            n_workers=2, checkpoint_path=checkpoint, telemetry_path=telemetry
        ).run(_specs(small_space))

        assert [result_fingerprint(r) for r in phase2] == expected
        re_executed = {
            r["run_index"] for r in attempt_records(read_telemetry(telemetry))
        }
        assert re_executed == {victim}
        # the resumed study's checkpoint is now complete: a third
        # invocation re-executes nothing at all
        phase3 = ParallelExecutor(n_workers=1, checkpoint_path=checkpoint).run(
            _specs(small_space)
        )
        assert [result_fingerprint(r) for r in phase3] == expected


class TestResilienceCompat:
    """The resilience fields must not disturb pre-existing checkpoints."""

    def test_guard_free_spec_key_omits_resilience_fields(self, small_space):
        import hashlib

        from repro.parallel.checkpoint import (
            _describe,
            _describe_space,
            _dumps,
            observation_to_record,
        )

        spec = _specs(small_space, n_runs=1)[0]
        # Rebuild the historical payload by hand: a guard-free, unbudgeted
        # spec must hash exactly as it did before the resilience fields
        # existed, so old checkpoints keep matching.
        payload = {
            "run_index": spec.run_index,
            "workload": spec.workload,
            "instance": spec.instance,
            "n_iterations": spec.n_iterations,
            "n_initial": spec.n_initial,
            "server_seed": spec.server_seed,
            "optimizer_seed": spec.optimizer_seed,
            "session_seed": spec.session_seed,
            "space": _describe_space(spec.space),
            "optimizer": _describe(spec.optimizer_factory or spec.optimizer),
            "objective": _describe(spec.objective),
            "warm_start": [observation_to_record(o) for o in spec.warm_start or []],
        }
        legacy = hashlib.sha256(_dumps(payload).encode("utf-8")).hexdigest()[:20]
        assert spec_key(spec) == legacy

    def test_guard_policy_changes_key_but_guard_seed_does_not(self, small_space):
        from dataclasses import replace

        from repro.resilience import GuardPolicy

        base = _specs(small_space, n_runs=1)[0]
        assert spec_key(replace(base, guard_seed=99)) == spec_key(base)
        assert spec_key(replace(base, guard=GuardPolicy())) != spec_key(base)
        assert spec_key(
            replace(base, max_simulated_hours=1.0)
        ) != spec_key(base)

    def test_observation_round_trips_failure_kind_and_attempts(self, small_space):
        from repro.optimizers.base import Observation
        from repro.parallel.checkpoint import (
            observation_to_record,
            record_to_observation,
        )
        from repro.resilience import FailureKind
        from repro.space import Configuration

        obs = Observation(
            config=Configuration(dict(small_space.default_configuration())),
            objective=1.0,
            score=1.0,
            failed=True,
            failure_reason="timeout: watchdog",
            failure_kind=FailureKind.TIMEOUT,
            eval_attempts=3,
        )
        back = record_to_observation(observation_to_record(obs))
        assert back.failure_kind is FailureKind.TIMEOUT
        assert back.eval_attempts == 3

    def test_legacy_observation_record_loads_with_defaults(self, small_space):
        from repro.parallel.checkpoint import (
            observation_to_record,
            record_to_observation,
        )
        from repro.optimizers.base import Observation
        from repro.space import Configuration

        obs = Observation(
            config=Configuration(dict(small_space.default_configuration())),
            objective=1.0,
            score=1.0,
        )
        record = observation_to_record(obs)
        # A successful single-attempt observation serializes exactly as it
        # did before the resilience layer — no new keys — so fingerprints
        # of unguarded runs are unchanged.
        assert "failure_kind" not in record
        assert "eval_attempts" not in record
        back = record_to_observation(record)
        assert back.failure_kind is None
        assert back.eval_attempts == 1

    def test_run_seeds_first_three_streams_unchanged(self):
        import numpy as np

        from repro.parallel import derive_run_seeds

        seeds = derive_run_seeds(123, 3)
        # Historical derivation: each child spawned exactly three
        # grandchildren.  Adding the guard stream as a fourth spawn must
        # leave the first three identical, or every existing checkpoint
        # and published fingerprint would silently invalidate.
        children = np.random.SeedSequence(123).spawn(3)
        for run, child in enumerate(children):
            legacy = [int(g.generate_state(1)[0]) for g in child.spawn(3)]
            assert [
                seeds[run].server,
                seeds[run].optimizer,
                seeds[run].session,
            ] == legacy
