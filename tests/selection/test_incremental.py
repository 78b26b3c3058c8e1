"""Tests for the incremental knob-selection drivers."""

from dataclasses import replace

import pytest

from repro.dbms.server import MySQLServer
from repro.optimizers import RandomSearch, VanillaBO
from repro.resilience.taxonomy import FailureKind
from repro.selection.incremental import DecrementalTuner, IncrementalTuner
from repro.tuning.objective import DatabaseObjective

RANKED = [
    "innodb_flush_log_at_trx_commit",
    "sync_binlog",
    "innodb_log_file_size",
    "innodb_io_capacity",
    "innodb_buffer_pool_size",
    "innodb_doublewrite",
    "innodb_flush_method",
    "innodb_thread_concurrency",
    "thread_cache_size",
    "innodb_write_io_threads",
]


def _objective_factory(space):
    return DatabaseObjective(MySQLServer("SYSBENCH", "B", seed=4), space)


def _optimizer_factory(space, phase):
    return VanillaBO(space, seed=phase)


class _EveryThirdCrashes(DatabaseObjective):
    """Every third evaluation crashes, after one retry."""

    def __init__(self, server, space):
        super().__init__(server, space)
        self.n_calls = 0

    def __call__(self, config):
        obs = super().__call__(config)
        self.n_calls += 1
        if self.n_calls % 3:
            return obs
        return replace(
            obs,
            score=float("nan"),
            failed=True,
            failure_reason="mysqld killed",
            failure_kind=FailureKind.CRASH,
            eval_attempts=2,
        )


class TestIncrementalTuner:
    def test_runs_and_grows_space(self, mysql_space):
        tuner = IncrementalTuner(
            _objective_factory,
            RANKED,
            _optimizer_factory,
            start_knobs=2,
            step_knobs=3,
            step_iterations=8,
            base_space=mysql_space,
            seed=0,
        )
        history = tuner.run(24)
        assert len(history) == 24
        assert history.best().score > 0

    def test_projected_crashes_keep_kind_attempts_and_seconds(self, mysql_space):
        tuner = IncrementalTuner(
            lambda space: _EveryThirdCrashes(MySQLServer("SYSBENCH", "B", seed=4), space),
            RANKED,
            lambda space, phase: RandomSearch(space, seed=phase),
            start_knobs=2,
            step_knobs=3,
            step_iterations=4,
            base_space=mysql_space,
            seed=0,
        )
        history = tuner.run(12)
        crashes = [o for o in history if o.failed]
        assert len(crashes) == 3  # one in each 4-evaluation phase
        for obs in crashes:
            assert obs.failure_kind is FailureKind.CRASH
            assert obs.failure_reason == "mysqld killed"
            assert obs.eval_attempts == 2
        assert all(o.simulated_seconds > 0 for o in history)

    def test_requires_base_space(self):
        tuner = IncrementalTuner(
            _objective_factory, RANKED, _optimizer_factory, base_space=None
        )
        with pytest.raises(ValueError):
            tuner.run(5)

    def test_parameter_validation(self, mysql_space):
        with pytest.raises(ValueError):
            IncrementalTuner(
                _objective_factory, RANKED, _optimizer_factory,
                start_knobs=0, base_space=mysql_space,
            )


class TestDecrementalTuner:
    def test_runs_and_shrinks_space(self, mysql_space):
        tuner = DecrementalTuner(
            _objective_factory,
            RANKED,
            _optimizer_factory,
            final_knobs=3,
            step_iterations=10,
            base_space=mysql_space,
            seed=0,
        )
        history = tuner.run(30)
        assert len(history) == 30
        # the final history space has shrunk from 10 knobs
        assert history.space.n_dims < len(RANKED)

    def test_parameter_validation(self, mysql_space):
        with pytest.raises(ValueError):
            DecrementalTuner(
                _objective_factory, RANKED, _optimizer_factory,
                final_knobs=0, base_space=mysql_space,
            )
