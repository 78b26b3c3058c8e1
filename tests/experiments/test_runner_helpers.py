"""Tests for the experiment runner helpers."""

import numpy as np
import pytest

from repro.dbms.catalog import mysql_knob_space
from repro.experiments.runner import (
    build_session_specs,
    count_failed_runs,
    median_improvement,
    run_sessions,
)
from repro.optimizers import RandomSearch
from repro.optimizers.base import History, Observation
from repro.parallel import RegistryOptimizerFactory


@pytest.fixture(scope="module")
def small_space():
    return mysql_knob_space(
        "B",
        knob_names=["innodb_flush_log_at_trx_commit", "innodb_log_file_size"],
        seed=0,
    )


class TestRunSessions:
    def test_runs_independent_sessions(self, small_space):
        histories = run_sessions(
            "Voter",
            small_space,
            lambda s, sd: RandomSearch(s, seed=sd),
            n_runs=2,
            n_iterations=6,
            n_initial=0,
            seed=1,
        )
        assert len(histories) == 2
        assert all(len(h) == 6 for h in histories)
        # different seeds -> different evaluation noise -> different scores
        assert histories[0].scores().tolist() != histories[1].scores().tolist()

    def test_median_improvement_positive_for_tunable_workload(self, small_space):
        histories = run_sessions(
            "SYSBENCH",
            small_space,
            lambda s, sd: RandomSearch(s, seed=sd),
            n_runs=1,
            n_iterations=25,
            n_initial=0,
            seed=2,
        )
        improvement = median_improvement(histories, "SYSBENCH")
        assert improvement > 0.0

    def test_median_improvement_latency_direction(self, small_space):
        histories = run_sessions(
            "JOB",
            small_space,
            lambda s, sd: RandomSearch(s, seed=sd),
            n_runs=1,
            n_iterations=10,
            n_initial=0,
            seed=2,
        )
        improvement = median_improvement(histories, "JOB")
        assert np.isfinite(improvement)

    def test_run0_seed_streams_are_independent(self, small_space):
        # The serial runner used to give run 0's server and optimizer the
        # exact same seed, correlating noise with sampling.
        specs = build_session_specs(
            "Voter",
            small_space,
            RegistryOptimizerFactory("random"),
            n_runs=3,
            n_iterations=5,
        )
        for spec in specs:
            assert len({spec.server_seed, spec.optimizer_seed, spec.session_seed}) == 3
        assert len({s.server_seed for s in specs}) == 3

    def test_failed_runs_skipped_not_minus_inf(self, small_space):
        ok = History(small_space)
        ok.append(
            Observation(
                config=small_space.default_configuration(), objective=7.0, score=7.0
            )
        )
        dead = History(small_space)
        dead.append(
            Observation(
                config=small_space.default_configuration(),
                objective=float("nan"),
                score=float("nan"),
                failed=True,
            )
        )
        # the failed run no longer injects -inf and drags the median down
        assert median_improvement([ok, dead], "SYSBENCH") == median_improvement([ok], "SYSBENCH")
        assert count_failed_runs([ok, dead]) == 1

    def test_median_improvement_all_failed_is_nan(self, small_space):
        dead = History(small_space)
        with pytest.warns(RuntimeWarning, match="failed"):
            assert np.isnan(median_improvement([dead], "SYSBENCH"))
