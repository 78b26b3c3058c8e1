"""Contract tests: every objective type satisfies the session protocol."""

import numpy as np
import pytest

from repro.dbms.server import MySQLServer
from repro.space import Configuration
from repro.surrogate import SurrogateBenchmark
from repro.tuning import DatabaseObjective


def _check_objective_contract(objective, space):
    """The duck-typed protocol TuningSession relies on."""
    default_score = objective.default_score()
    fallback = objective.failure_fallback_score()
    assert np.isfinite(default_score)
    assert np.isfinite(fallback)
    assert fallback <= default_score
    obs = objective(space.default_configuration())
    assert obs.config == space.default_configuration()
    if not obs.failed:
        assert np.isfinite(obs.score)
        assert obs.simulated_seconds > 0


class TestObjectiveContracts:
    def test_database_objective_throughput(self, sysbench_space, sysbench_server):
        _check_objective_contract(
            DatabaseObjective(sysbench_server, sysbench_space), sysbench_space
        )

    def test_database_objective_latency(self, mysql_space, job_server):
        _check_objective_contract(
            DatabaseObjective(job_server, mysql_space), mysql_space
        )

    def test_surrogate_objective(self, sysbench_space):
        bench = SurrogateBenchmark.build("SYSBENCH", sysbench_space, n_samples=60, seed=0)
        _check_objective_contract(bench.objective(), sysbench_space)

    def test_database_objective_keeps_the_configuration(self, sysbench_space):
        objective = DatabaseObjective(MySQLServer("SYSBENCH", "B", seed=0), sysbench_space)
        config = sysbench_space.default_configuration()
        assert objective(config).config is config
        plain = config.as_dict()
        obs = objective(plain)
        assert isinstance(obs.config, Configuration) and obs.config == plain

    def test_score_sign_convention(self, mysql_space):
        """For every direction, better objective => higher score."""
        tp = DatabaseObjective(MySQLServer("SYSBENCH", "B", seed=0), mysql_space)
        assert tp.score_of(200.0) > tp.score_of(100.0)
        lat = DatabaseObjective(MySQLServer("JOB", "B", seed=0), mysql_space)
        assert lat.score_of(100.0) > lat.score_of(200.0)
