"""Tests for objectives, sessions (failure clamping), and tuning metrics."""

import numpy as np
import pytest

from repro.dbms.server import MySQLServer
from repro.optimizers import RandomSearch, VanillaBO
from repro.optimizers.base import History, Observation
from repro.space import Configuration
from repro.tuning import (
    DatabaseObjective,
    SurrogateObjective,
    TuningSession,
    average_ranks,
    improvement_over_default,
    performance_enhancement,
    speedup,
)

GB = 1024**3


class TestDatabaseObjective:
    def test_throughput_scores_positive(self, sysbench_space, sysbench_server):
        obj = DatabaseObjective(sysbench_server, sysbench_space)
        obs = obj(sysbench_space.default_configuration())
        assert obs.score == obs.objective > 0
        assert obj.direction == "max"

    def test_latency_scores_negated(self, job_server, mysql_space):
        obj = DatabaseObjective(job_server, mysql_space)
        obs = obj(mysql_space.default_configuration())
        assert obs.score == -obs.objective < 0
        assert obj.direction == "min"

    def test_failure_fallback_is_worse_than_default(self, sysbench_server, sysbench_space):
        obj = DatabaseObjective(sysbench_server, sysbench_space)
        assert obj.failure_fallback_score() < obj.default_score()

    def test_failure_fallback_latency(self, job_server, mysql_space):
        obj = DatabaseObjective(job_server, mysql_space)
        assert obj.failure_fallback_score() < obj.default_score()


class TestSurrogateObjective:
    def test_prediction_objective(self, tiny_space):
        predictor = lambda X: X[:, 0] * 100.0  # noqa: E731
        obj = SurrogateObjective(tiny_space, predictor, direction="max")
        obs = obj(tiny_space.default_configuration())
        assert obs.objective == pytest.approx(50.0)
        assert not obs.failed
        assert obj.n_evaluations == 1

    def test_latency_direction(self, tiny_space):
        predictor = lambda X: np.full(len(X), 10.0)  # noqa: E731
        obj = SurrogateObjective(tiny_space, predictor, direction="min")
        assert obj(tiny_space.default_configuration()).score == -10.0

    def test_invalid_direction(self, tiny_space):
        with pytest.raises(ValueError):
            SurrogateObjective(tiny_space, lambda X: X, direction="sideways")


class TestTuningSession:
    def test_runs_requested_iterations(self, sysbench_space, sysbench_server):
        obj = DatabaseObjective(sysbench_server, sysbench_space)
        session = TuningSession(
            obj, RandomSearch(sysbench_space, seed=0), sysbench_space,
            max_iterations=12, n_initial=5, seed=0,
        )
        history = session.run()
        assert len(history) == 12

    def test_lhs_initialization_used_for_bo(self, sysbench_space, sysbench_server):
        obj = DatabaseObjective(sysbench_server, sysbench_space)
        session = TuningSession(
            obj, VanillaBO(sysbench_space, seed=0), sysbench_space,
            max_iterations=10, n_initial=10, seed=0,
        )
        history = session.run()
        # all 10 iterations came from the LHS batch: no suggest overhead
        assert all(o.suggest_seconds == 0.0 for o in history)

    def test_failures_clamped_to_worst_seen(self, sysbench_space):
        server = MySQLServer("SYSBENCH", "B", seed=1)
        obj = DatabaseObjective(server, sysbench_space)
        session = TuningSession(
            obj, RandomSearch(sysbench_space, seed=5), sysbench_space,
            max_iterations=40, n_initial=0, seed=1,
        )
        history = session.run()
        failed = [o for o in history if o.failed]
        assert failed, "expected at least one OOM in 40 random configs"
        for obs in failed:
            # clamped to the worst success seen *before* the failure
            prior = [o.score for o in history if not o.failed and o.iteration < obs.iteration]
            expected = min(prior) if prior else obj.failure_fallback_score()
            assert obs.score == expected
            assert np.isfinite(obs.score)

    def test_first_failure_uses_fallback(self, sysbench_space):
        class AlwaysFails:
            def __call__(self, config):
                return Observation(
                    config=Configuration(dict(config)), objective=float("nan"),
                    score=float("nan"), failed=True,
                )

            def failure_fallback_score(self):
                return -123.0

            def default_score(self):
                return 0.0

        session = TuningSession(
            AlwaysFails(), RandomSearch(sysbench_space, seed=0), sysbench_space,
            max_iterations=3, n_initial=0, seed=0,
        )
        history = session.run()
        assert all(o.score == -123.0 for o in history)

    def test_callback_invoked(self, sysbench_space, sysbench_server):
        obj = DatabaseObjective(sysbench_server, sysbench_space)
        seen = []
        session = TuningSession(
            obj, RandomSearch(sysbench_space, seed=0), sysbench_space,
            max_iterations=5, n_initial=0, seed=0,
            on_iteration=lambda i, o: seen.append(i),
        )
        session.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_warm_start_counts_into_history(self, sysbench_space, sysbench_server):
        obj = DatabaseObjective(sysbench_server, sysbench_space)
        warm = [obj(sysbench_space.default_configuration())]
        session = TuningSession(
            obj, RandomSearch(sysbench_space, seed=0), sysbench_space,
            max_iterations=4, n_initial=0, seed=0, warm_start=warm,
        )
        history = session.run()
        assert len(history) == 5

    def test_warm_start_shrinks_lhs_budget(self, sysbench_space, sysbench_server):
        # A session warm-started with k observations must not replay the
        # full LHS design on top of them.
        obj = DatabaseObjective(sysbench_server, sysbench_space)
        warm = [obj(sysbench_space.default_configuration()) for _ in range(6)]
        session = TuningSession(
            obj, VanillaBO(sysbench_space, seed=0), sysbench_space,
            max_iterations=10, n_initial=10, seed=0, warm_start=warm,
        )
        assert session.n_initial == 4
        history = session.run()
        # 6 warm + 10 evaluated; only iterations 6..9 are LHS (no suggest
        # overhead), the rest go through the optimizer
        assert len(history) == 16
        suggested = [o for o in history if o.suggest_seconds > 0.0]
        assert len(suggested) == 6

    def test_warm_start_larger_than_lhs_budget_floors_at_zero(
        self, sysbench_space, sysbench_server
    ):
        obj = DatabaseObjective(sysbench_server, sysbench_space)
        warm = [obj(sysbench_space.default_configuration()) for _ in range(12)]
        session = TuningSession(
            obj, VanillaBO(sysbench_space, seed=0), sysbench_space,
            max_iterations=3, n_initial=10, seed=0, warm_start=warm,
        )
        assert session.n_initial == 0

    def test_warm_start_reindexes_without_mutating_source(
        self, sysbench_space, sysbench_server
    ):
        obj = DatabaseObjective(sysbench_server, sysbench_space)
        source = History(sysbench_space)
        for _ in range(3):
            source.append(obj(sysbench_space.default_configuration()))
        warm = list(source)[1:]  # iterations 1, 2 in the source task
        session = TuningSession(
            obj, RandomSearch(sysbench_space, seed=0), sysbench_space,
            max_iterations=2, n_initial=0, seed=0, warm_start=warm,
        )
        history = session.run()
        # re-appended observations are renumbered from 0 ...
        assert [o.iteration for o in history] == [0, 1, 2, 3]
        # ... and the source history keeps its own indices
        assert [o.iteration for o in source] == [0, 1, 2]

    def test_simulated_hours(self, sysbench_space, sysbench_server):
        obj = DatabaseObjective(sysbench_server, sysbench_space)
        session = TuningSession(
            obj, RandomSearch(sysbench_space, seed=0), sysbench_space,
            max_iterations=10, n_initial=0, seed=0,
        )
        session.run()
        assert session.total_simulated_hours() > 0.4  # ~10 * 215s


class TestSimulatedBudget:
    def _session(self, space, server, max_iterations=20, **kwargs):
        obj = DatabaseObjective(server, space)
        return TuningSession(
            obj, RandomSearch(space, seed=0), space,
            max_iterations=max_iterations, n_initial=2, seed=0, **kwargs,
        )

    def test_unbudgeted_session_stops_on_max_iterations(
        self, sysbench_space, sysbench_server
    ):
        session = self._session(sysbench_space, sysbench_server, max_iterations=3)
        assert session.stop_reason is None  # set only once run() starts
        history = session.run()
        assert len(history) == 3
        assert session.stop_reason == "max_iterations"

    def test_budget_stops_session_early(self, sysbench_space, sysbench_server):
        # Successful evaluations cost ~215 simulated seconds each; an
        # 0.2h (720s) budget allows roughly three of them out of twenty.
        session = self._session(
            sysbench_space, sysbench_server, max_simulated_hours=0.2
        )
        history = session.run()
        assert session.stop_reason == "simulated_budget"
        assert 0 < len(history) < 20
        assert session.total_simulated_hours() >= 0.2

    def test_failed_evaluations_consume_restart_cost(self, sysbench_space):
        # A buffer pool far beyond RAM fails every evaluation; each failure
        # still pays the 35s restart, so the budget must run out eventually.
        class AlwaysCrashes:
            def __init__(self, inner):
                self.inner = inner

            def __call__(self, config):
                doomed = dict(config)
                doomed["innodb_buffer_pool_size"] = 32 * GB
                return self.inner(doomed)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        inner = DatabaseObjective(
            MySQLServer("SYSBENCH", "B", seed=2), sysbench_space
        )
        budget_seconds = 100.0  # covers two 35s restarts, not three
        session = TuningSession(
            AlwaysCrashes(inner), RandomSearch(sysbench_space, seed=2),
            sysbench_space, max_iterations=50, n_initial=0, seed=2,
            max_simulated_hours=budget_seconds / 3600.0,
        )
        history = session.run()
        assert session.stop_reason == "simulated_budget"
        assert all(o.failed for o in history)
        assert len(history) == 3  # 35 + 35 < 100 <= 35 * 3

    def test_warm_start_counts_toward_budget(self, sysbench_space, sysbench_server):
        warm = self._session(sysbench_space, sysbench_server, max_iterations=4).run()
        consumed_hours = sum(o.simulated_seconds for o in warm) / 3600.0
        # The warm start alone exhausts the budget: zero new evaluations run.
        session = TuningSession(
            DatabaseObjective(MySQLServer("SYSBENCH", "B", seed=3), sysbench_space),
            RandomSearch(sysbench_space, seed=3), sysbench_space,
            max_iterations=20, n_initial=0, seed=3, warm_start=list(warm),
            max_simulated_hours=consumed_hours,
        )
        history = session.run()
        assert session.stop_reason == "simulated_budget"
        assert len(history) == len(warm)  # no new evaluations fit the budget

    def test_budget_validation(self, sysbench_space, sysbench_server):
        with pytest.raises(ValueError):
            self._session(
                sysbench_space, sysbench_server, max_simulated_hours=0.0
            )
        with pytest.raises(ValueError):
            self._session(
                sysbench_space, sysbench_server, max_simulated_hours=-1.0
            )


class TestMetrics:
    def test_improvement_directions(self):
        assert improvement_over_default(150.0, 100.0, "max") == pytest.approx(0.5)
        assert improvement_over_default(50.0, 100.0, "min") == pytest.approx(0.5)
        with pytest.raises(ValueError):
            improvement_over_default(1.0, 0.0, "max")
        with pytest.raises(ValueError):
            improvement_over_default(1.0, 1.0, "up")

    def test_performance_enhancement(self):
        assert performance_enhancement(110.0, 100.0) == pytest.approx(0.1)
        assert performance_enhancement(-90.0, -100.0) == pytest.approx(0.1)

    def test_speedup(self, tiny_space):
        base = History(tiny_space)
        for i, s in enumerate([1.0, 2.0, 3.0]):
            base.append(Observation(config=tiny_space.complete({"count": i}), objective=s, score=s))
        fast = History(tiny_space)
        fast.append(Observation(config=tiny_space.complete({"count": 50}), objective=4.0, score=4.0))
        assert speedup(base, fast) == pytest.approx(3.0)
        slow = History(tiny_space)
        slow.append(Observation(config=tiny_space.complete({"count": 51}), objective=0.5, score=0.5))
        assert speedup(base, slow) is None

    def test_average_ranks(self):
        results = {"a": [3.0, 3.0], "b": [2.0, 2.0], "c": [1.0, 1.0]}
        ranks = average_ranks(results, higher_is_better=True)
        assert ranks == {"a": 1.0, "b": 2.0, "c": 3.0}
        ranks_min = average_ranks(results, higher_is_better=False)
        assert ranks_min["c"] == 1.0

    def test_average_ranks_ties(self):
        ranks = average_ranks({"a": [1.0], "b": [1.0]})
        assert ranks == {"a": 1.5, "b": 1.5}

    def test_average_ranks_validation(self):
        with pytest.raises(ValueError):
            average_ranks({"a": [1.0], "b": [1.0, 2.0]})
        assert average_ranks({}) == {}
