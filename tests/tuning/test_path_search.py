"""Tests for the end-to-end path search (paper §9.2 extension)."""

import pytest

from repro.tuning.path_search import PathResult, PathSearch, TuningPath


class TestPathSearch:
    def test_default_paths_cross_product(self):
        paths = PathSearch.default_paths()
        assert len(paths) == 8
        assert TuningPath("shap", 20, "smac") in paths

    def test_validation(self):
        with pytest.raises(ValueError):
            PathSearch("SYSBENCH", eta=1)
        with pytest.raises(ValueError):
            PathSearch("SYSBENCH", total_budget=5)
        with pytest.raises(ValueError):
            PathSearch("SYSBENCH", paths=[])

    def test_successive_halving_eliminates_and_ranks(self):
        paths = [
            TuningPath("gini", 5, "smac"),
            TuningPath("gini", 5, "random"),
            TuningPath("gini", 10, "smac"),
            TuningPath("gini", 10, "random"),
        ]
        search = PathSearch(
            "Voter",
            paths=paths,
            pool_samples=120,
            total_budget=60,
            eta=2,
            seed=1,
        )
        results = search.run()
        assert len(results) == 4
        # best-first ordering
        scores = [r.best_score for r in results]
        assert scores == sorted(scores, reverse=True)
        # at least half the paths were eliminated before the final round
        eliminated = [r for r in results if r.eliminated_at_round is not None]
        assert len(eliminated) >= 2
        # survivors spent more budget than early casualties
        survivor = results[0]
        casualty = next(r for r in results if r.eliminated_at_round == 0)
        assert survivor.iterations_used >= casualty.iterations_used

    def test_rankings_cached_across_paths(self):
        search = PathSearch(
            "Voter",
            paths=[TuningPath("gini", 5, "random"), TuningPath("gini", 10, "random")],
            pool_samples=100,
            total_budget=40,
            seed=2,
        )
        search.run()
        assert set(search._rankings) == {"gini"}  # computed once, reused

    def test_round_two_warm_observations_keep_their_fields(self):
        search = PathSearch("Voter", pool_samples=60, seed=1)
        first = search._make_session(TuningPath("gini", 5, "random"), 4, []).run()
        second = search._make_session(TuningPath("gini", 10, "random"), 2, first.observations)
        warm = second.history.observations
        assert len(warm) == 4
        assert all(o.simulated_seconds > 0 for o in warm)
        assert [o.simulated_seconds for o in warm] == [o.simulated_seconds for o in first]
        assert [o.metrics for o in warm] == [o.metrics for o in first]
        assert [o.failure_kind for o in warm] == [o.failure_kind for o in first]

    def test_path_str(self):
        assert str(TuningPath("shap", 20, "smac")) == "shap/top-20/smac"

    def test_server_noise_independent_of_hash_seed(self, run_python):
        """One seed gives one session, whatever the interpreter's hash seed."""
        code = (
            "from repro.tuning.path_search import PathSearch, TuningPath\n"
            "search = PathSearch('Voter', pool_samples=60, seed=1)\n"
            "session = search._make_session(TuningPath('gini', 5, 'random'), 3, [])\n"
            "default = session.space.default_configuration()\n"
            "server = session.objective.server\n"
            "print([server.evaluate(default).objective for _ in range(3)])\n"
        )
        assert run_python(code, hash_seed=1) == run_python(code, hash_seed=2)
