"""Tests for Observation/History and acquisition functions."""

import numpy as np
import pytest

from repro.optimizers.acquisitions import expected_improvement
from repro.optimizers.base import History, Observation
from repro.space import Configuration


def _obs(space, score, failed=False, **values):
    config = space.complete(values)
    return Observation(
        config=config, objective=score, score=score, failed=failed
    )


class TestHistory:
    def test_append_assigns_iterations(self, tiny_space):
        h = History(tiny_space)
        h.append(_obs(tiny_space, 1.0))
        h.append(_obs(tiny_space, 2.0, x=0.3))
        assert [o.iteration for o in h] == [0, 1]
        assert len(h) == 2

    def test_append_reindexes_stale_iterations(self, tiny_space):
        # Observations re-appended from a source history (warm starts)
        # must not keep their old indices.
        source = History(tiny_space)
        for score in (1.0, 2.0, 3.0):
            source.append(_obs(tiny_space, score))
        target = History(tiny_space)
        target.append(source[2])  # iteration 2 in the source
        target.append(source[0])
        assert [o.iteration for o in target] == [0, 1]
        # the copies keep trajectories consistent without mutating the source
        assert [o.iteration for o in source] == [0, 1, 2]
        assert target.best_score_trajectory().tolist() == [3.0, 3.0]
        assert target.iterations_to_reach(3.0) == 1

    def test_best_ignores_failures(self, tiny_space):
        h = History(tiny_space)
        h.append(_obs(tiny_space, 100.0, failed=True))
        h.append(_obs(tiny_space, 1.0, x=0.2))
        assert h.best().score == 1.0

    def test_best_raises_without_success(self, tiny_space):
        h = History(tiny_space)
        h.append(_obs(tiny_space, 1.0, failed=True))
        with pytest.raises(ValueError):
            h.best()

    def test_encoded_and_scores_aligned(self, tiny_space):
        h = History(tiny_space)
        h.append(_obs(tiny_space, 1.0))
        h.append(_obs(tiny_space, 5.0, x=0.9))
        X = h.encoded()
        y = h.scores()
        assert X.shape == (2, tiny_space.n_dims)
        np.testing.assert_array_equal(y, [1.0, 5.0])

    def test_empty_encoded(self, tiny_space):
        h = History(tiny_space)
        assert h.encoded().shape == (0, tiny_space.n_dims)

    def test_trajectory_and_reach(self, tiny_space):
        h = History(tiny_space)
        h.append(_obs(tiny_space, 1.0))
        h.append(_obs(tiny_space, 3.0, x=0.1))
        h.append(_obs(tiny_space, 2.0, x=0.2))
        traj = h.best_score_trajectory()
        np.testing.assert_array_equal(traj, [1.0, 3.0, 3.0])
        assert h.iterations_to_reach(3.0) == 2
        assert h.iterations_to_reach(99.0) is None

    def test_worst_score(self, tiny_space):
        h = History(tiny_space)
        assert h.worst_score() is None
        h.append(_obs(tiny_space, 4.0))
        h.append(_obs(tiny_space, -2.0, x=0.7))
        assert h.worst_score() == -2.0


class TestAcquisitions:
    def test_ei_zero_when_mean_below_best_and_no_uncertainty(self):
        ei = expected_improvement(np.array([1.0]), np.array([0.0]), best=2.0)
        assert ei[0] == 0.0

    def test_ei_positive_with_uncertainty(self):
        ei = expected_improvement(np.array([1.0]), np.array([1.0]), best=2.0)
        assert ei[0] > 0.0

    def test_ei_increases_with_mean(self):
        means = np.array([0.0, 1.0, 2.0])
        ei = expected_improvement(means, np.ones(3), best=1.0)
        assert ei[0] < ei[1] < ei[2]

    def test_ei_increases_with_std_below_best(self):
        stds = np.array([0.1, 1.0, 5.0])
        ei = expected_improvement(np.zeros(3), stds, best=1.0)
        assert ei[0] < ei[1] < ei[2]
