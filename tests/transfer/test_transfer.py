"""Tests for the three knowledge-transfer frameworks."""

import numpy as np
import pytest

from repro.dbms.server import MySQLServer
from repro.optimizers import SMAC, MixedKernelBO
from repro.optimizers.base import History, Observation
from repro.transfer import (
    MappedOptimizer,
    RGPEMixedKernelBO,
    RGPESMAC,
    RGPESurrogate,
    SourceTask,
    TransferRepository,
    fine_tuned_ddpg,
    pretrain_ddpg,
    ranking_loss,
)
from repro.transfer.repository import mean_metric_signature
from repro.transfer.rgpe import compute_rgpe_weights
from repro.tuning import DatabaseObjective, TuningSession


def _make_history(space, workload, n=15, seed=0):
    server = MySQLServer(workload, "B", seed=seed)
    obj = DatabaseObjective(server, space)
    history = History(space, task_id=workload)
    for config in space.sample_configurations(n, np.random.default_rng(seed)):
        obs = obj(config)
        if obs.failed:
            obs.score = obj.failure_fallback_score()
        history.append(obs)
    return history


@pytest.fixture(scope="module")
def repo(sysbench_space):
    tasks = [
        SourceTask("SEATS", _make_history(sysbench_space, "SEATS", seed=1)),
        SourceTask("Voter", _make_history(sysbench_space, "Voter", seed=2)),
    ]
    return TransferRepository(tasks)


class TestRepository:
    def test_signatures_computed(self, repo):
        for task in repo:
            assert task.metric_signature.size > 0

    def test_most_similar_prefers_itself(self, sysbench_space, repo):
        seats_again = _make_history(sysbench_space, "SEATS", seed=9)
        signature = mean_metric_signature(seats_again)
        assert repo.most_similar(signature).workload_name == "SEATS"

    def test_empty_repository_raises(self):
        with pytest.raises(ValueError):
            TransferRepository().most_similar(np.ones(3))

    def test_training_data_standardized(self, repo):
        for task in repo:
            __, y = task.training_data()
            assert abs(y.mean()) < 1e-9
            assert y.std() == pytest.approx(1.0, abs=1e-6)


class TestRankingLoss:
    def test_perfect_order_zero_loss(self):
        y = np.array([1.0, 2.0, 3.0])
        assert ranking_loss(y, y) == 0

    def test_reversed_order_max_loss(self):
        y = np.array([1.0, 2.0, 3.0])
        assert ranking_loss(-y, y) == 3

    def test_weights_favor_target_with_no_sources(self):
        weights = compute_rgpe_weights(
            [], np.zeros((2, 2)), np.array([1.0, 2.0]),
            lambda X, y: None, np.random.default_rng(0),
        )
        np.testing.assert_array_equal(weights, [1.0])


class TestRGPEOptimizers:
    def test_rgpe_smac_suggests_valid(self, sysbench_space, repo):
        opt = RGPESMAC(sysbench_space, repo, seed=0)
        history = _make_history(sysbench_space, "TPC-C", n=12, seed=4)
        config = opt.suggest(history)
        assert sysbench_space.validate(config)
        assert opt.last_weights_ is not None
        assert opt.last_weights_.sum() == pytest.approx(1.0)

    def test_rgpe_mixed_bo_suggests_valid(self, sysbench_space, repo):
        opt = RGPEMixedKernelBO(sysbench_space, repo, seed=0)
        history = _make_history(sysbench_space, "TPC-C", n=12, seed=4)
        config = opt.suggest(history)
        assert sysbench_space.validate(config)

    def test_ensemble_variance_composition(self):
        class Flat:
            def __init__(self, mean, std):
                self._m, self._s = mean, std

            def predict_with_std(self, X):
                n = len(X)
                return np.full(n, self._m), np.full(n, self._s)

        ens = RGPESurrogate([Flat(1.0, 1.0)], Flat(3.0, 1.0), np.array([0.5, 0.5]))
        mean, std = ens.predict_with_std(np.zeros((2, 2)))
        np.testing.assert_allclose(mean, 2.0)
        np.testing.assert_allclose(std, np.sqrt(0.5))

    def test_weight_count_validation(self):
        with pytest.raises(ValueError):
            RGPESurrogate([], None, np.array([0.5, 0.5]))


class TestMapping:
    def test_maps_and_augments(self, sysbench_space, repo):
        base = SMAC(sysbench_space, seed=0)
        opt = MappedOptimizer(base, repo)
        history = _make_history(sysbench_space, "SEATS", n=12, seed=5)
        config = opt.suggest(history)
        assert sysbench_space.validate(config)
        assert opt.mapped_workload_ in ("SEATS", "Voter")

    def test_empty_repo_falls_through(self, sysbench_space):
        opt = MappedOptimizer(MixedKernelBO(sysbench_space, seed=0), TransferRepository())
        history = _make_history(sysbench_space, "SEATS", n=6, seed=5)
        assert sysbench_space.validate(opt.suggest(history))
        assert opt.mapped_workload_ is None


class TestFineTune:
    def test_pretrain_returns_agent_and_repo(self, sysbench_space):
        agent, repository = pretrain_ddpg(
            sysbench_space, ["Voter"], iterations_per_source=12, seed=0
        )
        assert len(repository) == 1
        assert agent.action_dim == sysbench_space.n_dims

    def test_fine_tuned_agent_reuses_weights(self, sysbench_space):
        agent, __ = pretrain_ddpg(sysbench_space, ["Voter"], iterations_per_source=8, seed=0)
        tuned = fine_tuned_ddpg(sysbench_space, agent, seed=1)
        state = np.zeros(agent.state_dim)
        np.testing.assert_allclose(
            tuned.agent.act(state), agent.act(state), atol=1e-12
        )
        assert len(tuned.agent.buffer) == 0  # buffer cleared

    def test_fine_tuned_runs_session(self, sysbench_space):
        agent, __ = pretrain_ddpg(sysbench_space, ["Voter"], iterations_per_source=8, seed=0)
        opt = fine_tuned_ddpg(sysbench_space, agent, seed=1)
        server = MySQLServer("TPC-C", "B", seed=3)
        session = TuningSession(
            DatabaseObjective(server, sysbench_space), opt, sysbench_space,
            max_iterations=8, n_initial=4, seed=3,
        )
        history = session.run()
        assert len(history) == 8
