"""Behavioural tests for all seven optimizers on synthetic objectives."""

import numpy as np
import pytest

from repro.optimizers import (
    DDPG,
    GA,
    LHSOptimizer,
    OPTIMIZER_REGISTRY,
    RandomSearch,
    SMAC,
    TPE,
    TuRBO,
    MixedKernelBO,
    VanillaBO,
)
from repro.dbms.catalog import mysql_knob_space
from repro.optimizers.base import History, Observation
from repro.optimizers.ddpg import DDPGAgent, cdbtune_reward
from repro.space import (
    CategoricalKnob,
    Configuration,
    ConfigurationSpace,
    ContinuousKnob,
    IntegerKnob,
)
from repro.space.sampling import scrambled_sobol_like

ALL_NAMES = ["vanilla_bo", "mixed_kernel_bo", "smac", "tpe", "turbo", "ddpg", "ga", "random"]


@pytest.fixture
def cont_space():
    return ConfigurationSpace(
        [ContinuousKnob(f"x{i}", 0.0, 1.0, 0.5) for i in range(3)], seed=0
    )


@pytest.fixture
def mixed_space():
    return ConfigurationSpace(
        [
            ContinuousKnob("x", 0.0, 1.0, 0.5),
            ContinuousKnob("y", 0.0, 1.0, 0.5),
            CategoricalKnob("m", ["bad", "good", "worse"], "bad"),
        ],
        seed=0,
    )


def synthetic_objective(config) -> float:
    """Smooth unimodal function with a categorical bonus."""
    score = -((config["x"] - 0.7) ** 2) - (config["y"] - 0.3) ** 2
    bonus = {"bad": 0.0, "good": 0.3, "worse": -0.3}[config["m"]]
    return score + bonus


def drive(optimizer, space, objective, n_iters=35, seed=0):
    """Minimal session loop without the tuning package."""
    rng = np.random.default_rng(seed)
    history = History(space)
    for i in range(n_iters):
        if i < 5:
            config = space.sample_configuration(rng)
        else:
            config = optimizer.suggest(history)
        obs = Observation(config=config, objective=objective(config), score=objective(config))
        history.append(obs)
        optimizer.observe(obs)
    return history


@pytest.mark.parametrize("name", ALL_NAMES)
class TestAllOptimizers:
    def test_suggest_returns_valid_config(self, name, mixed_space):
        opt = OPTIMIZER_REGISTRY[name](mixed_space, seed=0)
        history = drive(opt, mixed_space, synthetic_objective, n_iters=8)
        config = opt.suggest(history)
        assert mixed_space.validate(config)

    def test_suggest_on_empty_history(self, name, mixed_space):
        opt = OPTIMIZER_REGISTRY[name](mixed_space, seed=0)
        config = opt.suggest(History(mixed_space))
        assert mixed_space.validate(config)

    def test_seeded_determinism(self, name, mixed_space):
        h1 = drive(OPTIMIZER_REGISTRY[name](mixed_space, seed=3), mixed_space, synthetic_objective, 15, seed=1)
        h2 = drive(OPTIMIZER_REGISTRY[name](mixed_space, seed=3), mixed_space, synthetic_objective, 15, seed=1)
        assert h1.configs() == h2.configs()


@pytest.mark.parametrize("name", ["vanilla_bo", "mixed_kernel_bo", "smac", "tpe", "turbo", "ga"])
def test_model_based_beats_random(name, mixed_space):
    """Each adaptive optimizer should out-optimize random search."""
    adaptive = drive(
        OPTIMIZER_REGISTRY[name](mixed_space, seed=0), mixed_space, synthetic_objective, 45
    )
    random = drive(RandomSearch(mixed_space, seed=0), mixed_space, synthetic_objective, 45)
    assert adaptive.best().score >= random.best().score - 0.05


class TestBO:
    def test_mixed_kernel_handles_categorical_better(self, mixed_space):
        """Mixed-kernel BO should reach the 'good' category reliably."""
        h = drive(MixedKernelBO(mixed_space, seed=1), mixed_space, synthetic_objective, 40)
        assert h.best().config["m"] == "good"

    def test_vanilla_bo_finds_continuous_optimum(self, cont_space):
        objective = lambda c: -sum((c[f"x{i}"] - 0.5) ** 2 for i in range(3))  # noqa: E731
        h = drive(VanillaBO(cont_space, seed=0), cont_space, objective, 40)
        assert h.best().score > -0.02


class TestSMAC:
    def test_random_interleave_probability(self, mixed_space):
        opt = SMAC(mixed_space, seed=0, random_interleave_prob=1.0)
        # with interleave 1.0 every suggestion is random yet still valid
        history = drive(opt, mixed_space, synthetic_objective, 12)
        assert len(history) == 12

    def test_invalid_interleave(self, mixed_space):
        with pytest.raises(ValueError):
            SMAC(mixed_space, random_interleave_prob=1.5)


class TestTPE:
    def test_gamma_validation(self, mixed_space):
        with pytest.raises(ValueError):
            TPE(mixed_space, gamma=0.0)

    def test_learns_good_region(self, cont_space):
        objective = lambda c: -abs(c["x0"] - 0.8)  # noqa: E731
        h = drive(TPE(cont_space, seed=0), cont_space, objective, 60)
        assert abs(h.best().config["x0"] - 0.8) < 0.15


class TestTuRBO:
    def test_trust_regions_restart_on_collapse(self, cont_space):
        opt = TuRBO(cont_space, seed=0, n_regions=2)
        drive(opt, cont_space, lambda c: c["x0"], 30)
        assert all(not r.collapsed for r in opt._regions)

    def test_region_length_adapts(self, cont_space):
        opt = TuRBO(cont_space, seed=0, n_regions=1, init_length=0.4)
        drive(opt, cont_space, lambda c: c["x0"], 40)
        # the region must have moved its center or changed its length
        region = opt._regions[0]
        assert region.best_score > float("-inf")

    def test_invalid_regions(self, cont_space):
        with pytest.raises(ValueError):
            TuRBO(cont_space, n_regions=0)


class _ReferenceGA(GA):
    """GA with the array-based mutation loop, as a bit-identity reference."""

    def _mutate(self, genome):
        out = genome.copy()
        cat = self.space.categorical_mask
        for j in range(len(out)):
            if self.rng.random() >= self.mutation_prob:
                continue
            if cat[j]:
                out[j] = self.rng.random()
            else:
                out[j] = float(np.clip(out[j] + self.rng.normal(0.0, self.mutation_sigma), 0.0, 1.0))
        return out


def _ga_trajectory(cls, space, mutation_prob, n_generations=6):
    """Suggestion reprs, queued and pending genomes, and the final RNG state."""
    opt = cls(space, seed=5, mutation_prob=mutation_prob)
    history = History(space)
    trajectory = []
    for _ in range(opt.population_size * n_generations):
        config = opt.suggest(history)
        trajectory.append(
            (
                repr(config),
                [g.tobytes() for g in opt._queue],
                [g.tobytes() for g in opt._pending.values()],
            )
        )
        score = float(np.sin(7.0 * space.encode(config)).sum())
        opt.observe(Observation(config=config, objective=score, score=score))
    assert opt.generation >= 5
    return trajectory, opt.rng.bit_generator.state


def _categorical_heavy_space():
    knobs = [
        CategoricalKnob(f"c{i}", [f"v{j}" for j in range(2 + i % 5)], "v0") for i in range(12)
    ]
    knobs += [ContinuousKnob("x", 0.0, 1.0, 0.5), IntegerKnob("n", 1, 4096, 64, log=True)]
    return ConfigurationSpace(knobs, seed=0)


class TestGA:
    @pytest.mark.parametrize(
        "space_name, mutation_prob",
        [("mysql", 0.1), ("mysql", 0.5), ("categorical", 0.1), ("categorical", 0.5)],
    )
    def test_mutation_matches_the_array_reference(self, mysql_space, space_name, mutation_prob):
        space = mysql_space if space_name == "mysql" else _categorical_heavy_space()
        assert _ga_trajectory(GA, space, mutation_prob) == _ga_trajectory(
            _ReferenceGA, space, mutation_prob
        )

    def test_population_cycles_generations(self, cont_space):
        opt = GA(cont_space, seed=0, population_size=6)
        drive(opt, cont_space, lambda c: c["x0"], 30)
        assert opt.generation >= 2

    def test_param_validation(self, cont_space):
        with pytest.raises(ValueError):
            GA(cont_space, population_size=2)
        with pytest.raises(ValueError):
            GA(cont_space, population_size=6, n_elites=6)


class TestDDPG:
    def test_reward_shapes(self):
        assert cdbtune_reward(2.0, 1.0, 1.0) > 0
        assert cdbtune_reward(0.5, 1.0, 1.0) < 0
        # improving twice as much from start earns superlinear reward
        small = cdbtune_reward(1.1, 1.0, 1.0)
        big = cdbtune_reward(2.0, 1.0, 1.0)
        assert big > 2 * small

    def test_agent_weight_roundtrip(self):
        agent = DDPGAgent(action_dim=4, seed=0)
        weights = agent.get_weights()
        other = DDPGAgent(action_dim=4, seed=1)
        other.set_weights(weights)
        state = np.zeros(agent.state_dim)
        np.testing.assert_array_equal(agent.act(state), other.act(state))

    def test_agent_action_dim_mismatch(self, cont_space):
        agent = DDPGAgent(action_dim=7, seed=0)
        with pytest.raises(ValueError):
            DDPG(cont_space, agent=agent)

    def test_training_updates_networks(self, cont_space):
        opt = DDPG(cont_space, seed=0, train_steps_per_observation=2)
        before = [w.copy() for w in opt.agent.actor.get_weights()]
        drive(opt, cont_space, lambda c: c["x0"], 60)
        after = opt.agent.actor.get_weights()
        assert any(not np.array_equal(a, b) for a, b in zip(before, after))
        assert opt.agent.train_steps > 0

    def test_exploration_noise_decays(self, cont_space):
        opt = DDPG(cont_space, seed=0, noise_initial=0.5, noise_final=0.1, noise_decay_iters=10)
        start = opt._noise_scale()
        drive(opt, cont_space, lambda c: c["x0"], 15)
        assert opt._noise_scale() < start


class TestLHSOptimizer:
    def test_batches_are_valid(self, cont_space):
        opt = LHSOptimizer(cont_space, seed=0, batch_size=8)
        history = History(cont_space)
        configs = [opt.suggest(history) for _ in range(10)]
        assert all(cont_space.validate(c) for c in configs)

    def test_invalid_batch(self, cont_space):
        with pytest.raises(ValueError):
            LHSOptimizer(cont_space, batch_size=0)


def test_dedupe_avoids_repeats(cont_space):
    opt = RandomSearch(cont_space, seed=0)
    history = History(cont_space)
    config = cont_space.default_configuration()
    history.append(Observation(config=config, objective=0.0, score=0.0))
    suggestion = opt._dedupe(config, history)
    assert suggestion != config


def _stacked_pool(opt, history):
    """BO's candidate pool as a list of blocks stacked with ``np.vstack``:
    one ``encode`` per anchor and two ``np.where`` passes per anchor's
    categorical redraw."""
    space, rng, d = opt.space, opt.rng, opt.space.n_dims
    pool = [scrambled_sobol_like(opt.n_candidates, d, rng)]
    succ = sorted(history.successful(), key=lambda o: o.score, reverse=True)
    anchors = [space.encode(o.config) for o in succ[:4]]
    per_anchor = max(1, opt.n_local_candidates // len(anchors))
    for anchor in anchors:
        local = anchor[None, :] + rng.normal(0.0, opt.local_stdev, (per_anchor, d))
        cat = space.categorical_mask
        if cat.any():
            redraw = rng.random((per_anchor, d)) < 0.25
            redraw &= cat[None, :]
            local = np.where(redraw, rng.random((per_anchor, d)), local)
            keep = np.broadcast_to(anchor[cat], (per_anchor, int(cat.sum())))
            local[:, cat] = np.where(redraw[:, cat], local[:, cat], keep)
        pool.append(np.clip(local, 0.0, 1.0))
    return space.snap_many(np.vstack(pool))


def _catalog(numeric_only):
    space = mysql_knob_space("B")
    if numeric_only:
        space = space.subspace([k.name for k in space.knobs if not k.is_categorical])
    return space


@pytest.mark.parametrize("numeric_only", [False, True])
@pytest.mark.parametrize("cls", [VanillaBO, MixedKernelBO])
@pytest.mark.parametrize("n_success", [1, 3, 6])
def test_candidate_pool_equals_stacked_blocks(cls, numeric_only, n_success):
    """The pool built in one array equals the stacked construction byte
    for byte and leaves the optimizer's generator in the same state,
    with one to four anchors and a failed observation among them."""
    space = _catalog(numeric_only)
    rng = np.random.default_rng(7)
    history = History(space)
    for i, config in enumerate(space.sample_configurations(n_success + 1, rng)):
        score = float(rng.normal())
        history.append(Observation(config=config, objective=score, score=score, failed=i == 1))
    fast, ref = cls(space, seed=11), cls(space, seed=11)
    for _ in range(2):
        assert fast._candidate_pool(history).tobytes() == _stacked_pool(ref, history).tobytes()
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
