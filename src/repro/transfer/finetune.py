"""Fine-tuning a pre-trained DDPG agent (CDBTune/QTune transfer, §3.3).

The agent's networks are pre-trained by running full tuning sessions on
each source workload in turn (the paper pre-trains 300 iterations per
source); the resulting weights seed the target session's agent, which
continues training on target observations with reduced exploration noise.
The paper observes this transfer is unstable: an agent over-fitted to the
sources can be slower to adapt than training from scratch (§7.2).
"""

from __future__ import annotations

import copy

from repro.dbms.server import MySQLServer
from repro.optimizers.ddpg import DDPG, DDPGAgent
from repro.space import ConfigurationSpace
from repro.tuning.objective import DatabaseObjective
from repro.tuning.session import TuningSession
from repro.transfer.repository import SourceTask, TransferRepository


def pretrain_ddpg(
    space: ConfigurationSpace,
    source_workloads: list[str],
    instance: str = "B",
    iterations_per_source: int = 300,
    seed: int | None = None,
) -> tuple[DDPGAgent, TransferRepository]:
    """Pre-train one DDPG agent across source workloads, in turn.

    Returns the trained agent and a :class:`TransferRepository` of the
    training observations — the paper uses the same observations as the
    historical data for workload mapping and RGPE ("for data fairness",
    §7.1).
    """
    agent = DDPGAgent(space.n_dims, seed=seed)
    repository = TransferRepository()
    for k, name in enumerate(source_workloads):
        server = MySQLServer(name, instance, seed=None if seed is None else seed + k)
        objective = DatabaseObjective(server, space)
        optimizer = DDPG(
            space,
            seed=None if seed is None else seed + 100 + k,
            agent=agent,
            noise_initial=0.4,
            noise_final=0.1,
            noise_decay_iters=iterations_per_source,
        )
        session = TuningSession(
            objective,
            optimizer,
            space,
            max_iterations=iterations_per_source,
            n_initial=10,
            seed=None if seed is None else seed + 200 + k,
        )
        history = session.run()
        repository.add(SourceTask(workload_name=name, history=history))
    return agent, repository


def fine_tuned_ddpg(
    space: ConfigurationSpace,
    pretrained: DDPGAgent,
    seed: int | None = None,
    noise_initial: float = 0.15,
) -> DDPG:
    """Build a DDPG optimizer seeded with a pre-trained agent's weights.

    The replay buffer is cleared (source transitions describe other
    workloads' dynamics); network weights and the state normalizer carry
    over, and exploration noise starts low — fine-tuning, not retraining.
    """
    agent = DDPGAgent(
        action_dim=pretrained.action_dim,
        state_dim=pretrained.state_dim,
        seed=seed,
    )
    agent.set_weights(pretrained.get_weights())
    agent.norm = copy.deepcopy(pretrained.norm)
    optimizer = DDPG(
        space,
        seed=seed,
        agent=agent,
        noise_initial=noise_initial,
        noise_final=0.03,
        noise_decay_iters=80,
    )
    optimizer.name = "fine-tune(ddpg)"
    return optimizer
