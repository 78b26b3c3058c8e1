"""Random and Latin-Hypercube baselines."""

from __future__ import annotations

from repro.optimizers.base import History, Optimizer
from repro.space import Configuration, ConfigurationSpace
from repro.space.sampling import latin_hypercube


class RandomSearch(Optimizer):
    """Uniform random sampling over the space."""

    name = "random"
    uses_lhs_init = False

    def suggest(self, history: History) -> Configuration:
        return self._dedupe(self._random_config(), history)


class LHSOptimizer(Optimizer):
    """Stratified sampling: pre-draws LHS batches and replays them.

    The registry's ``lhs`` optimizer (``repro tune --optimizer lhs``), a
    model-free baseline.  Session initialization and the offline sample
    pools draw from :class:`~repro.space.LatinHypercubeSampler` directly
    (``TuningSession`` and ``collect_samples``), not through this class.
    """

    name = "lhs"
    uses_lhs_init = False

    def __init__(
        self, space: ConfigurationSpace, seed: int | None = None, batch_size: int = 64
    ) -> None:
        super().__init__(space, seed)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._queue: list[Configuration] = []

    def suggest(self, history: History) -> Configuration:
        if not self._queue:
            design = latin_hypercube(self.batch_size, self.space.n_dims, self.rng)
            self._queue = [self.space.decode(row) for row in design]
        return self._queue.pop()
