"""Configuration optimizers (paper §3.2, Table 3).

Seven optimizers share one interface (:class:`~repro.optimizers.base.Optimizer`):

====================  =========================  ============================
Optimizer             Surrogate / mechanism      Origin
====================  =========================  ============================
:class:`VanillaBO`    GP with RBF kernel + EI    iTuned / OtterTune
:class:`MixedKernelBO`  GP Matérn x Hamming + EI  OpenBox / RoBO
:class:`SMAC`         random forest + EI         Hutter et al., 2011
:class:`TPE`          per-dim Parzen estimators  Bergstra et al., 2011
:class:`TuRBO`        trust-region local GPs     Eriksson et al., 2019
:class:`DDPG`         actor-critic RL            CDBTune / QTune
:class:`GA`           genetic algorithm          classic meta-heuristic
====================  =========================  ============================

All optimizers *maximize* the observation ``score`` (tuning sessions negate
latency objectives), work over one :class:`~repro.space.ConfigurationSpace`,
and consume the shared :class:`~repro.optimizers.base.History`.
"""

from repro.optimizers.acquisitions import expected_improvement
from repro.optimizers.base import History, Observation, Optimizer
from repro.optimizers.bo import MixedKernelBO, VanillaBO
from repro.optimizers.ddpg import DDPG, DDPGAgent
from repro.optimizers.ga import GA
from repro.optimizers.random_search import LHSOptimizer, RandomSearch
from repro.optimizers.smac import SMAC
from repro.optimizers.tpe import TPE
from repro.optimizers.turbo import TuRBO

OPTIMIZER_REGISTRY = {
    "vanilla_bo": VanillaBO,
    "mixed_kernel_bo": MixedKernelBO,
    "smac": SMAC,
    "tpe": TPE,
    "turbo": TuRBO,
    "ddpg": DDPG,
    "ga": GA,
    "random": RandomSearch,
    "lhs": LHSOptimizer,
}

__all__ = [
    "DDPG",
    "DDPGAgent",
    "GA",
    "History",
    "LHSOptimizer",
    "MixedKernelBO",
    "OPTIMIZER_REGISTRY",
    "Observation",
    "Optimizer",
    "RandomSearch",
    "SMAC",
    "TPE",
    "TuRBO",
    "VanillaBO",
    "expected_improvement",
]
