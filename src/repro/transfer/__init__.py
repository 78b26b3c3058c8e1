"""Knowledge transfer across tuning tasks (paper §3.3, §7).

Three frameworks:

- **workload mapping** (OtterTune): match the target workload to the most
  similar historical one by internal-metric distance and merge its
  observations into the surrogate's training set
  (:mod:`repro.transfer.mapping`);
- **RGPE** (ResTune): a ranking-weighted ensemble of per-task base
  surrogates whose weights adapt as target observations accumulate,
  avoiding negative transfer (:mod:`repro.transfer.rgpe`);
- **fine-tuning** (CDBTune/QTune): reuse a DDPG agent pre-trained on
  source workloads (:mod:`repro.transfer.finetune`).

Source knowledge lives in a :class:`TransferRepository` of per-workload
histories with their internal-metric signatures.
"""

from repro.transfer.finetune import fine_tuned_ddpg, pretrain_ddpg
from repro.transfer.mapping import MappedOptimizer
from repro.transfer.repository import SourceTask, TransferRepository
from repro.transfer.rgpe import RGPEMixedKernelBO, RGPESMAC, RGPESurrogate, ranking_loss

__all__ = [
    "MappedOptimizer",
    "RGPEMixedKernelBO",
    "RGPESMAC",
    "RGPESurrogate",
    "SourceTask",
    "TransferRepository",
    "fine_tuned_ddpg",
    "pretrain_ddpg",
    "ranking_loss",
]
