"""The efficient database tuning benchmark via surrogates (paper §8).

Expensive stress tests are replaced by a regression model trained on an
offline (configuration, performance) pool:

- :mod:`repro.surrogate.models` compares the candidate regressors the
  paper evaluates (RF, GB, SVR, NuSVR, KNN, Ridge) by 10-fold CV
  (Table 9);
- :mod:`repro.surrogate.benchmark` packages the winning model as a
  drop-in objective for tuning sessions (Figure 10) and accounts the
  150-311x speedup over replaying workloads.
"""

from repro.surrogate.benchmark import SurrogateBenchmark
from repro.surrogate.models import SURROGATE_MODEL_REGISTRY, compare_surrogate_models

__all__ = [
    "SURROGATE_MODEL_REGISTRY",
    "SurrogateBenchmark",
    "compare_surrogate_models",
]
