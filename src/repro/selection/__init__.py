"""Knob selection: importance measurements and incremental heuristics.

The paper's Table 2 taxonomy:

=====================  ================  ===============================
Measurement            Category          Module
=====================  ================  ===============================
Lasso (OtterTune)      variance-based    :mod:`repro.selection.lasso`
Gini score (Tuneful)   variance-based    :mod:`repro.selection.gini`
fANOVA (HPO)           variance-based    :mod:`repro.selection.fanova`
Ablation analysis      tunability-based  :mod:`repro.selection.ablation`
SHAP                   tunability-based  :mod:`repro.selection.shap`
=====================  ================  ===============================

Gini, fANOVA, ablation and SHAP read their scores off a random-forest
surrogate of the unit-encoded pool, fitted once per ranking by
:class:`~repro.selection.base.ForestMeasurement`; each declares only its
forest's shape and its scoring rule.  Ablation and SHAP walk their
default-to-target paths on unit rows.  Lasso fits its regression on the
one-hot expansion of the same encoded rows.

Plus the two incremental space-sizing heuristics: increasing the knob
count (OtterTune) and decreasing it (Tuneful), in
:mod:`repro.selection.incremental`.
"""

from repro.selection.ablation import AblationImportance
from repro.selection.base import ImportanceMeasurement, ImportanceResult, collect_samples
from repro.selection.fanova import FanovaImportance
from repro.selection.gini import GiniImportance
from repro.selection.lasso import LassoImportance
from repro.selection.incremental import (
    DecrementalTuner,
    IncrementalTuner,
)
from repro.selection.shap import ShapImportance

MEASUREMENT_REGISTRY = {
    "lasso": LassoImportance,
    "gini": GiniImportance,
    "fanova": FanovaImportance,
    "ablation": AblationImportance,
    "shap": ShapImportance,
}

__all__ = [
    "AblationImportance",
    "DecrementalTuner",
    "FanovaImportance",
    "GiniImportance",
    "ImportanceMeasurement",
    "ImportanceResult",
    "IncrementalTuner",
    "LassoImportance",
    "MEASUREMENT_REGISTRY",
    "ShapImportance",
    "collect_samples",
]
