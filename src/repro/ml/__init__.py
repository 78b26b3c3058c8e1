"""From-scratch machine-learning substrate.

The offline environment provides only numpy/scipy, so every model the paper
relies on (scikit-learn regressors, the fANOVA/SHAP libraries' internals,
BoTorch GPs, PyTorch networks) is implemented here from first principles:

- :mod:`repro.ml.preprocessing` — standardization and polynomial features,
- :mod:`repro.ml.metrics` — regression and set-similarity metrics,
- :mod:`repro.ml.model_selection` — the K-fold splitter,
- :mod:`repro.ml.linear` — Ridge / coordinate-descent Lasso,
- :mod:`repro.ml.tree` — CART regression trees,
- :mod:`repro.ml.forest` — random forests with predictive variance,
- :mod:`repro.ml.boosting` — gradient-boosted trees,
- :mod:`repro.ml.neighbors` — k-nearest-neighbour regression,
- :mod:`repro.ml.svm` — epsilon-SVR / NuSVR (kernelized dual ascent),
- :mod:`repro.ml.kernels` + :mod:`repro.ml.gp` — Gaussian processes,
- :mod:`repro.ml.neural` — MLPs with Adam (DDPG actor/critic substrate).
"""

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.gp import GaussianProcessRegressor
from repro.ml.kernels import (
    ConstantKernel,
    HammingKernel,
    Matern52Kernel,
    MixedKernel,
    ProductKernel,
    RBFKernel,
)
from repro.ml.linear import LassoRegression, RidgeRegression
from repro.ml.metrics import mean_squared_error, r2_score, root_mean_squared_error
from repro.ml.model_selection import KFold
from repro.ml.neighbors import KNNRegressor
from repro.ml.neural import MLP, Adam, DenseLayer
from repro.ml.preprocessing import PolynomialFeatures, StandardScaler
from repro.ml.svm import EpsilonSVR, NuSVR
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "Adam",
    "ConstantKernel",
    "DecisionTreeRegressor",
    "DenseLayer",
    "EpsilonSVR",
    "GaussianProcessRegressor",
    "GradientBoostingRegressor",
    "HammingKernel",
    "KFold",
    "KNNRegressor",
    "LassoRegression",
    "MLP",
    "Matern52Kernel",
    "MixedKernel",
    "NuSVR",
    "PolynomialFeatures",
    "ProductKernel",
    "RBFKernel",
    "RandomForestRegressor",
    "RidgeRegression",
    "StandardScaler",
    "mean_squared_error",
    "r2_score",
    "root_mean_squared_error",
]
