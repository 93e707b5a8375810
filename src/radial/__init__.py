"""Bias-corrected local regression classifiers with radial designs.

Local label-probability estimators (kernel smoother, k-NN, local
polynomial and multiscale variants, and local radial regression with
squared or logistic loss), distance metrics for fixed- and variable-length
covariates, plus benchmark, theory-verification, and walk-forward
backtesting harnesses.
"""

from .core import (
    Dataset,
    NeighborProfile,
    as_covariate,
    dtw,
    euclidean,
    get_metric,
    idtw,
    profile,
    strict_floor,
)
from .estimators import (
    Boxcar,
    ConstantOne,
    Estimate,
    EstimatorSpec,
    InverseRadius,
    NearestCount,
    classify,
    kernel_smoother,
    knn,
    lpolr,
    lpor,
    lrr,
    msknn,
)
from .localfit import MultivariatePoly, RadialPoly

__version__ = "0.1.0"

__all__ = [
    "Boxcar",
    "ConstantOne",
    "Dataset",
    "Estimate",
    "EstimatorSpec",
    "InverseRadius",
    "MultivariatePoly",
    "NearestCount",
    "NeighborProfile",
    "RadialPoly",
    "as_covariate",
    "classify",
    "dtw",
    "euclidean",
    "get_metric",
    "idtw",
    "kernel_smoother",
    "knn",
    "lpolr",
    "lpor",
    "lrr",
    "msknn",
    "profile",
    "strict_floor",
]
