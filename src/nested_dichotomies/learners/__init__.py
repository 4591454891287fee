"""Binary base learners for dichotomy nodes, plus the centroid diagnostic."""

from __future__ import annotations

from ..data import Dataset
from .base import BinaryModel, ConstantModel, FeatureEncoder
from .centroid import CentroidModel, centroid_confusion, fit_centroids
from .logistic import LogisticParams, LogisticModel, fit_logistic
from .tree import TreeParams, TreeModel, fit_tree

LearnerParams = LogisticParams | TreeParams


def fit_binary_model(d: Dataset, params: LearnerParams) -> BinaryModel:
    """Train the learner selected by the params type on two-class data."""
    if isinstance(params, LogisticParams):
        return fit_logistic(d, params)
    if isinstance(params, TreeParams):
        return fit_tree(d, params)
    raise TypeError(f"unknown learner params: {type(params).__name__}")


__all__ = [
    "BinaryModel",
    "CentroidModel",
    "ConstantModel",
    "FeatureEncoder",
    "LearnerParams",
    "LogisticModel",
    "LogisticParams",
    "TreeModel",
    "TreeParams",
    "centroid_confusion",
    "fit_binary_model",
    "fit_centroids",
    "fit_logistic",
    "fit_tree",
]
