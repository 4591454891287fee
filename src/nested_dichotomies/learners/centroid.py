"""Nearest-centroid multi-class classifier.

A deliberately simple diagnostic: per-class mean vectors in the one-hot
numeric encoding, classification by smallest Euclidean distance with ties
going to the lowest class index.  Used to examine how informative raw
class centroids are on a given dataset.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from ..errors import EmptyClass
from .base import FeatureEncoder, _as_rows


class CentroidModel:
    def __init__(self, centroids, class_ids, encoder, n_classes):
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.class_ids = tuple(class_ids)
        self.encoder = encoder
        self.n_classes = n_classes

    def predict_batch(self, rows) -> np.ndarray:
        X = self.encoder.encode(_as_rows(rows))
        d2 = ((X[:, None, :] - self.centroids[None, :, :]) ** 2).sum(axis=2)
        picks = np.argmin(d2, axis=1)  # argmin takes the first = lowest index
        return np.asarray(self.class_ids, dtype=np.intp)[picks]

    def predict(self, x) -> int:
        return int(self.predict_batch(x)[0])


def class_means(d: Dataset, class_ids) -> tuple[FeatureEncoder, dict[int, np.ndarray]]:
    """The encoder of ``d`` and the weighted mean encoded row of each class
    in ``class_ids`` that has instances in ``d``; classes without
    instances are left out."""
    encoder = FeatureEncoder(d.attributes, d.class_attribute)
    X = encoder.encode(d.values)
    y = d.class_indices()
    w = d.weights
    means = {}
    for c in class_ids:
        mask = y == c
        total = w[mask].sum()
        if total > 0:
            means[c] = (w[mask] @ X[mask]) / total
    return encoder, means


def fit_centroids(d: Dataset) -> CentroidModel:
    """Weighted per-class mean vectors; every declared class must be
    present."""
    encoder, means = class_means(d, range(d.n_classes))
    for c in range(d.n_classes):
        if c not in means:
            raise EmptyClass(f"class {d.class_names[c]!r} has no instances")
    centroids = [means[c] for c in range(d.n_classes)]
    return CentroidModel(centroids, range(d.n_classes), encoder, d.n_classes)


def centroid_confusion(m: CentroidModel, d: Dataset) -> np.ndarray:
    """Confusion matrix of the centroid classifier on ``d``:
    rows are true classes, columns predicted, entries weighted counts."""
    pred = m.predict_batch(d.values)
    y = d.class_indices()
    confusion = np.zeros((m.n_classes, m.n_classes))
    np.add.at(confusion, (y, pred), d.weights)
    return confusion
