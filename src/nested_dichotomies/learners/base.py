"""Shared learner machinery: option checks and the two-class
probabilistic model interface used at every dichotomy node.  Rows are
checked and encoded by the dataset's layout, :class:`FeatureEncoder`,
through a :class:`Batch`, so that the node models of one prediction
check and encode its rows once between them."""

from __future__ import annotations

import operator

import numpy as np

from ..data import Batch, Dataset, FeatureEncoder
from ..errors import InvalidParam, SingleClass


def check_count(field: str, value, minimum: int) -> None:
    """Raise :class:`InvalidParam` for ``field`` unless ``value`` is an
    integer of at least ``minimum``: what ``operator.index`` takes, bools
    aside."""
    if isinstance(value, bool):
        raise InvalidParam(field, "must be an integer")
    try:
        operator.index(value)
    except TypeError:
        raise InvalidParam(field, "must be an integer") from None
    if value < minimum:
        raise InvalidParam(field, f"must be >= {minimum}")


class BinaryModel:
    """A trained two-class model exposing P(first class | x).

    The two probabilities always sum to one exactly: callers take the
    complement for the second class.
    """

    kind = "abstract"

    #: original class indices (first, second) this model discriminates
    class_pair: tuple[int, int] = (0, 1)

    def predict_prob_batch(self, rows) -> np.ndarray:
        """P(first class) for each of ``rows``: one row, a 2-D array or a
        :class:`Batch` shared with other node models."""
        raise NotImplementedError

    def to_lines(self) -> list[str]:
        raise NotImplementedError


class ConstantModel(BinaryModel):
    """Fallback node model when one side of a split has no training data:
    outputs the empirical prior of the first side (0.5 when the node had
    no data at all)."""

    kind = "constant"

    def __init__(self, p_first: float, layout: FeatureEncoder):
        if not 0.0 <= p_first <= 1.0:
            raise ValueError("probability out of range")
        self.p_first = float(p_first)
        self.layout = layout

    def predict_prob_batch(self, rows) -> np.ndarray:
        return np.full(len(Batch.of(rows).checked(self.layout)), self.p_first)

    def to_lines(self) -> list[str]:
        return [f"constant p_first={self.p_first!r}"]


def binary_class_info(d: Dataset) -> tuple[int, int, np.ndarray]:
    """Validate that exactly two classes are present and return
    (first, second, target) where target is 1.0 for the first class.

    The "first" class is the one with the lower class index; it is the
    side whose probability the fitted model reports.
    """
    present = d.classes_present()
    if len(present) < 2:
        raise SingleClass(
            f"need 2 classes, found {len(present)} in {d.n_instances} instances"
        )
    if len(present) > 2:
        raise ValueError(f"binary learner got {len(present)} classes")
    lo, hi = present
    target = (d.class_indices() == lo).astype(np.float64)
    return int(lo), int(hi), target
