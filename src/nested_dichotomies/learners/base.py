"""Shared learner machinery: numeric feature encoding and the two-class
probabilistic model interface used at every dichotomy node."""

from __future__ import annotations

import operator

import numpy as np

from ..data import Dataset, Instance
from ..errors import EncodingMismatch, InvalidParam, SingleClass


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


def _check_width(rows: np.ndarray, n_attributes: int) -> None:
    """Raise :class:`EncodingMismatch` unless each row of the 2-D ``rows``
    holds ``n_attributes`` values."""
    if rows.shape[1] != n_attributes:
        raise EncodingMismatch(f"expected {n_attributes} attribute values, got {rows.shape[1]}")


class RowCheck:
    """The check of the rows that a learner encodes or predicts: each row
    holds one value per attribute, every feature value is finite, and each
    nominal feature holds one of its declared value indices.  The class
    column is not checked.  Calling it raises :class:`EncodingMismatch`, or
    returns the nominal features' value indices, one column per feature in
    attribute order."""

    __slots__ = ("n_attributes", "class_attribute", "_nominal", "_counts")

    def __init__(self, attributes, class_attribute: int):
        self.n_attributes = len(attributes)
        self.class_attribute = class_attribute
        nominal = [
            j for j, spec in enumerate(attributes) if spec.is_nominal and j != class_attribute
        ]
        self._nominal = np.array(nominal, dtype=np.intp)
        self._counts = np.array([len(attributes[j].values) for j in nominal], dtype=np.float64)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        _check_width(rows, self.n_attributes)
        if not np.isfinite(rows).all():
            bad = ~np.isfinite(rows).all(axis=0)
            bad[self.class_attribute] = False
            if bad.any():
                raise EncodingMismatch(f"non-finite value in column {int(np.argmax(bad))}")
        if not self._nominal.size:
            return np.empty((rows.shape[0], 0), dtype=np.intp)
        v = rows[:, self._nominal]
        # in range first, so that the cast cannot overflow
        ok = (v >= 0) & (v < self._counts)
        if ok.all():
            idx = v.astype(np.intp)
            ok = idx == v
            if ok.all():
                return idx
        column = int(self._nominal[np.argmin(ok.all(axis=0))])
        raise EncodingMismatch(f"undeclared nominal value in column {column}")


class FeatureEncoder:
    """Maps raw attribute rows to a numeric feature matrix.

    Numeric attributes pass through; nominal attributes become one
    indicator column per declared value.  The class attribute is skipped.
    Built from attribute declarations only, so the same encoder applies to
    any subset of the data.
    """

    __slots__ = ("n_attributes", "feature_names", "_check", "_numeric", "_offsets", "n_features")

    def __init__(self, attributes, class_attribute: int):
        self.n_attributes = len(attributes)
        self._check = RowCheck(attributes, class_attribute)
        numeric = []  # [first source column, end, first output column]
        offsets = []  # each nominal feature's first output column
        names = []
        offset = 0
        for j, spec in enumerate(attributes):
            if j == class_attribute:
                continue
            if spec.is_nominal:
                offsets.append(offset)
                names.extend(f"{spec.name}={v}" for v in spec.values)
                offset += len(spec.values)
            else:
                if numeric and numeric[-1][1] == j:  # extends the run before it
                    numeric[-1][1] = j + 1
                else:
                    numeric.append([j, j + 1, offset])
                names.append(spec.name)
                offset += 1
        # each run of consecutive numeric columns is copied as one block
        self._numeric = tuple(map(tuple, numeric))
        self._offsets = np.array(offsets, dtype=np.intp)
        self.n_features = offset
        self.feature_names = tuple(names)

    def encode(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        idx = self._check(rows)
        n = rows.shape[0]
        out = np.zeros((n, self.n_features))
        for src, end, offset in self._numeric:
            out[:, offset : offset + end - src] = rows[:, src:end]
        if self._offsets.size:
            # every nominal feature's indicator in one assignment
            out[np.arange(n)[:, None], self._offsets + idx] = 1.0
        return out


def _as_rows(x) -> np.ndarray:
    """Accept an Instance, a 1-D value vector, or a stack of rows."""
    if isinstance(x, Instance):
        x = x.values
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


class BinaryModel:
    """A trained two-class model exposing P(first class | x).

    The two probabilities always sum to one exactly: callers take the
    complement for the second class.
    """

    kind = "abstract"

    #: original class indices (first, second) this model discriminates
    class_pair: tuple[int, int] = (0, 1)
    n_attributes: int = 0

    def predict_prob_batch(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_prob(self, x) -> float:
        return float(self.predict_prob_batch(_as_rows(x))[0])

    def to_lines(self) -> list[str]:
        raise NotImplementedError


class ConstantModel(BinaryModel):
    """Fallback node model when one side of a split has no training data:
    outputs the empirical prior of the first side (0.5 when the node had
    no data at all)."""

    kind = "constant"

    def __init__(self, p_first: float, n_attributes: int, class_pair=(0, 1)):
        if not 0.0 <= p_first <= 1.0:
            raise ValueError("probability out of range")
        self.p_first = float(p_first)
        self.n_attributes = n_attributes
        self.class_pair = tuple(class_pair)

    def predict_prob_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(rows)
        _check_width(rows, self.n_attributes)
        return np.full(rows.shape[0], self.p_first)

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
