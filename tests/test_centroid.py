import numpy as np
import pytest

from nested_dichotomies.data import AttributeSpec, Dataset
from nested_dichotomies.selection import _class_means


def test_weighted_centroid():
    attrs = [AttributeSpec("x"), AttributeSpec("c", ("a", "b"))]
    values = np.array([[0.0, 0.0], [3.0, 0.0], [10.0, 1.0]])
    d = Dataset(attrs, values, 1, weights=np.array([1.0, 2.0, 1.0]))
    means = _class_means(d, [0, 1])
    assert means[0][0] == pytest.approx(2.0)  # (0*1 + 3*2) / 3
    assert means[1][0] == pytest.approx(10.0)
