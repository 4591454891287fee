"""Shared fixtures and dataset builders for the test suite."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from nested_dichotomies.data import AttributeSpec, Dataset, FeatureEncoder, parse_arff

DATASETS_DIR = Path(__file__).resolve().parents[1] / "datasets"

_cache: dict[str, Dataset] = {}


def load_uci(name: str) -> Dataset:
    """Load (and cache) one of the bundled UCI ARFF files."""
    if name not in _cache:
        path = DATASETS_DIR / f"{name}.arff"
        if not path.exists():
            pytest.fail(
                f"dataset file {path} is missing; run tools/fetch_datasets.py "
                f"or restore the datasets/ directory"
            )
        _cache[name] = parse_arff(path.read_text())
    return _cache[name]


def gaussian_dataset(
    centers,
    per_class: int = 30,
    spread: float = 0.5,
    seed: int = 0,
    class_names=None,
) -> Dataset:
    """Numeric dataset with one spherical Gaussian blob per class."""
    centers = np.asarray(centers, dtype=np.float64)
    n_classes, n_features = centers.shape
    rng = np.random.default_rng(seed)
    rows = []
    for c, center in enumerate(centers):
        points = rng.normal(center, spread, size=(per_class, n_features))
        rows.append(np.column_stack([points, np.full(per_class, float(c))]))
    values = np.vstack(rows)
    if class_names is None:
        class_names = tuple(f"c{i}" for i in range(n_classes))
    attrs = [AttributeSpec(f"x{j}") for j in range(n_features)]
    attrs.append(AttributeSpec("class", tuple(class_names)))
    return Dataset(attrs, values, class_attribute=n_features)


def simple_dataset(xs, labels, class_names=("a", "b")) -> Dataset:
    """1-D two-class dataset from parallel lists."""
    values = np.column_stack([np.asarray(xs, dtype=float), np.asarray(labels, float)])
    attrs = [AttributeSpec("x"), AttributeSpec("class", tuple(class_names))]
    return Dataset(attrs, values, class_attribute=1)


def structure(node):
    """Hashable, model-free identity of the split structure under ``node``:
    a leaf's class index, or the frozenset of its two children's."""
    if node.is_leaf:
        return node.class_subset[0]
    return frozenset((structure(node.left), structure(node.right)))


def _quote_if_needed(name: str) -> str:
    """``name`` as an ARFF token: bare when it can be, else in whichever
    quote character it does not contain."""
    if name and not any(c in name for c in " ,{}%'\"\t"):
        return name
    quote = "'" if "'" not in name else '"'
    if quote in name:
        raise ValueError(f"cannot write {name!r} in ARFF: it holds both quote characters")
    return quote + name + quote


def serialize_arff(d: Dataset, relation: str = "dataset") -> str:
    """Inverse of parse_arff on attribute structure and instance values."""
    out = [f"@relation {_quote_if_needed(relation)}"]
    for spec in d.attributes:
        if spec.is_nominal:
            vals = ",".join(_quote_if_needed(v) for v in spec.values)
            out.append(f"@attribute {_quote_if_needed(spec.name)} {{{vals}}}")
        else:
            out.append(f"@attribute {_quote_if_needed(spec.name)} numeric")
    out.append("@data")
    for i in range(d.n_instances):
        cells = []
        for j, spec in enumerate(d.attributes):
            v = d.values[i, j]
            if spec.is_nominal:
                cells.append(_quote_if_needed(spec.values[int(v)]))
            else:
                cells.append(repr(float(v)))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


@st.composite
def small_datasets(draw, class_ids, n_classes: int) -> Dataset:
    """1-5 rows of each class in ``class_ids`` (out of ``n_classes``
    declared labels) over two numeric attributes of small integers, so
    that tied values and duplicate rows are common."""
    labels = [c for c in class_ids for _ in range(draw(st.integers(1, 5)))]
    n = len(labels)
    cells = draw(st.lists(st.integers(-3, 3), min_size=2 * n, max_size=2 * n))
    values = np.column_stack([np.reshape(cells, (n, 2)), labels]).astype(float)
    attrs = [AttributeSpec("x0"), AttributeSpec("x1")]
    attrs.append(AttributeSpec("class", tuple(f"c{i}" for i in range(n_classes))))
    return Dataset(attrs, values, class_attribute=2)


@pytest.fixture(scope="session")
def zoo() -> Dataset:
    return load_uci("zoo")


@pytest.fixture(scope="session")
def glass() -> Dataset:
    return load_uci("glass")


@pytest.fixture(scope="session")
def vowel() -> Dataset:
    return load_uci("vowel")


@pytest.fixture()
def layouts_built(monkeypatch):
    """Every :class:`FeatureEncoder` constructed while the test runs, in
    order."""
    made = []
    init = FeatureEncoder.__init__

    def recording(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FeatureEncoder, "__init__", recording)
    return made


def _recorded(monkeypatch, name):
    """The row count of every call of ``FeatureEncoder.<name>`` while the
    test runs, in order."""
    calls = []
    method = getattr(FeatureEncoder, name)

    def recording(self, rows):
        calls.append(np.atleast_2d(rows).shape[0])
        return method(self, rows)

    monkeypatch.setattr(FeatureEncoder, name, recording)
    return calls


@pytest.fixture()
def encodes(monkeypatch):
    """Rows of each ``FeatureEncoder.encode`` call, in order."""
    return _recorded(monkeypatch, "encode")


@pytest.fixture()
def checks(monkeypatch):
    """Rows of each ``FeatureEncoder.check`` call (``encode`` makes one
    too), in order."""
    return _recorded(monkeypatch, "check")
