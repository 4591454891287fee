"""Dataset representation, ARFF/CSV ingestion, folding and resampling.

The supported ARFF subset:

    @relation <name>
    @attribute <name> numeric|real|integer        (optional [lo,hi] range)
    @attribute <name> {v1, v2, ...}
    @data
    v,v,...,v

Keywords are case-insensitive, '%' starts a comment, names and nominal
values may be quoted with single or double quotes.  Sparse rows
(``{i v, ...}``), string and date attributes, missing values (``?``) and
NaN or infinite numbers are rejected.  The class attribute defaults to the
last nominal attribute in declaration order.

Values are held in a float matrix, one row per instance; nominal cells
store the index of the value in the attribute's declared value list.

Each numeric column also has a dense order code: the rank of the value
among the column's distinct values, so codes order and tie exactly as the
values do (``-0.0`` ties ``0.0``).  ``Dataset.codes`` holds them in one
matrix, one column per numeric attribute in attribute order, as
``uint16`` when no numeric column has more than 65,536 distinct values
and ``uint32`` otherwise; ``Dataset.code_values`` holds, per column, the
value each code stands for (its distinct values in ascending order).  A
dataset built from raw values computes them once; the datasets derived
from it (``subset``, ``restrict_to_classes``, ``relabel_binary``,
``with_weights`` and so every split, resample and node dataset) slice
the parent's codes and share its code values instead, so a derived
dataset's codes may skip ranks but never reorder.  Datasets, codes
included, are immutable after construction and safe to share across
threads.

A dataset built from raw values also builds its attribute layout once,
``Dataset.layout``, and the datasets derived from it share that
:class:`FeatureEncoder`.  They share its feature matrix as well, the
layout's encoding of the raw values: it is made on first use, at most
once (a run that fits only trees never makes it), and is read-only.  A
derived dataset keeps, instead of a copy, the index of each of its rows
in that matrix, and ``Dataset.features`` takes its rows from there, so
no fit, centroid or vote re-encodes rows its dataset family already
encoded.  Encoding a row does not depend on the other rows, so these
rows are the bits ``layout.encode(d.values)`` would give.  A derived
dataset keeps the matrix, and the raw values it is made from, alive.
Predictions take rows through a :class:`Batch`, which checks and encodes
them once for every node model they pass.

Values are validated where they enter the program: ``parse_arff``,
``parse_csv`` and ``Dataset(...)`` check every value and weight, the
features by the layout's row check.  A derived dataset is built from rows
sliced or copied from its validated parent and trusts them: nothing is
checked again, except the weights handed to ``with_weights`` and the row
indices handed to ``subset``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateWeights,
    EmptyInput,
    EncodingMismatch,
    InvalidK,
    MissingValue,
    ParseError,
    UnsupportedFeature,
)
from .seeds import rng_from

_NUMERIC_KINDS = frozenset(("numeric", "real", "integer"))
_UNSUPPORTED_KINDS = frozenset(("string", "date", "relational"))


@dataclass(frozen=True)
class AttributeSpec:
    """One column: ``values`` is None for numeric, the declared value
    tuple for nominal."""

    name: str
    values: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.values is not None:
            if len(self.values) == 0:
                raise ValueError(f"attribute {self.name!r}: empty nominal value list")
            if len(set(self.values)) != len(self.values):
                raise ValueError(f"attribute {self.name!r}: duplicate nominal values")

    @property
    def is_nominal(self) -> bool:
        return self.values is not None


class FeatureEncoder:
    """The attribute layout of a dataset and of every dataset derived from
    it: the numeric feature columns, the nominal ones with their value
    counts, the check of a row and the map of rows to a feature matrix.

    Numeric attributes pass through; nominal attributes become one
    indicator column per declared value.  The class attribute is skipped
    throughout, so relabeling the class keeps the layout.
    """

    __slots__ = (
        "n_attributes", "class_attribute", "numeric", "nominal", "nominal_counts",
        "n_features", "feature_names", "_runs", "_nominal", "_counts", "_offsets",
    )

    def __init__(self, attributes, class_attribute: int):
        self.n_attributes = len(attributes)
        self.class_attribute = class_attribute
        features = [j for j in range(self.n_attributes) if j != class_attribute]
        self.numeric = tuple(j for j in features if not attributes[j].is_nominal)
        self.nominal = tuple(j for j in features if attributes[j].is_nominal)
        self.nominal_counts = tuple(len(attributes[j].values) for j in self.nominal)
        self._nominal = np.array(self.nominal, dtype=np.intp)
        self._counts = np.array(self.nominal_counts, dtype=np.float64)
        runs = []  # [first source column, end, first output column]
        offsets = []  # each nominal feature's first output column
        names = []
        offset = 0
        for j in features:
            spec = attributes[j]
            if spec.is_nominal:
                offsets.append(offset)
                names.extend(f"{spec.name}={v}" for v in spec.values)
                offset += len(spec.values)
            else:
                if runs and runs[-1][1] == j:  # extends the run before it
                    runs[-1][1] = j + 1
                else:
                    runs.append([j, j + 1, offset])
                names.append(spec.name)
                offset += 1
        # each run of consecutive numeric columns is copied as one block
        self._runs = tuple(map(tuple, runs))
        self._offsets = np.array(offsets, dtype=np.intp)
        self.n_features = offset
        self.feature_names = tuple(names)

    def check(self, rows: np.ndarray) -> np.ndarray:
        """The nominal features' value indices of the 2-D float ``rows``, in
        attribute order.  Raises :class:`EncodingMismatch` unless each row
        holds one value per attribute, every feature value is finite and
        each nominal one a declared value index; the class column is not
        read."""
        if rows.shape[1] != self.n_attributes:
            raise EncodingMismatch(
                f"expected {self.n_attributes} attribute values, got {rows.shape[1]}"
            )
        if not np.isfinite(rows).all():
            bad = ~np.isfinite(rows).all(axis=0)
            bad[self.class_attribute] = False
            if bad.any():
                raise EncodingMismatch("non-finite value", int(np.argmax(bad)))
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
        raise EncodingMismatch("undeclared nominal value", column)

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """The feature matrix of ``rows``, checked as :meth:`check` does."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        idx = self.check(rows)
        n = rows.shape[0]
        out = np.zeros((n, self.n_features))
        for src, end, offset in self._runs:
            out[:, offset : offset + end - src] = rows[:, src:end]
        if self._offsets.size:
            # every nominal feature's indicator in one assignment
            out[np.arange(n)[:, None], self._offsets + idx] = 1.0
        return out


class Batch:
    """Rows to predict, as the node models of one prediction share them:
    the layout's row check runs once for the batch, and its encoding at
    most once, for the first model that reads features.

    ``Batch(rows)`` takes one row or a 2-D array of rows and checks
    nothing yet.  ``Batch(rows, layout, features)`` takes rows that
    ``layout`` has checked already and a function that returns their
    feature matrix under it (see :meth:`Dataset.batch`).  A batch is also
    array-like: ``np.asarray(batch)`` gives its rows, unchecked, so a
    node model written for plain rows takes it as well."""

    __slots__ = ("rows", "_layout", "_encode", "_features")

    def __init__(self, rows, layout: FeatureEncoder | None = None, features=None):
        self.rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        self._layout = layout  # the layout the rows passed the check of
        self._encode = features
        self._features = None

    @classmethod
    def of(cls, rows) -> "Batch":
        """``rows`` itself when it is a batch, else a new batch of them."""
        return rows if isinstance(rows, cls) else cls(rows)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.rows, dtype=dtype, copy=copy)

    def checked(self, layout: FeatureEncoder) -> np.ndarray:
        """The rows, once they pass ``layout``'s check."""
        if layout is not self._layout:
            layout.check(self.rows)
            self._layout, self._encode, self._features = layout, None, None
        return self.rows

    def features(self, layout: FeatureEncoder) -> np.ndarray:
        """The rows' feature matrix under ``layout``, checked and encoded
        once; read it, do not write it."""
        if layout is not self._layout:
            self._layout, self._encode = layout, None
            self._features = layout.encode(self.rows)
        elif self._features is None:
            self._features = self._encode() if self._encode else layout.encode(self.rows)
        return self._features


class _FeatureMatrix:
    """The feature matrix of one dataset family: ``layout.encode`` of the
    raw values of the dataset built from them, made on first use and
    shared, read-only, by every dataset derived from it.  Two threads
    that ask for it first at once may each make it; both get the same
    bits."""

    __slots__ = ("layout", "values", "matrix")

    def __init__(self, layout: FeatureEncoder, values: np.ndarray):
        self.layout = layout
        self.values = values
        self.matrix = None

    def rows(self, index=None) -> np.ndarray:
        """The whole matrix, or a copy of its rows ``index``."""
        X = self.matrix
        if X is None:
            X = self.layout.encode(self.values)
            X.flags.writeable = False
            self.matrix = X
        return X if index is None else X.take(index, axis=0)


class Dataset:
    """Immutable table of instances with one nominal class attribute."""

    __slots__ = (
        "attributes", "values", "weights", "class_attribute", "codes", "code_values", "layout",
        "_matrix", "_rows",
    )

    def __init__(
        self,
        attributes,
        values,
        class_attribute: int,
        weights=None,
    ):
        attributes = tuple(attributes)
        # a copy: the dataset freezes its arrays and must not alias the caller's
        values = np.array(values, dtype=np.float64, order="C")
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        n, m = values.shape
        if m != len(attributes):
            raise ValueError(f"{m} columns for {len(attributes)} attributes")
        if not 0 <= class_attribute < m:
            raise ValueError(f"class attribute index {class_attribute} out of range")
        cls_spec = attributes[class_attribute]
        if not cls_spec.is_nominal:
            raise ValueError("class attribute must be nominal")
        if len(cls_spec.values) < 2:
            raise ValueError("class attribute needs at least 2 declared labels")
        weights = np.ones(n) if weights is None else _checked_weights(weights, n)
        layout = FeatureEncoder(attributes, class_attribute)
        try:
            layout.check(values)
        except EncodingMismatch as exc:
            raise ValueError(f"attribute {attributes[exc.column].name!r}: {exc.reason}") from None
        labels = values[:, class_attribute]
        if np.any((labels != np.floor(labels)) | (labels < 0) | (labels >= len(cls_spec.values))):
            raise ValueError(f"class attribute {cls_spec.name!r}: undeclared label index")
        codes, code_values = _order_codes(values, layout.numeric)
        self._fill(
            attributes, values, weights, codes, code_values, layout,
            _FeatureMatrix(layout, values), None,
        )

    def _derive(self, attributes, values, weights, codes, rows) -> "Dataset":
        """A dataset of arrays sliced or copied from this one's, sharing its
        code values, layout and feature matrix, whose rows ``rows`` it
        holds.  Trusted: this one was validated, so nothing is checked
        again."""
        d = object.__new__(Dataset)
        d._fill(
            attributes, values, weights, codes, self.code_values, self.layout,
            self._matrix, rows,
        )
        return d

    def _fill(self, attributes, values, weights, codes, code_values, layout, matrix, rows):
        values.flags.writeable = False
        weights.flags.writeable = False
        codes.flags.writeable = False
        if rows is not None:
            rows.flags.writeable = False
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "class_attribute", layout.class_attribute)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "code_values", code_values)
        object.__setattr__(self, "layout", layout)
        # None: this dataset's rows are the feature matrix's rows
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    # -- basic shape --------------------------------------------------

    @property
    def n_instances(self) -> int:
        return self.values.shape[0]

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.attributes[self.class_attribute].values

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_indices(self) -> np.ndarray:
        """Per-instance class index, as ints."""
        return self.values[:, self.class_attribute].astype(np.intp)

    def class_counts(self) -> np.ndarray:
        """Weighted instance count per declared class."""
        return np.bincount(
            self.class_indices(), weights=self.weights, minlength=self.n_classes
        )

    def classes_present(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.class_counts() > 0).tolist())

    def features(self, rows=None) -> np.ndarray:
        """The feature matrix of the instances, or of the instances
        ``rows``, from the matrix this dataset family shares: the bits of
        ``layout.encode(values)`` (or of ``values[rows]``), without
        encoding again.  Read it, do not write it."""
        if self._rows is None:
            return self._matrix.rows(rows)
        return self._matrix.rows(self._rows if rows is None else self._rows[rows])

    def batch(self, rows=None) -> Batch:
        """The instances, or the instances ``rows``, as a prediction
        batch: checked already, with :meth:`features` as their features."""
        values = self.values if rows is None else self.values[rows]
        return Batch(values, self.layout, lambda: self.features(rows))

    def __len__(self) -> int:
        return self.n_instances

    def __repr__(self) -> str:
        return (
            f"Dataset({self.n_instances} instances, {self.n_attributes} attributes, "
            f"{self.n_classes} classes)"
        )

    # -- derived datasets ----------------------------------------------

    def subset(self, indices) -> "Dataset":
        """Rows ``indices`` (integers; repeats and negatives as in
        ``np.take``), in that order."""
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            if indices.size:
                raise ValueError(f"subset indices must be integers, not {indices.dtype}")
            indices = indices.astype(np.intp)
        rows = np.arange(self.n_instances) if self._rows is None else self._rows
        # take copies whole rows, several times faster than fancy indexing
        return self._derive(
            self.attributes,
            self.values.take(indices, axis=0),
            self.weights.take(indices),
            self.codes.take(indices, axis=0),
            rows.take(indices),
        )

    def with_weights(self, weights) -> "Dataset":
        weights = _checked_weights(weights, self.n_instances)
        return self._derive(self.attributes, self.values, weights, self.codes, self._rows)

    def _class_table(self, class_ids) -> np.ndarray:
        """Boolean table over the declared classes, True at each of
        ``class_ids``; an id outside ``0..n_classes-1`` marks none, as
        ``np.isin`` would match no row with it."""
        ids = np.asarray(list(class_ids), dtype=np.intp)
        table = np.zeros(self.n_classes, dtype=bool)
        table[ids[(ids >= 0) & (ids < self.n_classes)]] = True
        return table

    def restrict_to_classes(self, class_ids) -> "Dataset":
        """Rows whose class is in ``class_ids``; attribute specs unchanged."""
        mask = self._class_table(class_ids)[self.class_indices()]
        return self.subset(np.flatnonzero(mask))

    def relabel_binary(self, side_one) -> "Dataset":
        """Replace the class attribute with a two-valued one, ``s1`` and
        ``s2``: instances whose class is in ``side_one`` get label 0
        (``s1``), the rest label 1."""
        labels = np.where(self._class_table(side_one), 0.0, 1.0)
        attrs = list(self.attributes)
        attrs[self.class_attribute] = AttributeSpec(
            attrs[self.class_attribute].name, ("s1", "s2")
        )
        values = self.values.copy()
        values[:, self.class_attribute] = labels[self.class_indices()]
        return self._derive(tuple(attrs), values, self.weights, self.codes, self._rows)


def _checked_weights(weights, n: int) -> np.ndarray:
    """A float copy of ``weights``: ``n`` of them, each finite and > 0."""
    weights = np.asarray(weights, dtype=np.float64).copy()
    if weights.shape != (n,):
        raise ValueError("weights shape does not match instance count")
    if not (np.all(np.isfinite(weights)) and np.all(weights > 0)):
        raise ValueError("instance weights must be finite and > 0")
    return weights


def _order_codes(values: np.ndarray, columns) -> tuple[np.ndarray, tuple]:
    """Per column of ``values`` named in ``columns``, each value's rank
    among the column's distinct values, as ``uint16`` when every one of
    these columns has at most 65,536 distinct values and ``uint32``
    otherwise; and per column its distinct values in ascending order,
    read-only, so that code ``c`` stands for the ``c``-th of them."""
    codes = np.empty((values.shape[0], len(columns)), dtype=np.uint32)
    code_values = []
    for out, j in enumerate(columns):
        distinct, codes[:, out] = np.unique(values[:, j], return_inverse=True)
        distinct.flags.writeable = False
        code_values.append(distinct)
    if codes.size == 0 or codes.max() < 1 << 16:
        codes = codes.astype(np.uint16)
    return codes, tuple(code_values)


# ---------------------------------------------------------------------------
# ARFF
# ---------------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    # '%' starts a comment unless inside quotes
    quote = None
    for i, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "%":
            return line[:i]
    return line


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def _split_csv_like(text: str, lineno: int) -> list[str]:
    """Split on commas, honoring single/double quotes."""
    out, buf, quote = [], [], None
    for ch in text:
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            buf.append(ch)
        elif ch == ",":
            out.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if quote:
        raise ParseError(lineno, "unterminated quote")
    out.append("".join(buf))
    return out


def _parse_attribute_decl(rest: str, lineno: int) -> AttributeSpec:
    rest = rest.strip()
    if not rest:
        raise ParseError(lineno, "@attribute without a name")
    if rest[0] in "'\"":
        end = rest.find(rest[0], 1)
        if end < 0:
            raise ParseError(lineno, "unterminated quoted attribute name")
        name = rest[1:end]
        kind = rest[end + 1 :].strip()
    else:
        parts = rest.split(None, 1)
        if len(parts) < 2:
            raise ParseError(lineno, "attribute declaration missing a type")
        name, kind = parts[0], parts[1].strip()
    if not kind:
        raise ParseError(lineno, "attribute declaration missing a type")
    if kind.startswith("{"):
        if not kind.endswith("}"):
            raise ParseError(lineno, "unterminated nominal value list")
        raw = _split_csv_like(kind[1:-1], lineno)
        vals = tuple(_unquote(v) for v in raw)
        if any(v == "" for v in vals):
            raise ParseError(lineno, "empty nominal value")
        try:
            return AttributeSpec(name, vals)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    kind_word = kind.split()[0].split("[")[0].lower()
    if kind_word in _NUMERIC_KINDS:
        return AttributeSpec(name, None)  # any [lo,hi] range hint is ignored
    if kind_word in _UNSUPPORTED_KINDS:
        raise UnsupportedFeature(lineno, f"{kind_word} attributes are not supported")
    raise ParseError(lineno, f"unknown attribute type {kind!r}")


def parse_arff(text: str) -> Dataset:
    """Parse ARFF text into a Dataset.

    The class attribute is the last nominal attribute in declaration
    order.  Attribute names must differ: a name that repeats an earlier
    one exactly is a ParseError at its line.  Raises ParseError /
    UnsupportedFeature / MissingValue with the offending line number,
    EmptyInput when no data rows are present.
    """
    attributes: list[AttributeSpec] = []
    decl_lines: list[int] = []
    name_lines: dict[str, int] = {}  # each attribute name -> its declaration line
    saw_relation = False
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if not line.startswith("@"):
            raise ParseError(lineno, "data row before @data section")
        word = line.split(None, 1)[0].lower()
        rest = line[len(word) :].strip()
        if word == "@relation":
            saw_relation = True
        elif word == "@attribute":
            spec = _parse_attribute_decl(rest, lineno)
            if spec.name in name_lines:
                raise ParseError(
                    lineno,
                    f"attribute {spec.name!r} repeats the name declared on line "
                    f"{name_lines[spec.name]}",
                )
            name_lines[spec.name] = lineno
            attributes.append(spec)
            decl_lines.append(lineno)
        elif word == "@data":
            if not saw_relation:
                raise ParseError(lineno, "@data before @relation")
            if not attributes:
                raise ParseError(lineno, "@data with no attributes declared")
            break
        else:
            raise ParseError(lineno, f"unknown declaration {word!r}")
    else:
        raise ParseError(len(lines) or 1, "no @data section")

    rows, linenos = _parse_data_lines(lines, lineno, attributes)
    if not linenos:
        raise EmptyInput("ARFF input has no data rows")
    class_attribute = _last_nominal(attributes)
    return _finish_dataset(
        attributes, rows, linenos, class_attribute, decl_lines[class_attribute]
    )


def _last_nominal(attributes: list[AttributeSpec]) -> int:
    for j in range(len(attributes) - 1, -1, -1):
        if attributes[j].is_nominal:
            return j
    raise EmptyInput("no nominal attribute to use as the class")


def _parse_data_lines(lines: list[str], start: int, attributes):
    """``(rows, linenos)`` of the data section ``lines[start:]``, where
    ``linenos[i]`` is the input line of row ``i``.

    A section with no quote and no comment, other than whole-line
    ones, is converted in one ``np.loadtxt`` call.  When that call fails
    on any row, the whole section goes row by row through
    :func:`_parse_data_row`, which raises the error with its line number.
    ``loadtxt`` parses a number as ``float`` does, but rejects some forms
    that ``float`` takes (``1_0``, non-ASCII digits); such a section takes
    the row-by-row path and parses as before."""
    # blank and comment-only lines hold no row
    numbered = [
        (lineno, line)
        for lineno, line in enumerate(map(str.strip, lines[start:]), start=start + 1)
        if line and line[0] != "%"
    ]
    block = [line for _, line in numbered]
    plain = not any(
        "%" in line or "'" in line or '"' in line or line[0] == "{" for line in block
    )
    if plain and block:
        converters = {
            j: _nominal_converter(spec.values)
            for j, spec in enumerate(attributes)
            if spec.is_nominal
        }
        try:
            values = np.loadtxt(
                block, delimiter=",", comments=None, ndmin=2, converters=converters
            )
        except (ValueError, KeyError):
            pass
        else:
            # loadtxt takes its column count from the first row
            if values.shape[1] == len(attributes):
                return values, [lineno for lineno, _ in numbered]
    rows, linenos = [], []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("{"):
            raise UnsupportedFeature(lineno, "sparse ARFF rows are not supported")
        rows.append(_parse_data_row(line, attributes, lineno))
        linenos.append(lineno)
    return rows, linenos


def _nominal_converter(values: tuple[str, ...]):
    """``token -> float(index)`` of a nominal attribute's declared values;
    ``?`` is left out, so that it reaches the missing-value error of
    ``_parse_data_row``."""
    table = {v: float(i) for i, v in enumerate(values) if v != "?"}
    return lambda token: table[token.strip()]


def _parse_data_row(
    line: str, attributes: list[AttributeSpec], lineno: int
) -> list[float]:
    fields = _split_csv_like(line, lineno)
    if len(fields) != len(attributes):
        raise ParseError(
            lineno, f"expected {len(attributes)} values, found {len(fields)}"
        )
    row = []
    for spec, tok in zip(attributes, fields):
        tok = _unquote(tok)
        if tok == "?":
            raise MissingValue(lineno, f"missing value for attribute {spec.name!r}")
        if spec.is_nominal:
            try:
                row.append(float(spec.values.index(tok)))
            except ValueError:
                raise ParseError(
                    lineno, f"value {tok!r} not declared for attribute {spec.name!r}"
                ) from None
        else:
            try:
                row.append(float(tok))
            except ValueError:
                raise ParseError(
                    lineno, f"non-numeric value {tok!r} for attribute {spec.name!r}"
                ) from None
    return row


def _finish_dataset(
    attributes, rows, linenos, class_attribute: int, class_line: int
) -> Dataset:
    """Dataset of the parsed rows; ``linenos[i]`` is the input line of row
    ``i``, named when a value is NaN or infinite, and ``class_line`` is the
    line named when the class attribute has fewer than two labels."""
    spec = attributes[class_attribute]
    if len(spec.values) < 2:
        raise ParseError(
            class_line,
            f"class attribute {spec.name!r} has only the label {spec.values[0]!r}; "
            "at least 2 are needed",
        )
    values = np.asarray(rows, dtype=np.float64)
    bad = ~np.isfinite(values)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ParseError(
            linenos[i], f"non-finite value for attribute {attributes[j].name!r}"
        )
    return Dataset(attributes, values, class_attribute)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def parse_csv(text: str, class_column: int, header: bool = False) -> Dataset:
    """Parse comma-separated text.

    A column is numeric iff every value parses as a real number; anything
    else (including the class column, always) is nominal with values
    ordered by first appearance.  NaN and infinite values raise
    ParseError; a missing value (``?``, or an empty or blank cell) raises
    MissingValue.  Errors name the line that their record starts on.  A
    header must name every column, each with a name of its own: an empty
    or repeated name, or a header of another width than the rows, is a
    ParseError at the header line.
    """
    import csv as _csv
    import io

    reader = _csv.reader(io.StringIO(text))
    raw_rows = []  # (line the record starts on, its fields)
    start = 1
    try:
        for row in reader:
            if row:
                raw_rows.append((start, row))
            start = reader.line_num + 1
    except _csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from None
    if not raw_rows:
        raise EmptyInput("CSV input has no rows")

    names = None
    if header:
        (header_line, names), *raw_rows = raw_rows
        names = [c.strip() for c in names]
        for j, name in enumerate(names):
            if not name:
                raise ParseError(header_line, f"column {j} has an empty name")
            if name in names[:j]:
                raise ParseError(
                    header_line, f"column name {name!r} repeats column {names.index(name)}"
                )
        if not raw_rows:
            raise EmptyInput("CSV input has a header but no data rows")

    width = len(raw_rows[0][1])
    if names is not None and len(names) != width:
        raise ParseError(header_line, f"header has {len(names)} names for {width} fields")
    for lineno, row in raw_rows:
        if len(row) != width:
            raise ParseError(lineno, f"expected {width} fields, found {len(row)}")
    if not -width <= class_column < width:
        raise ParseError(raw_rows[0][0], f"class column {class_column} out of range")
    class_column %= width
    if names is None:
        names = [f"col{j}" for j in range(width)]

    cols = [[row[j].strip() for _, row in raw_rows] for j in range(width)]
    for lineno, row in raw_rows:
        for cell in row:
            if cell.strip() in ("?", ""):
                raise MissingValue(lineno, "missing value")

    attributes = []
    values = np.empty((len(raw_rows), width))
    for j in range(width):
        numeric = j != class_column and _all_numeric(cols[j])
        if numeric:
            attributes.append(AttributeSpec(names[j], None))
            values[:, j] = [float(v) for v in cols[j]]
        else:
            seen: dict[str, int] = {}
            for v in cols[j]:
                seen.setdefault(v, len(seen))
            attributes.append(AttributeSpec(names[j], tuple(seen)))
            values[:, j] = [seen[v] for v in cols[j]]
    linenos = [ln for ln, _ in raw_rows]
    return _finish_dataset(attributes, values, linenos, class_column, linenos[0])


def _all_numeric(col) -> bool:
    for v in col:
        try:
            float(v)
        except ValueError:
            return False
    return True


# ---------------------------------------------------------------------------
# Folding and resampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignments for repeated cross-validation.

    ``assignments[r][f]`` holds the instance indices of fold ``f`` in
    repeat ``r``.  Within each repeat the folds partition all indices and
    per-fold class counts are within one of proportional.
    """

    k: int
    repeats: int
    master_seed: int
    assignments: tuple[tuple[np.ndarray, ...], ...]
    fingerprint: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.fingerprint:
            import hashlib

            h = hashlib.sha256()
            h.update(f"{self.k},{self.repeats},{self.master_seed}".encode())
            for rep in self.assignments:
                for fold in rep:
                    h.update(np.asarray(fold, dtype=np.int64).tobytes())
            object.__setattr__(self, "fingerprint", h.hexdigest()[:16])


def stratified_folds(d: Dataset, k: int, repeats: int, seed: int) -> FoldPlan:
    """Stratified fold plan: per class, indices are shuffled and the
    concatenated (class-major) list is dealt round-robin over the k folds.

    Per-class fold counts end up within 1 of each other, and overall fold
    sizes within 1 of n/k.  Deterministic in (d, k, repeats, seed).
    """
    n = d.n_instances
    if k < 2:
        raise InvalidK(f"k must be >= 2, got {k}")
    if k > n:
        raise InvalidK(f"k={k} exceeds the instance count {n}")
    if repeats < 1:
        raise InvalidK(f"repeats must be >= 1, got {repeats}")
    y = d.class_indices()
    per_class = [np.flatnonzero(y == c) for c in range(d.n_classes)]

    all_repeats = []
    for r in range(repeats):
        rng = rng_from(seed, r)
        order = np.concatenate([rng.permutation(idx) for idx in per_class if len(idx)])
        folds = [order[f::k] for f in range(k)]
        all_repeats.append(tuple(np.sort(f) for f in folds))
    return FoldPlan(k, repeats, seed, tuple(all_repeats))


def train_test_split(d: Dataset, plan: FoldPlan, repeat: int, fold: int):
    """Train/test datasets for one CV run."""
    test_idx = plan.assignments[repeat][fold]
    mask = np.ones(d.n_instances, dtype=bool)
    mask[test_idx] = False
    return d.subset(np.flatnonzero(mask)), d.subset(test_idx)


def bootstrap_sample(d: Dataset, seed: int) -> Dataset:
    """Uniform sample of n instances with replacement."""
    n = d.n_instances
    if n == 0:
        raise EmptyInput("cannot bootstrap an empty dataset")
    rng = rng_from(seed)
    return d.subset(rng.integers(0, n, size=n))


def weighted_resample(d: Dataset, weights, size: int, seed: int) -> Dataset:
    """Sample ``size`` instances with replacement, probability proportional
    to weight; the returned instances all have weight 1."""
    n = d.n_instances
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError("weights length does not match the dataset")
    if np.any(~np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and >= 0")
    total = weights.sum()
    if total <= 0:
        raise DegenerateWeights("all resampling weights are zero")
    rng = rng_from(seed)
    idx = rng.choice(n, size=size, replace=True, p=weights / total)
    sample = d.subset(idx)
    return sample.with_weights(np.ones(size))
