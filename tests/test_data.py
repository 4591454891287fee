import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import DATASETS_DIR, gaussian_dataset, load_uci, serialize_arff
from nested_dichotomies.data import (
    AttributeSpec,
    Batch,
    Dataset,
    _parse_data_row,
    _strip_comment,
    bootstrap_sample,
    parse_arff,
    parse_csv,
    stratified_folds,
    train_test_split,
    weighted_resample,
)
from nested_dichotomies.errors import (
    DegenerateWeights,
    EmptyInput,
    InvalidK,
    MissingValue,
    ParseError,
    UnsupportedFeature,
)

SMALL_ARFF = """\
% a tiny relation
@relation toy
@attribute x numeric
@attribute y REAL
@attribute class {a, b}
@data
1.0, 2.0, a
3.5, -1.0, b
0.0, 0.0, a
"""


def test_parse_arff_small():
    d = parse_arff(SMALL_ARFF)
    assert d.n_instances == 3
    assert d.n_attributes == 3
    assert d.class_names == ("a", "b")
    assert d.class_attribute == 2
    assert d.values[1, 0] == 3.5
    assert list(d.class_indices()) == [0, 1, 0]


def test_parse_arff_quoted_names_and_uppercase():
    text = (
        "@RELATION 'has space'\n"
        "@ATTRIBUTE 'a b' INTEGER [0,9]\n"
        "@ATTRIBUTE cls { 'v 1', v2 }\n"
        "@DATA\n"
        "4, 'v 1'\n"
    )
    d = parse_arff(text)
    assert d.attributes[0].name == "a b"
    assert not d.attributes[0].is_nominal
    assert d.class_names == ("v 1", "v2")


def test_parse_arff_string_attribute_rejected():
    text = "@relation r\n@attribute x string\n@attribute c {a,b}\n@data\nfoo,a\n"
    with pytest.raises(UnsupportedFeature):
        parse_arff(text)


def test_parse_arff_sparse_rejected():
    text = "@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\n{0 1}, a\n"
    with pytest.raises(UnsupportedFeature):
        parse_arff(text)


def test_parse_arff_missing_value_rejected():
    text = "@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\n?,a\n"
    with pytest.raises(MissingValue) as err:
        parse_arff(text)
    assert err.value.line == 5


def test_parse_arff_bad_row_reports_line():
    text = "@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\n1,a\n1,2,a\n"
    with pytest.raises(ParseError) as err:
        parse_arff(text)
    assert err.value.line == 6


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "NaN", "'Infinity'"])
def test_parse_arff_non_finite_value_reports_line(token):
    # quoted tokens take the slow row path, the others the plain split
    header = "@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\n1,a\n"
    text = header + f"{token},b\n"
    with pytest.raises(ParseError) as err:
        parse_arff(text)
    assert err.value.line == 6
    assert "'x'" in str(err.value)


def test_parse_csv_non_finite_value_reports_line():
    with pytest.raises(ParseError) as err:
        parse_csv("x,label\n1,a\n2,b\nnan,a\n", class_column=1, header=True)
    assert err.value.line == 4


def test_parse_arff_undeclared_nominal_value():
    text = "@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\n1,z\n"
    with pytest.raises(ParseError):
        parse_arff(text)


def test_parse_arff_no_data():
    with pytest.raises(EmptyInput):
        parse_arff("@relation r\n@attribute c {a,b}\n@data\n")


def test_zoo_matches_published_shape():
    d = load_uci("zoo")
    assert d.n_instances == 101
    assert d.n_attributes == 18
    assert d.n_classes == 7


def test_arff_round_trip():
    rng = np.random.default_rng(5)
    attrs = [
        AttributeSpec("num1"),
        AttributeSpec("color", ("red", "green", "blue")),
        AttributeSpec("num2"),
        AttributeSpec("class", ("yes", "no")),
    ]
    n = 40
    values = np.column_stack(
        [
            rng.normal(size=n).round(6),
            rng.integers(0, 3, n),
            rng.uniform(-100, 100, n).round(3),
            rng.integers(0, 2, n),
        ]
    ).astype(float)
    d = Dataset(attrs, values, class_attribute=3)
    d2 = parse_arff(serialize_arff(d))
    assert d2.attributes == d.attributes
    assert d2.class_attribute == d.class_attribute
    np.testing.assert_array_equal(d2.values, d.values)


def test_round_trip_real_file():
    d = load_uci("glass")
    d2 = parse_arff(serialize_arff(d))
    assert d2.attributes == d.attributes
    np.testing.assert_allclose(d2.values, d.values)


_TOKEN_CHARS = "abXYz09_-.+ ,%{}'\""


def _arff_tokens():
    # names and nominal values, including ones that serialize_arff must
    # quote; no token holds both quote characters, which ARFF cannot write
    return st.text(alphabet=_TOKEN_CHARS, min_size=1, max_size=5).filter(
        lambda t: t == t.strip() and t != "?" and not ("'" in t and '"' in t)
    )


@st.composite
def _arff_datasets(draw):
    names = set()  # ARFF attribute names must differ

    def attribute(nominal):
        name = draw(_arff_tokens().filter(lambda t: t not in names))
        names.add(name)
        if not nominal:
            return AttributeSpec(name)
        values = draw(st.lists(_arff_tokens(), min_size=2, max_size=4, unique=True))
        return AttributeSpec(name, tuple(values))

    before = [attribute(draw(st.booleans())) for _ in range(draw(st.integers(0, 3)))]
    after = [attribute(False) for _ in range(draw(st.integers(0, 2)))]
    attrs = before + [attribute(True)] + after  # the class is the last nominal one
    n = draw(st.integers(1, 6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    cols = [
        draw(st.lists(
            st.integers(0, len(a.values) - 1) if a.is_nominal else finite, min_size=n, max_size=n
        ))
        for a in attrs
    ]
    return Dataset(attrs, np.asarray(cols, dtype=float).T, class_attribute=len(before))


@settings(max_examples=200, deadline=None)
@given(_arff_datasets())
def test_arff_round_trip_property(d):
    d2 = parse_arff(serialize_arff(d))
    assert d2.attributes == d.attributes
    assert d2.class_attribute == d.class_attribute
    assert d2.values.tobytes() == d.values.tobytes()


@pytest.mark.parametrize("where", ["name", "value", "relation"])
def test_serialize_arff_rejects_a_token_with_both_quotes(where):
    both = "it's \"x\""
    name = both if where == "name" else "x"
    values = (both, "b") if where == "value" else ("a", "b")
    d = Dataset([AttributeSpec(name), AttributeSpec("c", values)], np.zeros((1, 2)), 1)
    with pytest.raises(ValueError, match="both quote characters") as err:
        serialize_arff(d, both if where == "relation" else "r")
    assert repr(both) in str(err.value)


def test_serialize_arff_quotes_around_the_other_quote():
    d = Dataset(
        [AttributeSpec("it's"), AttributeSpec('say "hi"', ("o'k", 'q"'))],
        np.array([[1.5, 0.0], [2.0, 1.0]]), 1,
    )
    text = serialize_arff(d)
    assert "@attribute \"it's\" numeric" in text
    d2 = parse_arff(text)
    assert d2.attributes == d.attributes
    assert d2.values.tobytes() == d.values.tobytes()


_ROW_HEADER = "@relation r\n@attribute x numeric\n@attribute c {a,b,'p,q',?}\n@data\n1,a\n"


@pytest.mark.parametrize(
    "row",
    [
        "?,a",  # missing numeric value
        "1,?",  # missing nominal value, even though '?' is declared
        " ? , a",
        "1,z",  # undeclared nominal value
        "1,a,2",  # wrong field counts
        "1",
        "x1,a",  # non-numeric value
        "1,'p,q'",  # quoted value containing a comma
        "1,'z,q'",
        "1,b % trailing comment",
        "1,z % trailing comment",
        " 1 ,  b ",  # spaces around tokens
        "\t-2.5e3 ,a\t",
        "1_0,a",  # float() takes these and np.loadtxt does not
        "\u0661\u0662,b",  # Arabic-Indic digits
    ],
)
def test_plain_row_fast_path_matches_slow_path(row):
    # sections with quotes or '%' take the quote-aware _parse_data_row;
    # plain ones are converted in bulk, falling back to it on any error,
    # so both must give what _parse_data_row gives
    attrs = list(parse_arff(_ROW_HEADER).attributes)
    text = _ROW_HEADER + row + "\n"
    try:
        expected = _parse_data_row(_strip_comment(row).strip(), attrs, 6)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_arff(text)
        assert type(err.value) is type(exc)
        assert (err.value.line, str(err.value)) == (6, str(exc))
    else:
        assert list(parse_arff(text).values[-1]) == expected


_BULK_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.3f}"),
    st.floats(allow_nan=False).map(lambda x: f"{x:.17e}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "+1", ".5", "5.", "1e999"]),
)
_BULK_BAD = st.sampled_from(["?", "", "x", "1_0", "\u0661", "1d5", "0x10", "{0 1}"])


@st.composite
def _plain_sections(draw):
    """An ARFF text whose data rows hold no quote and no trailing comment,
    so that the bulk conversion takes them; rows may be padded, and a few
    hold a bad token or the wrong number of fields."""
    kinds = draw(st.lists(st.booleans(), min_size=0, max_size=4))
    attrs = [
        AttributeSpec(f"n{j}", ("a", "bb", "c d")) if nominal else AttributeSpec(f"x{j}")
        for j, nominal in enumerate(kinds)
    ]
    attrs.append(AttributeSpec("class", ("u", "v", "?")))
    lines = ["@relation r"]
    lines += [
        f"@attribute {a.name} {{{', '.join(a.values)}}}" if a.is_nominal
        else f"@attribute {a.name} numeric"
        for a in attrs
    ]
    lines.append("@data")
    bad_rows = draw(st.booleans())
    pad = st.sampled_from(["", " ", "\t", "  "])
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(pad))
            continue
        if kind == "comment":
            lines.append(draw(pad) + "% a comment")
            continue
        fields = []
        for a in attrs:
            if bad_rows and draw(st.integers(0, 9)) == 0:
                token = draw(_BULK_BAD)
            elif a.is_nominal:
                token = draw(st.sampled_from(a.values[:2]))
            else:
                token = draw(_BULK_NUMBERS)
            fields.append(draw(pad) + token + draw(pad))
        if bad_rows and draw(st.integers(0, 9)) == 0:
            fields = fields[:-1] if len(fields) > 1 else fields + ["1"]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _parse_outcome(text):
    try:
        return parse_arff(text).values.tobytes()
    except (ParseError, EmptyInput) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


@settings(max_examples=300, deadline=None)
@given(_plain_sections())
def test_bulk_parse_matches_row_by_row_parse(text):
    # the row-by-row path, forced by a loadtxt that always fails, is the
    # oracle: the same values, bit for bit, or the same error at the same line
    bulk = _parse_outcome(text)

    def no_loadtxt(*args, **kwargs):
        raise ValueError("bulk conversion off")

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(np, "loadtxt", no_loadtxt)
        assert _parse_outcome(text) == bulk


@pytest.mark.parametrize(
    "data, bulk",
    [
        ("1,a\n% whole-line comment\n\n 2.5 , b \n", ["converted"]),
        ("1,a\n2.5,b % trailing comment\n", []),
        ("1,a\n2.5,'b'\n", []),
        ("1,a\n1_0,b\n", ["failed"]),  # then row by row
    ],
)
def test_bulk_parse_is_tried_on_plain_sections(data, bulk, monkeypatch):
    outcomes = []
    loadtxt = np.loadtxt

    def recording_loadtxt(*args, **kwargs):
        outcomes.append("failed")
        values = loadtxt(*args, **kwargs)
        outcomes[-1] = "converted"
        return values

    monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
    d = parse_arff("@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\n" + data)
    assert outcomes == bulk
    assert d.values[:, 1].tolist() == [0.0, 1.0]


def test_bulk_parse_names_the_line_of_a_non_finite_value():
    text = (
        "@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\n"
        "% comment\n1,a\n\n2,b\n-inf,a\n"
    )
    with pytest.raises(ParseError) as err:
        parse_arff(text)
    assert err.value.line == 9


# -- CSV --------------------------------------------------------------


def test_parse_csv_basic():
    d = parse_csv("1,2,a\n3,4,b\n", class_column=2)
    assert d.n_instances == 2
    assert not d.attributes[0].is_nominal
    assert not d.attributes[1].is_nominal
    assert d.class_names == ("a", "b")


def test_parse_csv_ragged_row():
    with pytest.raises(ParseError) as err:
        parse_csv("1,2,a\n3,4\n", class_column=2)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, error",
    [
        ('1,"x\ny"\n2,a\n3,?\n', MissingValue),
        ('1,"x\ny"\n2,a\n3\n', ParseError),
        ("1,a\n\n2,b\nnan,a\n", ParseError),
    ],
    ids=["missing-after-quoted-newline", "ragged-after-quoted-newline", "after-blank-line"],
)
def test_parse_csv_errors_name_the_input_line(text, error):
    # a record's line is the input line it starts on, not its record number
    with pytest.raises(error) as err:
        parse_csv(text, class_column=1)
    assert err.value.line == 4


@pytest.mark.parametrize(
    "text", ["1,,a\n2,3,b\n", "1, ,a\n2,3,b\n", '1,"",a\n2,3,b\n', "1,2,\n3,4,b\n"],
    ids=["empty", "blank", "quoted-empty", "empty-class"],
)
def test_parse_csv_empty_cell_is_a_missing_value(text):
    with pytest.raises(MissingValue) as err:
        parse_csv(text, class_column=2)
    assert err.value.line == 1


def test_parse_csv_mixed_column_is_nominal():
    d = parse_csv("1,a\n2,b\nx,a\n", class_column=1)
    assert d.attributes[0].is_nominal
    assert d.attributes[0].values == ("1", "2", "x")


def test_parse_csv_header_and_first_appearance_order():
    d = parse_csv("f,label\n1,z\n2,q\n3,z\n", class_column=1, header=True)
    assert d.attributes[1].name == "label"
    assert d.class_names == ("z", "q")


def test_parse_csv_empty():
    with pytest.raises(EmptyInput):
        parse_csv("", class_column=0)


def test_parse_csv_oversized_field_reports_line():
    # the csv module refuses a field past its size limit
    with pytest.raises(ParseError) as err:
        parse_csv("1,a\n2,b\n3," + "x" * 200_000 + "\n", class_column=1)
    assert err.value.line == 3
    assert "field larger than field limit" in err.value.reason


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_arff, "@relation r\n@attribute x numeric\n@attribute c {b}\n@data\n1,b\n", 3),
        (lambda t: parse_csv(t, class_column=1), "1,b\n2,b\n", 1),
        (lambda t: parse_csv(t, class_column=1, header=True), "x,c\n1,b\n2,b\n", 2),
    ],
    ids=["arff", "csv", "csv-header"],
)
def test_single_label_class_is_a_parse_error(parse, text, line):
    # the class declaration's line in ARFF, the first data row's in CSV
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert err.value.reason.endswith("has only the label 'b'; at least 2 are needed")


@pytest.mark.parametrize(
    "text, line",
    [
        ("@relation r\n@attribute x numeric\n@attribute x real\n@attribute c {a,b}\n"
         "@data\n1,2,a\n", 3),
        ("@relation r\n@attribute 'x y' numeric\n@attribute c {a,b}\n"
         "@attribute \"x y\" {p,q}\n@data\n1,a,p\n", 4),
        ("@relation r\n@attribute c {a,b}\n@attribute x numeric\n@attribute c {a,b}\n"
         "@data\na,1,b\n", 4),
    ],
    ids=["numeric", "quoted", "class-name"],
)
def test_parse_arff_rejects_a_repeated_attribute_name(text, line):
    with pytest.raises(ParseError) as err:
        parse_arff(text)
    assert err.value.line == line
    assert "repeats the name declared on line" in err.value.reason


def test_parse_arff_attribute_names_differ_by_case():
    d = parse_arff("@relation r\n@attribute x numeric\n@attribute X numeric\n"
                   "@attribute c {a,b}\n@data\n1,2,a\n3,4,b\n")
    assert [a.name for a in d.attributes] == ["x", "X", "c"]


@pytest.mark.parametrize(
    "text, reason",
    [
        ("x,x,c\n1,2,a\n3,4,b\n", "column name 'x' repeats column 0"),
        ("x, x ,c\n1,2,a\n3,4,b\n", "column name 'x' repeats column 0"),
        ("x,y,\n1,2,a\n3,4,b\n", "column 2 has an empty name"),
        ("x, ,c\n1,2,a\n3,4,b\n", "column 1 has an empty name"),
        ("x,c\n1,2,a\n3,4,b\n", "header has 2 names for 3 fields"),
        ("x,y,z,c\n1,2,a\n3,4,b\n", "header has 4 names for 3 fields"),
    ],
    ids=["repeated", "repeated-after-strip", "empty", "blank", "short", "long"],
)
def test_parse_csv_header_names_each_column_once(text, reason):
    # the header is line 2 behind a blank line: the error names its line
    with pytest.raises(ParseError) as err:
        parse_csv("\n" + text, class_column=-1, header=True)
    assert err.value.line == 2
    assert err.value.reason == reason


# -- dataset invariants ------------------------------------------------


def test_dataset_rejects_bad_weights():
    attrs = [AttributeSpec("x"), AttributeSpec("c", ("a", "b"))]
    values = np.array([[1.0, 0.0], [2.0, 1.0]])
    d = Dataset(attrs, values, 1)
    # with_weights checks the weights it is given, the one check left on
    # a derivation
    for weights, message in [
        ([0.0, 1.0], "finite and > 0"),
        ([1.0, -2.0], "finite and > 0"),
        ([np.nan, 1.0], "finite and > 0"),
        ([1.0, np.inf], "finite and > 0"),
        ([1.0, -np.inf], "finite and > 0"),
        ([1.0], "shape does not match"),
        ([1.0, 1.0, 1.0], "shape does not match"),
    ]:
        with pytest.raises(ValueError, match=message):
            Dataset(attrs, values, 1, weights=np.array(weights))
        with pytest.raises(ValueError, match=message):
            d.with_weights(weights)
    assert d.with_weights([0.5, 2.0]).weights.tolist() == [0.5, 2.0]


def test_dataset_rejects_out_of_range_nominal():
    attrs = [AttributeSpec("x"), AttributeSpec("c", ("a", "b"))]
    with pytest.raises(ValueError):
        Dataset(attrs, np.array([[1.0, 2.0]]), 1)


@pytest.mark.parametrize(
    "column, bad, message",
    [
        (0, np.nan, "attribute 'x': non-finite value"),
        (0, -np.inf, "attribute 'x': non-finite value"),
        (1, np.nan, "attribute 'n': non-finite value"),
        (1, 3.0, "attribute 'n': undeclared nominal value"),
        (1, 0.5, "attribute 'n': undeclared nominal value"),
        (1, -1.0, "attribute 'n': undeclared nominal value"),
        (2, np.nan, "class attribute 'c': undeclared label index"),
        (2, 1.5, "class attribute 'c': undeclared label index"),
    ],
)
def test_dataset_errors_name_the_attribute(column, bad, message):
    # the layout's row check, mapped to the ValueError that Dataset documents
    attrs = [AttributeSpec("x"), AttributeSpec("n", tuple("pqr")), AttributeSpec("c", ("a", "b"))]
    values = np.array([[1.0, 0.0, 0.0], [2.0, 2.0, 1.0]])
    values[1, column] = bad
    with pytest.raises(ValueError) as err:
        Dataset(attrs, values, 2)
    assert str(err.value) == message


def test_derived_datasets_share_the_layout():
    d = parse_arff((DATASETS_DIR / "zoo.arff").read_text())
    layout = d.layout
    n = d.n_instances
    train, test = train_test_split(d, stratified_folds(d, 3, 1, 0), 0, 1)
    derived = [
        d.subset([0, 2, 2]),
        d.restrict_to_classes([0, 1]),
        d.relabel_binary([0, 3]),
        d.relabel_binary([0, 3]).restrict_to_classes([1]),
        d.with_weights(np.full(n, 2.0)),
        train,
        test,
        bootstrap_sample(d, 1),
        weighted_resample(d, np.arange(n, dtype=float), 10, 1),
    ]
    assert all(x.layout is layout for x in derived)
    assert layout.class_attribute == d.class_attribute
    assert layout.numeric == tuple(j for j, s in enumerate(d.attributes) if not s.is_nominal)
    assert layout.nominal == tuple(
        j for j, s in enumerate(d.attributes) if s.is_nominal and j != d.class_attribute
    )
    assert layout.nominal_counts == tuple(len(d.attributes[j].values) for j in layout.nominal)
    # a dataset built from raw values builds its own
    assert Dataset(d.attributes, d.values, d.class_attribute).layout is not layout


def _assert_features_are_the_encoding(d):
    encoded = d.layout.encode(d.values)
    assert d.features().tobytes() == encoded.tobytes()
    assert d.features().shape == encoded.shape
    rows = np.arange(d.n_instances)[::3]
    assert d.features(rows).tobytes() == encoded[rows].tobytes()
    assert d.batch(rows).features(d.layout).tobytes() == encoded[rows].tobytes()


def test_a_dataset_encodes_its_features_once_on_first_use(encodes):
    zoo = parse_arff((DATASETS_DIR / "zoo.arff").read_text())
    assert encodes == []  # parsing does not encode
    derived = zoo.subset([5, 0, 5, -1]).relabel_binary([0]).with_weights(np.full(4, 0.5))
    first = derived.features()
    assert encodes == [zoo.n_instances]  # the family's matrix, made once
    assert first.tobytes() == zoo.layout.encode(zoo.values[[5, 0, 5, -1]]).tobytes()
    encodes.clear()
    assert zoo.features().tobytes() == zoo.layout.encode(zoo.values).tobytes()
    zoo.restrict_to_classes([1, 2]).features()
    bootstrap_sample(zoo, 4).features([0, 1])
    assert encodes == [zoo.n_instances]  # the check's own encode only
    assert not zoo.features().flags.writeable


@pytest.mark.parametrize("learner", ["logistic", "tree"])
def test_every_derived_dataset_of_a_build_views_the_family_matrix(learner, encodes, monkeypatch):
    # a fresh family: its matrix is made once, by the first logistic fit or
    # centroid, and never while trees alone are fitted
    from nested_dichotomies.dichotomy import build_nd
    from nested_dichotomies.ensemble import (
        build_adaboost_ensemble,
        build_bagged_ensemble,
        build_multiboost_ensemble,
    )
    from nested_dichotomies.learners import LogisticParams, TreeParams
    from nested_dichotomies.selection import SubsetSelector

    zoo = parse_arff((DATASETS_DIR / "zoo.arff").read_text())
    params = LogisticParams() if learner == "logistic" else TreeParams()
    derived = []
    derive = Dataset._derive

    def recording(self, *args):
        d = derive(self, *args)
        derived.append(d)
        return d

    monkeypatch.setattr(Dataset, "_derive", recording)
    train, _ = train_test_split(zoo, stratified_folds(zoo, 3, 1, 0), 0, 1)
    for strategy in ("random_pair", "centroid"):
        selector = SubsetSelector(strategy)
        build_nd(train, selector, params, 1)
        build_bagged_ensemble(train, selector, params, 2, 2)
        build_adaboost_ensemble(train, selector, params, 2, 3)
        build_multiboost_ensemble(train, selector, params, 3, 4)
        if strategy == "random_pair":
            assert encodes == ([zoo.n_instances] if learner == "logistic" else [])
    assert encodes == [zoo.n_instances]
    monkeypatch.undo()
    assert len(derived) > 100
    for d in derived:
        assert d.layout is zoo.layout
        _assert_features_are_the_encoding(d)
    for d in (bootstrap_sample(train, 5), weighted_resample(train, train.weights, 30, 6)):
        _assert_features_are_the_encoding(d)


def test_batch_checks_and_encodes_once_per_layout(zoo, encodes, checks):
    batch = Batch(zoo.values[:4])
    assert Batch.of(batch) is batch
    assert len(batch) == 4 and np.asarray(batch).tobytes() == zoo.values[:4].tobytes()
    assert batch.checked(zoo.layout) is batch.rows
    X = batch.features(zoo.layout)
    assert batch.features(zoo.layout) is X
    assert batch.checked(zoo.layout) is batch.rows
    assert X.tobytes() == zoo.layout.encode(zoo.values[:4]).tobytes()
    assert (checks, encodes) == ([4, 4, 4], [4, 4])  # check, encode, the reference
    # another layout checks and encodes the rows again
    other = Dataset(zoo.attributes, zoo.values, zoo.class_attribute).layout
    assert batch.features(other).tobytes() == X.tobytes()
    assert encodes == [4, 4, 4]
    # a dataset's batch is checked already and encodes nothing once its
    # family's matrix is made
    zoo.features()
    checks.clear()
    encodes.clear()
    rows = np.array([3, 1, 4])
    assert zoo.batch(rows).features(zoo.layout).tobytes() == zoo.features(rows).tobytes()
    zoo.batch(rows).checked(zoo.layout)
    assert (checks, encodes) == ([], [])


@pytest.mark.parametrize(
    "index",
    [np.array([True, False, True]), [2.7], np.array([0.0, 2.0]), [None]],
    ids=["bool-mask", "float-list", "float-array", "object"],
)
def test_subset_rejects_non_integer_indices(index):
    # a boolean mask or float positions would be read as row numbers
    d = parse_csv("1,a\n2,b\n3,a\n", 1)
    dtype = np.asarray(index).dtype
    with pytest.raises(ValueError, match=f"integers, not {dtype}"):
        d.subset(index)
    assert d.subset([]).n_instances == 0
    assert d.subset(np.array([2, 0], dtype=np.uint8)).values[:, 0].tolist() == [3.0, 1.0]


def _labelled(labels, n_classes):
    attrs = [AttributeSpec("x"), AttributeSpec("c", tuple("abcdef"[:n_classes]))]
    values = np.column_stack([np.arange(len(labels)), labels]).reshape(-1, 2)
    return Dataset(attrs, values, 1)


@st.composite
def _labelled_and_ids(draw):
    n_classes = draw(st.integers(2, 6))
    labels = draw(st.lists(st.integers(0, n_classes - 1), max_size=15))
    ids = draw(st.lists(st.integers(-3, n_classes + 3), max_size=8))
    return _labelled(labels, n_classes), ids


@settings(max_examples=300, deadline=None)
@example(case=(_labelled([2, 0, 1], 3), [-1, -3, 3]))  # -1 must not reach class 2
@given(_labelled_and_ids())
def test_class_selections_match_isin(case):
    # the np.isin formulas these replaced; an id outside the declared
    # classes, negative ones included, matches no row
    d, ids = case
    y = d.class_indices()
    rows = np.flatnonzero(np.isin(y, np.asarray(ids, dtype=np.intp)))
    kept = d.restrict_to_classes(ids)
    assert kept.values.tobytes() == d.values[rows].tobytes()
    assert kept.weights.tobytes() == d.weights[rows].tobytes()
    relabeled = d.relabel_binary(ids)
    binary = np.where(np.isin(y, np.asarray(sorted(ids), dtype=np.intp)), 0.0, 1.0)
    assert relabeled.values[:, 1].tobytes() == binary.tobytes()
    assert relabeled.values[:, 0].tobytes() == d.values[:, 0].tobytes()
    assert relabeled.class_names == ("s1", "s2")


def test_dataset_immutable():
    d = parse_csv("1,a\n2,b\n", class_column=1)
    with pytest.raises(ValueError):
        d.values[0, 0] = 9.0
    with pytest.raises(AttributeError):
        d.class_attribute = 0


def test_dataset_copies_the_callers_values():
    # the dataset freezes its values, so it must neither alias nor freeze
    # a C-contiguous float64 array handed to it
    attrs = [AttributeSpec("x"), AttributeSpec("c", ("a", "b"))]
    v = np.array([[1.0, 0.0], [2.0, 1.0]])
    d = Dataset(attrs, v, 1)
    assert d.values is not v and v.flags.writeable
    v[0, 0] = 5.0
    assert d.values[0, 0] == 1.0


# -- order codes ----------------------------------------------------------


def test_codes_rank_distinct_values():
    d = parse_arff(SMALL_ARFF)
    assert d.codes.dtype == np.uint16
    assert d.codes.tolist() == [[1, 2], [2, 0], [0, 1]]
    assert [v.tolist() for v in d.code_values] == [sorted(d.values[:, j].tolist()) for j in (0, 1)]
    with pytest.raises(ValueError):
        d.codes[0, 0] = 5
    with pytest.raises(ValueError):
        d.code_values[0][0] = 5.0


@pytest.mark.parametrize("distinct, dtype", [(1 << 16, np.uint16), ((1 << 16) + 1, np.uint32)])
def test_codes_widen_past_65536_distinct_values(distinct, dtype):
    x = np.arange(distinct, dtype=float)[::-1]
    attrs = [AttributeSpec("few"), AttributeSpec("x"), AttributeSpec("c", ("a", "b"))]
    d = Dataset(attrs, np.column_stack([x % 3, x, x % 2]), 2)
    assert d.codes.dtype == dtype
    assert np.array_equal(d.codes[:, 1], x)
    assert np.array_equal(d.codes[:, 0], x % 3)


_CODE_POOL = (-2.5, -0.0, 0.0, 1e-300, 0.5, 3.0, 3.0000000000000004, 1e300)


@st.composite
def _derivation_chains(draw):
    n = draw(st.integers(1, 12))
    n_numeric = draw(st.integers(1, 3))
    attrs = [AttributeSpec(f"x{j}") for j in range(n_numeric)]
    cols = [
        draw(st.lists(st.sampled_from(_CODE_POOL), min_size=n, max_size=n))
        for _ in range(n_numeric)
    ]
    class_at = draw(st.integers(0, n_numeric))
    attrs.insert(class_at, AttributeSpec("class", ("a", "b", "c", "d")))
    cols.insert(class_at, draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    # the row's origin, as one more numeric column: its codes are the ids
    attrs.append(AttributeSpec("origin"))
    cols.append(list(range(n)))
    weights = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    root = Dataset(attrs, np.asarray(cols, dtype=float).T, class_at, weights=weights)
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from((
                "subset", "restrict", "relabel", "weights",
                "bootstrap", "resample", "train", "test",
            )),
            st.lists(st.integers(0, 1 << 16), min_size=1, max_size=12),
        ),
        max_size=6,
    ))
    return root, steps


def _derive(d, step, draws):
    n = d.n_instances
    if step == "subset":
        return d.subset([i % n for i in draws])  # repeats are common
    if step == "restrict":
        return d.restrict_to_classes({i % 4 for i in draws})
    if step == "relabel":
        return d.relabel_binary({i % 4 for i in draws})
    if step == "weights":
        return d.with_weights([1.0 + draws[i % len(draws)] % 7 for i in range(n)])
    if step == "bootstrap":
        return bootstrap_sample(d, draws[0])
    if step == "resample":
        w = [draws[i % len(draws)] % 3 + 0.5 for i in range(n)]
        return weighted_resample(d, w, len(draws), draws[0])
    if n < 2:
        return d
    plan = stratified_folds(d, 2, 1, draws[0])
    train, test = train_test_split(d, plan, 0, draws[0] % 2)
    return train if step == "train" else test


@settings(max_examples=300, deadline=None)
@given(_derivation_chains())
def test_derived_codes_order_and_tie_as_values(chain):
    root, steps = chain
    d = root
    for step, draws in [(None, None)] + steps:
        if step is not None:
            if d.n_instances == 0:
                break
            d = _derive(d, step, draws)
        numeric = [j for j, a in enumerate(d.attributes) if not a.is_nominal]
        assert not d.codes.flags.writeable
        assert not d.values.flags.writeable and not d.weights.flags.writeable
        # trusted, yet valid: building it anew accepts it and ranks each
        # column as the inherited codes do, up to the ranks they skip
        fresh = Dataset(d.attributes, d.values, d.class_attribute, d.weights)
        assert fresh.weights.tobytes() == d.weights.tobytes()
        for c in range(len(numeric)):
            dense = np.unique(d.codes[:, c], return_inverse=True)[1]
            assert np.array_equal(fresh.codes[:, c], dense)
        assert d.codes.dtype == np.uint16 and d.codes.shape == (d.n_instances, len(numeric))
        # inherited: each row keeps the codes of the row it came from
        origin = d.values[:, numeric[-1]].astype(np.intp)
        assert np.array_equal(d.codes, root.codes[origin])
        for c, j in enumerate(numeric):
            codes, values = d.codes[:, c].astype(np.int64), d.values[:, j]
            assert np.array_equal(
                np.sign(codes[:, None] - codes[None, :]),
                np.sign(values[:, None] - values[None, :]),
            )
            # each code stands for its value, -0.0 and 0.0 for either
            assert np.array_equal(d.code_values[c][codes], values)
        assert d.code_values is root.code_values
        assert not any(v.flags.writeable for v in d.code_values)


# -- stratified folds ---------------------------------------------------


def test_folds_even_split():
    d = gaussian_dataset(np.zeros((2, 2)), per_class=50, seed=1)
    plan = stratified_folds(d, 10, 1, 3)
    y = d.class_indices()
    for fold in plan.assignments[0]:
        assert len(fold) == 10
        counts = np.bincount(y[fold], minlength=2)
        assert tuple(counts) == (5, 5)


def test_folds_deterministic():
    d = gaussian_dataset(np.zeros((3, 2)), per_class=17, seed=2)
    p1 = stratified_folds(d, 7, 3, 11)
    p2 = stratified_folds(d, 7, 3, 11)
    assert p1.fingerprint == p2.fingerprint
    for r in range(3):
        for f in range(7):
            np.testing.assert_array_equal(p1.assignments[r][f], p2.assignments[r][f])


def test_folds_zoo_sizes():
    d = load_uci("zoo")
    plan = stratified_folds(d, 10, 2, 9)
    for rep in plan.assignments:
        sizes = sorted(len(f) for f in rep)
        assert set(sizes) <= {10, 11}
        assert sum(sizes) == 101


@settings(max_examples=150, deadline=None)
@example(labels=None, k=5, repeats=2, seed=21)  # None stands for glass
@given(
    labels=st.lists(st.integers(0, 4), min_size=2, max_size=80),
    k=st.integers(2, 10),
    repeats=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_folds_partition_and_stratification(labels, k, repeats, seed):
    if labels is None:
        d = load_uci("glass")
    else:
        values = np.column_stack([np.zeros(len(labels)), labels])
        d = Dataset([AttributeSpec("x"), AttributeSpec("c", tuple("abcde"))], values, 1)
    assume(k <= d.n_instances)
    plan = stratified_folds(d, k, repeats, seed)
    y = d.class_indices()
    ideal = np.bincount(y, minlength=d.n_classes) / k
    for rep in plan.assignments:
        combined = np.concatenate(rep)
        assert len(combined) == d.n_instances
        assert len(np.unique(combined)) == d.n_instances
        for fold in rep:
            counts = np.bincount(y[fold], minlength=d.n_classes)
            assert np.all(np.abs(counts - ideal) <= 1.0)


def test_folds_invalid_k():
    d = parse_csv("1,a\n2,b\n3,a\n", class_column=1)
    with pytest.raises(InvalidK):
        stratified_folds(d, 4, 1, 0)
    with pytest.raises(InvalidK):
        stratified_folds(d, 1, 1, 0)


def test_train_test_split_covers_everything():
    d = load_uci("glass")
    plan = stratified_folds(d, 4, 1, 5)
    train, test = train_test_split(d, plan, 0, 2)
    assert train.n_instances + test.n_instances == d.n_instances


# -- resampling ---------------------------------------------------------


def test_bootstrap_singleton():
    # one instance, two declared labels (a single declared label is invalid)
    d = Dataset(
        [AttributeSpec("x"), AttributeSpec("c", ("a", "b"))],
        np.array([[5.0, 0.0]]),
        1,
    )
    s = bootstrap_sample(d, 0)
    assert s.n_instances == 1
    assert s.values[0, 0] == 5.0


def test_bootstrap_deterministic():
    d = gaussian_dataset(np.zeros((2, 2)), per_class=20, seed=3)
    s1 = bootstrap_sample(d, 77)
    s2 = bootstrap_sample(d, 77)
    np.testing.assert_array_equal(s1.values, s2.values)


def test_bootstrap_distinct_fraction():
    # mean distinct count over many seeds concentrates near n(1 - 1/e)
    d = gaussian_dataset(np.zeros((2, 2)), per_class=50, seed=4)
    distinct = []
    for seed in range(1000):
        s = bootstrap_sample(d, seed)
        distinct.append(len(np.unique(s.values[:, 0] * 1e9 + s.values[:, 1])))
    mean = np.mean(distinct)
    assert 60 <= mean <= 67


def test_weighted_resample_point_mass():
    d = parse_csv("1,a\n2,b\n3,a\n", class_column=1)
    s = weighted_resample(d, [1.0, 0.0, 0.0], size=5, seed=1)
    assert s.n_instances == 5
    assert np.all(s.values[:, 0] == 1.0)
    assert np.all(s.weights == 1.0)


def test_weighted_resample_degenerate():
    d = parse_csv("1,a\n2,b\n", class_column=1)
    with pytest.raises(DegenerateWeights):
        weighted_resample(d, [0.0, 0.0], size=2, seed=0)


def test_weighted_resample_deterministic():
    d = gaussian_dataset(np.zeros((2, 2)), per_class=25, seed=5)
    s1 = weighted_resample(d, np.arange(1.0, 51.0), size=30, seed=9)
    s2 = weighted_resample(d, np.arange(1.0, 51.0), size=30, seed=9)
    np.testing.assert_array_equal(s1.values, s2.values)


def test_weighted_resample_binomial_fraction():
    d = parse_csv("0,a\n1,b\n", class_column=1)
    s = weighted_resample(d, [3.0, 1.0], size=10_000, seed=123)
    frac = float(np.mean(s.values[:, 0] == 0.0))
    assert 0.73 <= frac <= 0.77


def test_weighted_resample_uniform_matches_bootstrap_distribution():
    # both should draw uniformly; chi-square on the index counts
    n = 20
    d = gaussian_dataset(np.zeros((2, 1)), per_class=10, seed=6)
    marked = Dataset(
        d.attributes,
        np.column_stack([np.arange(n, dtype=float), d.values[:, 1]]),
        1,
    )
    s = weighted_resample(marked, np.ones(n), size=10_000, seed=42)
    counts = np.bincount(s.values[:, 0].astype(int), minlength=n)
    _, p = stats.chisquare(counts)
    assert p > 0.01
