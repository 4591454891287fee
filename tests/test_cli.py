import re
import threading

import numpy as np
import pytest

from conftest import DATASETS_DIR, gaussian_dataset, serialize_arff
from nested_dichotomies.cli import (
    DatasetRef,
    ExperimentConfig,
    MethodSpec,
    main,
    parse_config,
    run_experiment,
)
from nested_dichotomies.data import parse_arff, stratified_folds
from nested_dichotomies.dichotomy import build_nd
from nested_dichotomies.ensemble import build_adaboost_ensemble, build_bagged_ensemble
from nested_dichotomies.errors import ConfigError
from nested_dichotomies.evaluation import run_cv
from nested_dichotomies.learners import LogisticParams, TreeParams
from nested_dichotomies.seeds import child_seed
from nested_dichotomies.selection import SubsetSelector

TINY_CSV = "\n".join(
    f"{x},{y},{'a' if x + y < 2 else 'b' if x < 2 else 'c'}"
    for x in range(4)
    for y in range(4)
) + "\n"


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


@pytest.fixture()
def tiny_dataset_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY_CSV)
    return path


@pytest.fixture()
def blob_arff(tmp_path):
    rng = np.random.default_rng(0)
    d = gaussian_dataset(rng.normal(size=(4, 2)) * 5, per_class=12, seed=1)
    path = tmp_path / "blobs.arff"
    path.write_text(serialize_arff(d, "blobs"))
    return path


def config_text(data_path, out_dir, extra="", replace=False):
    """A two-method config with the line(s) ``extra`` after it or, with
    ``replace``, the line(s) ``extra`` in place of the base line that sets
    the ``key`` of their first ``key = value`` line."""
    text = f"""
# tiny experiment
dataset = {data_path} format=csv class_col=2
k = 2
repeats = 1
seed = 5
out = {out_dir}
method = name=rpnd strategy=random_pair learner=tree min_leaf=1 prune=false
method = name=nd strategy=random learner=tree min_leaf=1 prune=false
{"" if replace else extra}
"""
    if replace:
        key = extra.partition("=")[0]
        (base,) = [line for line in text.splitlines() if line.partition("=")[0] == key]
        text = text.replace(base, extra)
    return text


def test_parse_config_round_trip(tiny_dataset_file, tmp_path):
    cfg = parse_config(config_text(tiny_dataset_file, tmp_path / "out"))
    assert cfg.k == 2 and cfg.repeats == 1
    assert [m.name for m in cfg.methods] == ["rpnd", "nd"]
    assert cfg.reference == "rpnd"
    assert cfg.datasets[0].format == "csv"


def test_parse_config_error_lines():
    with pytest.raises(ConfigError) as err:
        parse_config("k = 2\nbogus line\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        parse_config("method = strategy=random\n")  # missing name
    assert err.value.line == 1
    with pytest.raises(ConfigError) as err:
        parse_config("k = ten\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError) as err:
        parse_config("unknown_key = 3\n")
    assert err.value.line == 1


def test_parse_config_needs_method_and_dataset():
    with pytest.raises(ConfigError):
        parse_config("k = 2\n")


def test_run_experiment_structure(tiny_dataset_file, tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(config_text(tiny_dataset_file, out))
    report = run_experiment(cfg)
    assert report.exit_code == 0
    table = (out / "results.txt").read_text()
    assert table.splitlines()[0].split()[:3] == ["Dataset", "rpnd", "nd"]
    assert "tiny" in table
    csv = (out / "results.csv").read_text()
    assert csv.splitlines()[0] == "dataset,method,mean,std,t_vs_reference,significant,plan"
    assert len(csv.splitlines()) == 3
    timing = (out / "timing.csv").read_text()
    assert len(timing.splitlines()) == 1 + 2 * 2  # header + 2 methods x 2 runs


def test_rerun_byte_identical(tiny_dataset_file, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    r1 = run_experiment(parse_config(config_text(tiny_dataset_file, out1)))
    r2 = run_experiment(parse_config(config_text(tiny_dataset_file, out2)))
    assert r1.exit_code == r2.exit_code == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "results.txt").read_bytes() == (out2 / "results.txt").read_bytes()


def test_shared_plan_hash(tiny_dataset_file, tmp_path):
    out = tmp_path / "out"
    run_experiment(parse_config(config_text(tiny_dataset_file, out)))
    rows = (out / "results.csv").read_text().splitlines()[1:]
    plans = {row.split(",")[-1] for row in rows}
    assert len(plans) == 1


def test_missing_dataset_partial_failure(tiny_dataset_file, tmp_path):
    out = tmp_path / "out"
    text = config_text(tiny_dataset_file, out).replace(
        "k = 2", f"dataset = {tmp_path}/nope.csv format=csv\nk = 2"
    )
    report = run_experiment(parse_config(text))
    assert report.exit_code == 1
    assert (out / "results.csv").exists()  # partial results preserved


def test_cli_space_max2(capsys):
    assert main(["space", "--max-c", "2"]) == 0
    assert capsys.readouterr().out == "2,1,1,1\n"


PUBLISHED_SPACE = [
    (2, 1, 1), (3, 3, 3), (4, 15, 3), (5, 105, 30), (6, 945, 90),
    (7, 10395, 315), (8, 135135, 315), (9, 2027025, 11340),
    (10, 34459425, 113400), (11, 654729075, 1247400), (12, 13749310575, 3742200),
]


def test_cli_space_published_columns(capsys):
    assert main(["space", "--max-c", "12"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    for line, (c, full, balanced) in zip(lines, PUBLISHED_SPACE):
        got = line.split(",")
        assert int(got[0]) == c
        assert int(got[1]) == full
        assert int(got[2]) == balanced


def test_cli_inspect(blob_arff, capsys):
    assert main(["inspect", "--data", str(blob_arff), "--learner", "tree",
                 "--strategy", "class_balanced", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("[") == 7  # 4 leaves + 3 internal nodes


def test_cli_inspect_dot(blob_arff, capsys):
    assert main(["inspect", "--data", str(blob_arff), "--learner", "tree",
                 "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_cli_splits(blob_arff, capsys, tmp_path):
    out_file = tmp_path / "splits.csv"
    assert main(["splits", "--data", str(blob_arff), "--learner", "tree",
                 "--out", str(out_file)]) == 0
    c, distinct = out_file.read_text().strip().split(",")
    assert int(c) == 4
    assert 1 <= int(distinct) <= 6


def test_cli_proportions(blob_arff, capsys):
    assert main(["proportions", "--data", str(blob_arff), "--trees", "5",
                 "--learner", "tree"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.2 <= value <= 0.5


def test_cli_train_dumps_model(blob_arff, capsys):
    assert main(["train", "--data", str(blob_arff), "--seed", "2", "--method",
                 "name=m strategy=random_pair learner=logistic"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nested_dichotomy strategy=random_pair")
    assert "logistic" in out


@pytest.mark.parametrize(
    "kind, build", [("adaboost", build_adaboost_ensemble), ("bagging", build_bagged_ensemble)]
)
def test_cli_train_dumps_every_member_model(kind, build, capsys):
    zoo = DATASETS_DIR / "zoo.arff"
    method = f"name=m ensemble={kind} size=2 learner=tree"
    assert main(["train", "--data", str(zoo), "--method", method]) == 0
    out = capsys.readouterr().out
    member_lines = [line for line in out.splitlines() if line.startswith("member ")]
    assert len(member_lines) == 2
    # weights print as plain floats, not as numpy scalar reprs
    assert all(re.fullmatch(r"member \d weight=[\d.e+-]+ seed=\d+", line)
               for line in member_lines)
    model = build(parse_arff(zoo.read_text()), SubsetSelector(), TreeParams(), 2, 0)
    assert out == f"ensemble {kind} combiner={model.combiner} size=2\n" + "".join(
        f"member {i} weight={float(w)!r} seed={member.build_seed}\n" + member.to_model_text()
        for i, (member, w) in enumerate(zip(model.members, model.member_weights))
    )


def test_cli_train_dump_of_one_nd_is_its_model_text(capsys):
    zoo = DATASETS_DIR / "zoo.arff"
    assert main(["train", "--data", str(zoo), "--seed", "3", "--method",
                 "name=m learner=tree"]) == 0
    d = parse_arff(zoo.read_text())
    want = build_nd(d, SubsetSelector(), TreeParams(), 3).to_model_text()
    assert capsys.readouterr().out == want


def test_cli_train_has_no_cap_flag(blob_arff, capsys):
    # a method's cap= token is the one place that sets the cap
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(blob_arff), "--method", "name=m", "--cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


def test_method_cap_reaches_its_builder(tmp_path):
    rng = np.random.default_rng(0)
    d = gaussian_dataset(rng.normal(size=(5, 2)) * 2, per_class=20, spread=1.5, seed=1)
    data = tmp_path / "blobs.arff"
    data.write_text(serialize_arff(d, "blobs"))
    out = tmp_path / "out"
    cfg = parse_config(
        f"dataset = {data}\nk = 2\nrepeats = 1\nseed = 5\nout = {out}\n"
        "method = name=capped strategy=random_pair learner=logistic cap=2\n"
    )
    (method,) = cfg.methods
    assert method.strategy == SubsetSelector("random_pair", 2)
    assert run_experiment(cfg).exit_code == 0
    row = (out / "results.csv").read_text().splitlines()[1].split(",")

    plan = stratified_folds(d, 2, 1, child_seed(5, "blobs"))
    means = {}
    for cap in (2, None):
        selector = SubsetSelector("random_pair", cap)
        res = run_cv(d, lambda t, s: build_nd(t, selector, LogisticParams(), s), plan)
        means[cap] = f"{res.mean:.10f}"
    assert row[2] == means[2]
    assert means[2] != means[None]  # the cap moves this result


def test_cli_bad_config_exit_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense\n")
    assert main(["evaluate", "--config", str(cfg)]) == 2


def test_cli_evaluate_has_no_jobs_flag(tiny_dataset_file, tmp_path, capsys):
    # jobs is a config key only; the flag is an argparse usage error
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_text(tiny_dataset_file, tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--config", str(cfg), "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, extra, flags, reason",
    [
        ("evaluate", "method = name=capped strategy=random_pair learner=tree cap=0", [],
         "must be >= 1"),
        ("evaluate", "subsample_cap = 0", [], "unknown config key 'subsample_cap'"),
        ("evaluate", "jobs = 0", [], "must be >= 1"),
        ("inspect", "", ["--cap", "0"], "must be >= 1"),
        ("inspect", "", ["--strategy", "random", "--cap", "5"],
         "config error: --cap applies only to strategy random_pair\n"),
        ("train", "", ["--method", "name=m cap=0"], "cap must be >= 1"),
        ("splits", "", ["--cap", "0"], "must be >= 1"),
        ("proportions", "", ["--cap", "-3"], "must be >= 1"),
        ("train", "", ["--method", "name=m ridge=-1"], "ridge must be >= 0"),
        ("train", "", ["--method", "name=m ridge=inf"], "ridge must be >= 0 and finite"),
        ("train", "", ["--method", "name=m ridge=nan"], "ridge must be >= 0 and finite"),
        ("train", "", ["--method", "name=m tol=inf"], "tol must be > 0 and finite"),
        ("train", "", ["--method", "name=m size=2 size=3 ensemble=bagging"],
         "config error: token 'size' repeats\n"),
        ("evaluate", "", ["--seed", "-1"], "config error: --seed must be >= 0\n"),
        ("inspect", "", ["--seed", "-1"], "config error: --seed must be >= 0\n"),
        ("train", "", ["--method", "name=m", "--seed", "-1"],
         "config error: --seed must be >= 0\n"),
        ("splits", "", ["--seed", "-2"], "config error: --seed must be >= 0\n"),
        ("proportions", "", ["--seed", "-1"], "config error: --seed must be >= 0\n"),
        ("train", "", ["--method", "name=m size=5"],
         "config error: size applies only to an ensemble\n"),
    ],
    ids=[
        "method-cap", "subsample_cap", "jobs",
        "inspect-cap", "inspect-cap-on-random", "train-cap", "splits-cap", "proportions-cap",
        "train-ridge",
        "train-ridge-inf", "train-ridge-nan", "train-tol-inf", "train-repeated-token",
        "evaluate-seed", "inspect-seed", "train-seed", "splits-seed", "proportions-seed",
        "train-size-without-ensemble",
    ],
)
def test_cli_value_below_one_exit_two(
    tiny_dataset_file, tmp_path, capsys, command, extra, flags, reason
):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_text(tiny_dataset_file, tmp_path / "out", extra))
    if command == "evaluate":
        source = ["--config", str(cfg)]
    else:
        source = ["--data", str(tiny_dataset_file)]
    assert main([command, *source, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert reason in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra, reason, replace",
    [
        ("jobs = 0", "jobs must be >= 1", False),
        ("subsample_cap = 0", "unknown config key 'subsample_cap'", False),
        ("reference = missing", "reference method 'missing' not in the method list", False),
        # repeats "nd"
        ("method = name=nd strategy=random learner=logistic", "'nd' repeats", False),
        # a params check is reported under the option's token, not its field
        ("method = name=m learner=logistic ridge=-1", "ridge must be >= 0 and finite", False),
        ("method = name=m learner=logistic tol=0", "tol must be > 0 and finite", False),
        ("method = name=m tol=nan", "tol must be > 0 and finite", False),
        ("method = name=m learner=logistic max_iter=0", "max_iter must be >= 1", False),
        ("method = name=m learner=tree min_leaf=0", "min_leaf must be >= 1", False),
        ("method = name=m learner=tree min_leaf=2.5", "bad value for min_leaf", False),
        ("method = name=m learner=tree cf=0", "cf must be in (0, 0.5]", False),
        ("method = name=m learner=tree cf=0.9", "cf must be in (0, 0.5]", False),
        ("method = name=m learner=tree cf=1e-20", "cf must exceed 2**-54", False),
        ("method = name=m learner=logistic min_leaf=7 cf=0.4",
         "'min_leaf' is a tree option, not a logistic one", False),
        ("method = name=m learner=tree ridge=1", "'ridge' is a logistic option, not a tree one", False),
        ("method = name=m ridge=inf", "ridge must be >= 0 and finite", False),
        ("method = name=m tol=inf", "tol must be > 0 and finite", False),
        ("method = name=m strategy=random_pair cap=0", "cap must be >= 1", False),
        ("method = name=m strategy=random cap=5",
         "cap applies only to strategy random_pair", False),
        ("method = name=m ensemble=bagging size=0", "size must be >= 1", False),
        ("method = name=m size=0", "size must be >= 1", False),
        ("method = name=m size=5", "size applies only to an ensemble", False),
        # results.csv and timing.csv would get more fields than their headers
        ("method = name=a,b", "method name 'a,b' holds a comma", False),
        ("dataset = z,oo.arff", "dataset id 'z,oo' holds a comma", False),
        ("dataset = other.csv class_col=x",
         "bad value for class_col: invalid literal for int() with base 10: 'x'", False),
        ("seed = -1", "seed must be >= 0", True),
        ("k = 1", "k must be >= 2", True),
        ("k = 0", "k must be >= 2", True),
        ("repeats = 0", "repeats must be >= 1", True),
        ("seed = 7", "config keys must be unique: 'seed' repeats (first seed at line 6)", False),
        # a token set twice on one line is an error, not the last value
        ("method = name=m size=2 size=3 ensemble=bagging", "token 'size' repeats", False),
        ("method = name=m learner=tree learner=logistic", "token 'learner' repeats", False),
        ("dataset = other.csv format=csv format=arff", "token 'format' repeats", False),
        # the first bad line in file order is the one reported
        ("k = 1\nmethod = name=nd strategy=random learner=logistic", "k must be >= 2", True),
        ("foo = 1\nfoo = 1", "unknown config key 'foo'", False),
        ("k = x\nmethod = name=m strategy=random cap=5", "expected an integer for 'k'", True),
    ],
    ids=[
        "jobs", "subsample_cap", "reference", "duplicate-method",
        "ridge", "tol", "tol-nan", "max_iter", "min_leaf", "min_leaf-float", "cf-zero", "cf-high",
        "cf-tiny",
        "tree-option-on-logistic", "ridge-on-tree", "ridge-inf", "tol-inf", "cap",
        "cap-on-random", "size", "size-zero-without-ensemble", "size-without-ensemble",
        "comma-in-method-name", "comma-in-dataset-id", "class_col",
        "seed", "k-one", "k-zero", "repeats", "duplicate-seed",
        "repeated-method-token", "repeated-learner-token", "repeated-dataset-token",
        "k-before-duplicate-method", "unknown-key-twice", "k-before-bad-method",
    ],
)
def test_config_value_error_reports_its_line(
    tiny_dataset_file, tmp_path, capsys, extra, reason, replace
):
    out = tmp_path / "out"
    text = config_text(tiny_dataset_file, out, extra, replace)
    # the error is at the first line of ``extra``
    line = text.splitlines().index(extra.splitlines()[0]) + 1
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"config line {line}: ")
    # anchored after the line number, so "cap" does not match "subsample_cap"
    assert f": {reason}" in str(err.value)

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["evaluate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {err.value}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("k", "3"), ("repeats", "2"), ("seed", "7"), ("reference", "nd"), ("out", "elsewhere"),
     ("jobs", "2")],
)
def test_repeated_scalar_key_is_a_config_error(tiny_dataset_file, tmp_path, key, value):
    # each key once is valid; set twice, the second line is the error and
    # names the first
    line = f"{key} = {value}"
    base_keys = ("k", "repeats", "seed", "out")
    once = config_text(tiny_dataset_file, tmp_path / "out", line, key in base_keys)
    parse_config(once)
    first = once.splitlines().index(line) + 1
    twice = f"{once}{line}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(twice)
    assert err.value.line == len(twice.splitlines())
    assert str(err.value).endswith(
        f": config keys must be unique: {key!r} repeats (first {key} at line {first})"
    )


@pytest.mark.parametrize(
    "dataset, fmt",
    [("zoo.arff format=xml", "xml"), ("zoo.txt", "txt")],
    ids=["format-xml", "txt-extension"],
)
def test_unknown_dataset_format_is_a_config_error(tmp_path, capsys, dataset, fmt):
    (tmp_path / "zoo.arff").write_text((DATASETS_DIR / "zoo.arff").read_text())
    (tmp_path / "zoo.txt").write_text((DATASETS_DIR / "zoo.arff").read_text())
    out = tmp_path / "out"
    text = config_text(tmp_path / "tiny.csv", out).replace(
        "k = 2", f"dataset = {tmp_path / dataset}\nk = 2"
    )
    line = next(i for i, row in enumerate(text.splitlines(), 1) if "zoo" in row)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert f"unknown dataset format {fmt!r}" in str(err.value)

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["evaluate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: config line {line}: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "options, option",
    [
        ("class_col=0 header=true", "class_col"),
        ("header=false", "header"),
        ("format=arff class_col=-1", "class_col"),
    ],
    ids=["class_col-header", "header", "class_col-format-arff"],
)
def test_csv_only_option_on_an_arff_dataset_is_a_config_error(tmp_path, capsys, options, option):
    out = tmp_path / "out"
    zoo = DATASETS_DIR / "zoo.arff"
    text = config_text(tmp_path / "tiny.csv", out).replace(
        "k = 2", f"dataset = {zoo} {options}\nk = 2"
    )
    line = next(i for i, row in enumerate(text.splitlines(), 1) if "zoo" in row)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["evaluate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: config line {line}: dataset option {option!r} applies to csv only\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "dataset, fmt",
    [
        ("zoo.arff format=ARFF", "arff"),
        ("tiny.csv format=Csv class_col=2", "csv"),
        ("zoo.ARFF", "arff"),
    ],
    ids=["format-ARFF", "format-Csv", "ARFF-extension"],
)
def test_dataset_format_case_is_ignored(tmp_path, dataset, fmt):
    # a format token and a file extension follow one rule: case is ignored
    (tmp_path / "zoo.arff").write_text((DATASETS_DIR / "zoo.arff").read_text())
    (tmp_path / "zoo.ARFF").write_text((DATASETS_DIR / "zoo.arff").read_text())
    (tmp_path / "tiny.csv").write_text(TINY_CSV)
    text = f"dataset = {tmp_path / dataset}\nmethod = name=nd\n"
    ref = parse_config(text).datasets[0]
    assert ref.format == fmt
    assert ref.load().n_instances == (101 if fmt == "arff" else 16)


def test_cli_data_with_unknown_extension_exit_two(tmp_path, capsys):
    data = tmp_path / "zoo.txt"
    data.write_text((DATASETS_DIR / "zoo.arff").read_text())
    assert main(["inspect", "--data", str(data)]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown dataset format 'txt' for {data}\n"
    )


def test_hash_inside_dataset_path_is_not_a_comment(tmp_path):
    data_dir = tmp_path / "a#b"
    data_dir.mkdir()
    data = data_dir / "tiny.csv"
    data.write_text(TINY_CSV)
    out = tmp_path / "out"
    cfg = parse_config(config_text(data, out, "jobs = 2  # a comment\n#k = 3"))
    assert cfg.datasets[0].path == str(data)
    assert (cfg.jobs, cfg.k) == (2, 2)
    report = run_experiment(cfg)
    assert report.exit_code == 0 and report.failures == []
    assert (out / "results.csv").read_text().splitlines()[1].startswith("tiny,rpnd,")


NON_FINITE_ARFF = (
    "@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\ninf,a\n1,b\n2,a\n"
)


def test_cli_train_non_finite_value_exit_one(tmp_path, capsys):
    path = tmp_path / "inf.arff"
    path.write_text(NON_FINITE_ARFF)
    assert main(["train", "--data", str(path), "--method", "name=m"]) == 1
    assert capsys.readouterr().err == "error: line 5: non-finite value for attribute 'x'\n"


def test_non_finite_dataset_is_a_dataset_failure(tiny_dataset_file, tmp_path):
    bad = tmp_path / "bad.arff"
    bad.write_text(NON_FINITE_ARFF)
    out = tmp_path / "out"
    text = config_text(tiny_dataset_file, out).replace("k = 2", f"dataset = {bad}\nk = 2")
    report = run_experiment(parse_config(text))
    assert report.exit_code == 1
    assert report.failures == ["bad: line 5: non-finite value for attribute 'x'"]
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["tiny", "rpnd"], ["tiny", "nd"]]


@pytest.mark.parametrize(
    "name, content, failure",
    [
        ("latin1.arff", NON_FINITE_ARFF.replace("inf,a", "1,a").encode() + b"2,\xe9\n",
         "line 8: not UTF-8 text: byte 0xe9"),
        # the mark is dropped, and the bad byte is still named on its line
        ("bom.arff", BOM + NON_FINITE_ARFF.replace("inf,a", "1,a").encode()
         + b"2,\xe9\n", "line 8: not UTF-8 text: byte 0xe9"),
        ("one.arff", b"@relation r\n@attribute x numeric\n@attribute c {b}\n@data\n1,b\n",
         "line 3: class attribute 'c' has only the label 'b'; at least 2 are needed"),
        ("one.csv", b"1,b\n2,b\n",
         "line 1: class attribute 'col1' has only the label 'b'; at least 2 are needed"),
        ("long.csv", b"1,a\n2," + b"x" * 200_000 + b"\n",
         "line 2: field larger than field limit (131072)"),
    ],
    ids=["non-utf8", "bom-non-utf8", "arff-one-label", "csv-one-label", "csv-long-field"],
)
def test_unreadable_dataset_is_a_dataset_failure(
    tiny_dataset_file, tmp_path, capsys, name, content, failure
):
    bad = tmp_path / name
    bad.write_bytes(content)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_text(tiny_dataset_file, out).replace("k = 2", f"dataset = {bad}\nk = 2"))
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {bad.stem}: {failure}\n"
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["tiny", "rpnd"], ["tiny", "nd"]]


def test_dataset_behind_a_byte_order_mark_reads_as_without(tiny_dataset_file, tmp_path, capsys):
    zoo = DATASETS_DIR / "zoo.arff"
    bom_zoo = tmp_path / "zoo.arff"
    bom_zoo.write_bytes(BOM + zoo.read_bytes())
    dumps = []
    for path in (zoo, bom_zoo):
        assert main(["inspect", "--data", str(path), "--seed", "7"]) == 0
        dumps.append(capsys.readouterr().out)
    assert dumps[0] == dumps[1]
    bom_csv = tmp_path / "bom.csv"
    bom_csv.write_bytes(BOM + tiny_dataset_file.read_bytes())
    d = DatasetRef(str(bom_csv)).load()
    assert not d.attributes[0].is_nominal  # the first value reads 0, not "\ufeff0"
    assert np.array_equal(d.values, DatasetRef(str(tiny_dataset_file)).load().values)


def test_config_behind_a_byte_order_mark_reads_as_without(tiny_dataset_file, tmp_path):
    # the config opens with its dataset line, so a kept mark would be
    # part of the key
    text = config_text(tiny_dataset_file, tmp_path / "out").replace("\n# tiny experiment\n", "")
    assert text.startswith("dataset = ")
    csv_files = []
    for name, prefix in (("plain", b""), ("bom", BOM)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(prefix + text.encode())
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        csv_files.append((tmp_path / name / "results.csv").read_bytes())
    assert csv_files[0] == csv_files[1]


def test_non_utf8_config_is_a_config_error(tiny_dataset_file, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(config_text(tiny_dataset_file, tmp_path / "out").encode() + b"# \xff\n")
    line = cfg.read_bytes().count(b"\n")
    assert main(["evaluate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: config line {line}: not UTF-8 text: byte 0xff\n"
    assert not (tmp_path / "out").exists()


def test_cli_evaluate_end_to_end(tiny_dataset_file, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_text(tiny_dataset_file, tmp_path / "out"))
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "results.txt").exists()


def test_parallel_jobs_match_serial(tiny_dataset_file, tmp_path):
    out1, out2 = tmp_path / "s", tmp_path / "p"
    run_experiment(parse_config(config_text(tiny_dataset_file, out1)))
    run_experiment(parse_config(config_text(tiny_dataset_file, out2, "jobs = 4")))
    assert (out1 / "results.csv").read_text() == (out2 / "results.csv").read_text()


def wrap_builders(monkeypatch, wrap):
    """Make every method's builder ``wrap(method, builder)``."""
    make_builder = MethodSpec.make_builder
    monkeypatch.setattr(
        MethodSpec, "make_builder", lambda self: wrap(self, make_builder(self))
    )


def test_cells_run_on_the_calling_thread(tiny_dataset_file, tmp_path, monkeypatch):
    threads = []

    def wrap(method, builder):
        def recording(train, seed):
            threads.append(threading.get_ident())
            return builder(train, seed)

        return recording

    wrap_builders(monkeypatch, wrap)
    cfg = parse_config(config_text(tiny_dataset_file, tmp_path / "out", "jobs = 4"))
    assert run_experiment(cfg).exit_code == 0
    assert threads == [threading.get_ident()] * 4  # 2 methods x 2 folds


def test_outputs_are_byte_identical_for_any_jobs(tiny_dataset_file, tmp_path):
    def outputs(jobs):
        out = tmp_path / f"jobs{jobs}"
        text = config_text(tiny_dataset_file, out, f"jobs = {jobs}").replace(
            "k = 2", f"dataset = {DATASETS_DIR / 'zoo.arff'}\nk = 2"
        )
        assert run_experiment(parse_config(text)).exit_code == 0
        timing = (out / "timing.csv").read_text().splitlines()
        # train_ms is a measurement; the columns that key it are not
        keys = [line.rsplit(",", 1)[0] for line in timing]
        return (out / "results.csv").read_bytes(), keys

    serial = outputs(1)
    assert len(serial[1]) == 1 + 2 * 2 * 2  # header + 2 datasets x 2 methods x 2 runs
    assert outputs(2) == serial
    assert outputs(4) == serial


def test_failed_method_leaves_the_others_written(
    tiny_dataset_file, tmp_path, monkeypatch, capsys
):
    def wrap(method, builder):
        if method.name != "rpnd":
            return builder

        def failing(train, seed):
            raise RuntimeError("boom")

        return failing

    wrap_builders(monkeypatch, wrap)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_text(tiny_dataset_file, out))
    # rpnd is the first cell, so nd runs after it failed
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: tiny/rpnd: repeat 0 fold 0: boom\n"
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["tiny", "nd"]]
    timing = (out / "timing.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:4] for row in timing] == [
        ["tiny", "nd", "0", "0"], ["tiny", "nd", "0", "1"]
    ]


def three_dataset_config(tiny_dataset_file, tmp_path, out):
    """zoo, a missing file and tiny, in that config order, which is not
    the order of their names."""
    return config_text(tiny_dataset_file, out).replace(
        f"dataset = {tiny_dataset_file}",
        f"dataset = {DATASETS_DIR / 'zoo.arff'}\n"
        f"dataset = {tmp_path / 'missing.csv'}\n"
        f"dataset = {tiny_dataset_file}",
    )


def test_datasets_around_an_unloadable_one_are_written_in_config_order(
    tiny_dataset_file, tmp_path, capsys
):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(three_dataset_config(tiny_dataset_file, tmp_path, out))
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: missing: ")
    rows = [row.split(",")[:2] for row in (out / "results.csv").read_text().splitlines()[1:]]
    assert rows == [["zoo", "rpnd"], ["zoo", "nd"], ["tiny", "rpnd"], ["tiny", "nd"]]
    table = (out / "results.txt").read_text().splitlines()
    assert [line.split()[0] for line in table[2:]] == ["zoo", "tiny"]
    # timing.csv follows results.csv: per row, its runs in repeat and fold order
    timing = [row.split(",")[:4] for row in (out / "timing.csv").read_text().splitlines()[1:]]
    assert timing == [[*row, "0", str(f)] for row in rows for f in (0, 1)]


def test_failures_are_reported_in_config_order(
    tiny_dataset_file, tmp_path, monkeypatch, capsys
):
    def wrap(method, builder):
        if method.name != "nd":
            return builder

        def failing(train, seed):
            raise RuntimeError("boom")

        return failing

    wrap_builders(monkeypatch, wrap)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(three_dataset_config(tiny_dataset_file, tmp_path, out))
    assert main(["evaluate", "--config", str(cfg)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[1] for line in lines] == ["zoo/nd", "missing", "tiny/nd"]
    rows = [row.split(",")[:2] for row in (out / "results.csv").read_text().splitlines()[1:]]
    assert rows == [["zoo", "rpnd"], ["tiny", "rpnd"]]
    assert not (out / "results.txt").exists()


def test_zoo_single_rpnd_logistic_accuracy_band(tmp_path):
    # full 10x10 CV on the real zoo data; the paper reports 90.41 +- 9.15
    out = tmp_path / "zoo_check"
    cfg = ExperimentConfig(
        datasets=(DatasetRef(str(DATASETS_DIR / "zoo.arff")),),
        methods=(
            MethodSpec(name="rpnd", strategy=SubsetSelector("random_pair"),
                       learner=LogisticParams()),
        ),
        k=10,
        repeats=10,
        seed=31,
        out=str(out),
    )
    report = run_experiment(cfg)
    assert report.exit_code == 0
    row = (out / "results.csv").read_text().splitlines()[1].split(",")
    mean = 100 * float(row[2])
    assert 85.0 <= mean <= 96.0


def test_dataset_too_small_for_k_is_a_dataset_failure(tiny_dataset_file, tmp_path, capsys):
    # the 16-row CSV cannot be cut into 40 folds; zoo can, and its
    # results are still written
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        config_text(tiny_dataset_file, out)
        .replace("k = 2", f"dataset = {DATASETS_DIR / 'zoo.arff'}\nk = 40")
    )
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: tiny: k=40 exceeds the instance count 16\n"
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["zoo", "rpnd"], ["zoo", "nd"]]
    assert "zoo" in (out / "results.txt").read_text()


def test_repeated_dataset_id_is_a_config_error(tmp_path, capsys):
    # a/t.csv and b/t.csv share the id "t", which keys results and seeds
    # the fold plan
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "t.csv").write_text(TINY_CSV)
    out = tmp_path / "out"
    text = config_text(tmp_path / "a" / "t.csv", out).replace(
        "k = 2", f"dataset = {tmp_path / 'b' / 't.csv'} format=csv class_col=2\nk = 2"
    )
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines, 1) if line.startswith("dataset"))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == first + 1
    assert "'t' repeats" in str(err.value) and f"line {first}" in str(err.value)

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config line {first + 1}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["proportions", "--trees", "0"], "--trees must be >= 1"),
        (["proportions", "--trees", "-2"], "--trees must be >= 1"),
        (["space", "--max-c", "1"], "--max-c must be >= 2"),
        (["space", "--max-c", "0"], "--max-c must be >= 2"),
        (["space", "--max-c", "-3"], "--max-c must be >= 2"),
    ],
)
def test_cli_rejects_trees_and_max_c(argv, message, blob_arff, capsys):
    if argv[0] == "proportions":
        argv = argv + ["--data", str(blob_arff)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: {message}\n")


def test_cli_too_few_classes_is_a_data_failure(tmp_path, capsys):
    d = gaussian_dataset(np.array([[0.0, 0.0], [5.0, 5.0]]), per_class=10, seed=1)
    path = tmp_path / "two.arff"
    path.write_text(serialize_arff(d, "two"))
    assert main(["splits", "--data", str(path)]) == 1
    assert capsys.readouterr().err == "error: census needs at least 3 classes\n"
    assert main(["proportions", "--data", str(path), "--trees", "2"]) == 1
    assert capsys.readouterr().err == "error: no internal nodes with >= 3 classes\n"


def test_evaluate_builds_one_layout_per_parsed_dataset(tmp_path, layouts_built, capsys):
    cfg = tmp_path / "segment.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"dataset = {DATASETS_DIR / 'segment.arff'}",
                "k = 2",
                "repeats = 1",
                "jobs = 2",
                f"out = {tmp_path / 'out'}",
                "method = name=rpnd strategy=random_pair learner=logistic max_iter=1000",
                "method = name=ada strategy=centroid learner=logistic ensemble=adaboost"
                " size=2 max_iter=1000",
                "method = name=multi strategy=random learner=tree ensemble=multiboost size=2",
            ]
        )
        + "\n"
    )
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert len(layouts_built) == 1
