"""Experiment orchestration and command-line entry points.

Configs are flat ``key = value`` lines (repeatable ``dataset`` and
``method`` keys); see the README for the full grammar.  Every method in
an experiment is evaluated on the identical per-dataset fold plan, and
the machine-readable results file is byte-identical across reruns of the
same config.  Exit codes: 0 success, 1 partial failure (some
dataset/method combination failed; everything else is still written),
2 configuration problem.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .combinatorics import (
    enumerate_splits,
    measure_subset_proportions,
    space_table,
)
from .data import Dataset, parse_arff, parse_csv, stratified_folds
from .dichotomy import build_nd
from .ensemble import ENSEMBLE_KINDS
from .errors import ConfigError, InvalidParam, NDError, ParseError
from .evaluation import CVResult, corrected_t, format_results_table, run_cv
from .learners import LearnerParams, LogisticParams, TreeParams
from .learners.base import check_count
from .seeds import child_seed
from .selection import STRATEGIES, SubsetSelector

# ensemble kind -> builder; MethodSpec looks its builder up here at call
# time, so that a wrapper put in this table (as perfbench's tracer does) runs
_ENSEMBLE_BUILDERS = {kind: build for kind, (build, _) in ENSEMBLE_KINDS.items()}

# learner name -> (params type, {method token: params field}); the params
# type owns each option's default and its check
_LEARNERS = {
    "logistic": (
        LogisticParams,
        {"ridge": "ridge", "max_iter": "max_iterations", "tol": "gradient_tolerance"},
    ),
    "tree": (
        TreeParams,
        {
            "min_leaf": "min_instances_per_leaf",
            "cf": "pruning_confidence",
            "gain_ratio": "use_gain_ratio",
            "prune": "prune",
        },
    ),
}
_DEFAULT_LEARNER = "logistic"


def _read_utf8(path, error):
    """The text of the file at ``path``, without a leading byte-order
    mark; bytes that are not UTF-8 raise ``error(line, reason)``, on the
    line that holds the first of them."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(line, f"not UTF-8 text: byte {exc.object[exc.start]:#04x}") from None


@dataclass(frozen=True)
class DatasetRef:
    path: str
    format: str = ""  # "arff" or "csv", any case; from the extension when empty
    class_col: int = -1
    header: bool = False

    def __post_init__(self):
        fmt = (self.format or Path(self.path).suffix.lstrip(".")).lower()
        if fmt not in ("arff", "csv"):
            raise ValueError(f"unknown dataset format {fmt!r} for {self.path}")
        object.__setattr__(self, "format", fmt)

    @property
    def dataset_id(self) -> str:
        return Path(self.path).stem

    def load(self) -> Dataset:
        text = _read_utf8(self.path, ParseError)
        if self.format == "arff":
            return parse_arff(text)
        return parse_csv(text, class_column=self.class_col, header=self.header)


@dataclass(frozen=True)
class MethodSpec:
    name: str
    strategy: SubsetSelector = SubsetSelector()
    learner: LearnerParams = LogisticParams()
    ensemble_kind: str = "none"
    size: int = 1

    def __post_init__(self):
        if self.ensemble_kind not in ("none", *ENSEMBLE_KINDS):
            raise ValueError(f"unknown ensemble kind {self.ensemble_kind!r}")
        check_count("size", self.size, 1)
        if self.ensemble_kind == "none" and self.size != 1:
            raise InvalidParam("size", "applies only to an ensemble")

    def make_builder(self):
        def builder(train: Dataset, seed: int):
            if self.ensemble_kind == "none":
                return build_nd(train, self.strategy, self.learner, seed)
            build = _ENSEMBLE_BUILDERS[self.ensemble_kind]
            return build(train, self.strategy, self.learner, self.size, seed)

        return builder


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment's settings, as :func:`parse_config` checked them."""

    datasets: tuple[DatasetRef, ...]
    methods: tuple[MethodSpec, ...]
    k: int = 10
    repeats: int = 10
    seed: int = 1
    reference: str = ""  # defaults to the first method
    out: str = "results"
    jobs: int = 1


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

# integer config key -> its least value; ``reference`` and ``out`` are strings
_INT_KEYS = {"k": 2, "repeats": 1, "seed": 0, "jobs": 1}
_SCALAR_KEYS = {*_INT_KEYS, "reference", "out"}

# what a repeat error says must be unique, per repeatable key (else "config keys")
_UNIQUE = {"dataset": "dataset ids (file stems)", "method": "method names"}

_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}

# a comment starts at a '#' that opens the line or follows whitespace, so
# that a '#' inside a path or a token is kept
_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_bool(value: str, lineno: int) -> bool:
    try:
        return _BOOLS[value.lower()]
    except KeyError:
        raise ConfigError(lineno, f"expected a boolean, got {value!r}") from None


def _parse_tokens(text: str, lineno: int) -> dict[str, str]:
    out = {}
    for token in text.split():
        if "=" not in token:
            raise ConfigError(lineno, f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        if not key or not value:
            raise ConfigError(lineno, f"expected key=value, got {token!r}")
        if key in out:
            raise ConfigError(lineno, f"token {key!r} repeats")
        out[key] = value
    return out


# method token -> (owner, field, converter): a MethodSpec or SubsetSelector
# field; learner options come from the learner's row of _LEARNERS
_METHOD_TOKENS = {
    "name": ("spec", "name", str),
    "strategy": ("selector", "strategy_id", str),
    "ensemble": ("spec", "ensemble_kind", str),
    "size": ("spec", "size", int),
    "cap": ("selector", "subsample_cap", int),
}


def _convert(key: str, value: str, convert, lineno: int):
    if convert is bool:
        return _parse_bool(value, lineno)
    try:
        return convert(value)
    except ValueError as exc:
        raise ConfigError(lineno, f"bad value for {key}: {exc}") from None


def _method_from_tokens(tokens: dict[str, str], lineno: int) -> MethodSpec:
    if "name" not in tokens:
        raise ConfigError(lineno, "method needs a name=... token")
    kind = tokens.get("learner", _DEFAULT_LEARNER)
    if kind not in _LEARNERS:
        raise ConfigError(lineno, f"unknown learner {kind!r}")
    params_type, options = _LEARNERS[kind]
    defaults = params_type()
    fields, params = {"spec": {}, "selector": {}}, {}
    for key, value in tokens.items():
        if key == "learner":
            continue
        if key in _METHOD_TOKENS:
            owner, field_name, convert = _METHOD_TOKENS[key]
            fields[owner][field_name] = _convert(key, value, convert, lineno)
        elif key in options:
            field_name = options[key]
            convert = type(getattr(defaults, field_name))
            params[field_name] = _convert(key, value, convert, lineno)
        else:
            owner = next((k for k, (_, o) in _LEARNERS.items() if key in o), None)
            if owner is None:
                raise ConfigError(lineno, f"unknown method option {key!r}")
            raise ConfigError(lineno, f"{key!r} is a {owner} option, not a {kind} one")
    try:
        strategy = SubsetSelector(**fields["selector"])
        return MethodSpec(strategy=strategy, learner=params_type(**params), **fields["spec"])
    except InvalidParam as exc:
        # name the option by its token, not by the field that checks it
        token = {f: t for t, (_, f, _) in _METHOD_TOKENS.items()}
        token.update((f, t) for t, f in options.items())
        raise ConfigError(lineno, f"{token[exc.field]} {exc.requirement}") from None
    except ValueError as exc:
        raise ConfigError(lineno, str(exc)) from None


def parse_config(text: str) -> ExperimentConfig:
    """Read a config in one pass, checking each value at the line that sets
    it, so that the first bad line in file order is the one reported."""
    entries: dict[str, list] = {"dataset": [], "method": []}
    scalars: dict[str, int | str] = {}
    # (key, dataset id, method name or scalar key) -> line of the first entry
    first_line: dict[tuple[str, str], int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ConfigError(lineno, f"empty value for {key!r}")
        if key == "dataset":
            parts = value.split()
            tokens = _parse_tokens(" ".join(parts[1:]), lineno)
            bad = set(tokens) - {"format", "class_col", "header"}
            if bad:
                raise ConfigError(lineno, f"unknown dataset option {bad.pop()!r}")
            try:
                entry = DatasetRef(
                    path=parts[0],
                    format=tokens.get("format", ""),
                    class_col=_convert(
                        "class_col", tokens.get("class_col", "-1"), int, lineno
                    ),
                    header=_parse_bool(tokens.get("header", "false"), lineno),
                )
            except ValueError as exc:
                raise ConfigError(lineno, str(exc)) from None
            csv_only = sorted({"class_col", "header"} & set(tokens))
            if entry.format != "csv" and csv_only:
                raise ConfigError(lineno, f"dataset option {csv_only[0]!r} applies to csv only")
            name = entry.dataset_id
        elif key == "method":
            entry = _method_from_tokens(_parse_tokens(value, lineno), lineno)
            name = entry.name
        elif key in _SCALAR_KEYS:
            name = key
        else:
            raise ConfigError(lineno, f"unknown config key {key!r}")
        if key in _UNIQUE and "," in name:
            # results.csv and timing.csv separate their fields by commas
            what = "dataset id" if key == "dataset" else "method name"
            raise ConfigError(lineno, f"{what} {name!r} holds a comma")
        first = first_line.setdefault((key, name), lineno)
        if first != lineno:
            raise ConfigError(
                lineno,
                f"{_UNIQUE.get(key, 'config keys')} must be unique: {name!r} repeats"
                f" (first {key} at line {first})",
            )
        if key in entries:
            entries[key].append(entry)
        elif key in _INT_KEYS:
            try:
                scalars[key] = int(value)
            except ValueError:
                raise ConfigError(lineno, f"expected an integer for {key!r}") from None
            if scalars[key] < _INT_KEYS[key]:
                raise ConfigError(lineno, f"{key} must be >= {_INT_KEYS[key]}")
        else:
            scalars[key] = value

    if not entries["dataset"]:
        raise ConfigError(0, "at least one dataset required")
    if not entries["method"]:
        raise ConfigError(0, "at least one method required")
    names = [m.name for m in entries["method"]]
    scalars.setdefault("reference", names[0])
    if scalars["reference"] not in names:
        raise ConfigError(
            first_line["reference", "reference"],
            f"reference method {scalars['reference']!r} not in the method list",
        )
    return ExperimentConfig(
        datasets=tuple(entries["dataset"]), methods=tuple(entries["method"]), **scalars
    )


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    exit_code: int
    files: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Evaluate every method on every dataset over one shared fold plan
    per dataset, then write the results table, the machine-readable
    results file, and the per-run timing file.  Each dataset is loaded,
    folded and run through every method before the next, in config order,
    and a failed dataset or cell does not stop the rest.  An empty
    ``cfg.reference`` means the first method; ``cfg.jobs`` is unused."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = ExperimentReport(exit_code=0)

    # per dataset that could be folded, method name -> result, in config order
    results: list[dict[str, CVResult]] = []
    for ref in cfg.datasets:
        try:
            d = ref.load()
            plan = stratified_folds(
                d, cfg.k, cfg.repeats, child_seed(cfg.seed, ref.dataset_id)
            )
        except (OSError, NDError) as exc:
            report.failures.append(f"{ref.dataset_id}: {exc}")
            continue
        row = {}
        for method in cfg.methods:
            try:
                row[method.name] = run_cv(
                    d, method.make_builder(), plan, ref.dataset_id, method.name
                )
            except Exception as exc:
                report.failures.append(f"{ref.dataset_id}/{method.name}: {exc}")
        results.append(row)

    _write_outputs(cfg, results, out_dir, report)
    if report.failures:
        report.exit_code = 1
        for failure in report.failures:
            print(f"error: {failure}", file=sys.stderr)
    return report


def _write_outputs(cfg, results, out_dir: Path, report):
    names = [m.name for m in cfg.methods]
    reference = cfg.reference or names[0]

    grid = [list(row.values()) for row in results if len(row) == len(names)]
    if grid:
        table = format_results_table(grid, reference=names.index(reference))
        table_path = out_dir / "results.txt"
        table_path.write_text(table)
        report.files.append(str(table_path))

    csv_lines = ["dataset,method,mean,std,t_vs_reference,significant,plan"]
    timing_lines = ["dataset,method,repeat,fold,train_ms"]
    for row in results:
        base = row.get(reference)
        for name, res in row.items():
            if name == reference or base is None:
                t_txt, sig_txt = "", ""
            else:
                outcome = corrected_t(base, res)
                t_txt = f"{outcome.t:.6f}" if math.isfinite(outcome.t) else (
                    "inf" if outcome.t > 0 else "-inf"
                )
                sig_txt = "1" if outcome.significant else "0"
            csv_lines.append(
                f"{res.dataset_id},{res.method_id},{res.mean:.10f},{res.std:.10f},"
                f"{t_txt},{sig_txt},{res.plan_fingerprint}"
            )
            for i, seconds in enumerate(res.train_seconds):
                r, f = divmod(i, res.k)
                timing_lines.append(
                    f"{res.dataset_id},{res.method_id},{r},{f},{1000.0 * seconds:.3f}"
                )
    for name, lines in (("results.csv", csv_lines), ("timing.csv", timing_lines)):
        path = out_dir / name
        path.write_text("\n".join(lines) + "\n")
        report.files.append(str(path))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load_data_args(paths) -> list[tuple[str, Dataset]]:
    try:
        refs = [DatasetRef(path=p) for p in paths]
    except ValueError as exc:
        raise ConfigError(0, str(exc)) from None
    return [(ref.dataset_id, ref.load()) for ref in refs]


def _cmd_space(args) -> int:
    lines = [
        f"{row.c},{row.full},{row.balanced},{round(row.random_pair_estimate)}"
        for row in space_table(args.max_c)
    ]
    _emit(lines, args.out)
    return 0


def _cmd_splits(args) -> int:
    lines = []
    learner = _LEARNERS[args.learner][0]()
    for name, d in _load_data_args(args.data):
        census = enumerate_splits(
            d, d.classes_present(), learner, cap=args.cap, seed=args.seed
        )
        lines.append(f"{census.n_classes},{census.distinct}")
        print(
            f"{name}: {census.distinct} distinct splits over "
            f"{census.pairs_tried} pairs at {census.n_classes} classes",
            file=sys.stderr,
        )
    _emit(lines, args.out)
    return 0


def _cmd_proportions(args) -> int:
    datasets = [d for _, d in _load_data_args(args.data)]
    strategy = SubsetSelector("random_pair", args.cap)
    mean = measure_subset_proportions(
        datasets, strategy, _LEARNERS[args.learner][0](), args.trees, args.seed
    )
    _emit([f"{mean:.6f}"], args.out)
    return 0


def _cmd_inspect(args) -> int:
    [(_, d)] = _load_data_args([args.data])
    try:
        strategy = SubsetSelector(args.strategy, args.cap)
    except InvalidParam as exc:
        raise ConfigError(0, f"--cap {exc.requirement}") from None
    nd = build_nd(d, strategy, _LEARNERS[args.learner][0](), args.seed)
    _emit([(nd.to_dot() if args.dot else nd.to_text()).rstrip("\n")], args.out)
    return 0


def _cmd_train(args) -> int:
    [(_, d)] = _load_data_args([args.data])
    method = _method_from_tokens(_parse_tokens(args.method, 0), 0)
    model = method.make_builder()(d, args.seed)
    _emit([model.to_model_text().rstrip("\n")], args.out)
    return 0


def _cmd_evaluate(args) -> int:
    try:
        text = _read_utf8(args.config, ConfigError)
    except OSError as exc:
        raise ConfigError(0, f"cannot read config: {exc}") from exc
    cfg = parse_config(text)
    if args.out:
        cfg = replace(cfg, out=args.out)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    report = run_experiment(cfg)
    for path in report.files:
        print(path)
    return report.exit_code


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        print(text, end="")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndich", description="Nested dichotomies toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("space", help="tree-space size table")
    p.add_argument("--max-c", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_space)

    p = sub.add_parser("splits", help="distinct random-pair splits per dataset")
    p.add_argument("--data", action="append", required=True)
    p.add_argument("--learner", choices=tuple(_LEARNERS), default=_DEFAULT_LEARNER)
    p.add_argument("--cap", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_splits)

    p = sub.add_parser("proportions", help="mean smaller-subset share")
    p.add_argument("--data", action="append", required=True)
    p.add_argument("--trees", type=int, default=20)
    p.add_argument("--learner", choices=tuple(_LEARNERS), default=_DEFAULT_LEARNER)
    p.add_argument("--cap", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_proportions)

    p = sub.add_parser("inspect", help="dump one tree's structure")
    p.add_argument("--data", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="random_pair")
    p.add_argument("--learner", choices=tuple(_LEARNERS), default=_DEFAULT_LEARNER)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("train", help="train one model and dump it")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, help="method tokens, e.g. "
                   "'name=m strategy=random_pair learner=logistic'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_train)
    return parser


def _pin_blas_threads() -> None:
    """Run the OpenBLAS bundled with numpy on one thread whatever the
    environment asked for, so that ``ndich`` output does not depend on the
    core count.  Does nothing when numpy bundles no OpenBLAS."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_set_num_threads64_",
            "openblas_set_num_threads64_",
            "openblas_set_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)
                return


def main(argv=None) -> int:
    _pin_blas_threads()
    args = _build_parser().parse_args(argv)
    try:
        # flags whose range does not depend on the data
        for flag, least in (("cap", 1), ("seed", 0), ("trees", 1), ("max_c", 2)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise ConfigError(0, f"--{flag.replace('_', '-')} must be >= {least}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, NDError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
