"""The benchmark workloads: set-up, one timed unit of work, and the
checks that the program's outputs are correct.

A unit is one repeat of 10-fold cross-validation for every method of the
workload.  The two ``run_cv`` workloads call ``evaluation.run_cv`` once per
method and unit; the ``ndich evaluate`` workload runs the CLI once per unit.
Every randomized choice derives from the workload seed.

Importing this module pins BLAS and OpenMP to one thread (before anything
imports numpy; child processes inherit it), so timings and model outputs
do not depend on the machine's core count.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCES = BENCH_DIR / "references.json"

K = 10
REPEATS = 10  # fold plans hold this many repeats; unit u runs repeat u % REPEATS


def import_package():
    """Import every module a workload calls into (part of set-up time)."""
    import nested_dichotomies  # noqa: F401
    from nested_dichotomies import (
        cli,
        data,
        dichotomy,
        ensemble,
        errors,
        evaluation,
        learners,
        seeds,
        selection,
    )

    return SimpleNamespace(
        cli=cli,
        data=data,
        dichotomy=dichotomy,
        ensemble=ensemble,
        errors=errors,
        evaluation=evaluation,
        learners=learners,
        seeds=seeds,
        selection=selection,
    )


def load_arff(pkg, name: str):
    return pkg.data.parse_arff((ROOT / "datasets" / f"{name}.arff").read_text())


def recorded_outputs(workload_name: str, seed: int):
    """The outputs recorded in ``references.json`` for this workload and
    seed, or None."""
    if not REFERENCES.exists():
        return None
    return json.loads(REFERENCES.read_text()).get(workload_name, {}).get(str(seed))


@dataclass
class UnitResult:
    """Outcome of one unit: runs attempted and failed, per-run training
    seconds by method with the ``perf_counter`` window each run trained
    in, the outputs the checks compared, and what failed and why."""

    runs: int = 0
    failed: int = 0
    train_seconds: dict = field(default_factory=dict)
    windows: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


class CVWorkload:
    """``run_cv`` of each method on one repeat of a stratified 10-fold plan.

    Outputs are per-run accuracies.  For a seed recorded in
    ``references.json`` they must equal the recorded ones exactly; for any
    other seed each must reach ``min_accuracy``.
    """

    def __init__(self, name, dataset, methods, min_accuracy, trace_units=1):
        self.name = name
        self.dataset = dataset
        self.methods = methods  # method id -> callable(pkg) returning a builder
        self.min_accuracy = min_accuracy
        self.trace_units = trace_units

    def setup(self, pkg, seed: int, recorded=None):
        d = load_arff(pkg, self.dataset)
        plan = pkg.data.stratified_folds(d, K, REPEATS, seed)
        plans = [
            pkg.data.FoldPlan(K, 1, pkg.seeds.child_seed(seed, r), (plan.assignments[r],))
            for r in range(REPEATS)
        ]
        builders = {m: make(pkg) for m, make in self.methods.items()}
        return SimpleNamespace(d=d, plans=plans, builders=builders, recorded=recorded or {})

    def run_unit(self, pkg, state, u: int) -> UnitResult:
        out = UnitResult()
        plan = state.plans[u % REPEATS]
        for method_id, builder in state.builders.items():
            out.runs += K
            started = time.perf_counter()
            try:
                res = pkg.evaluation.run_cv(state.d, builder, plan, self.dataset, method_id)
            except pkg.errors.NDError as exc:
                out.failed += K
                out.problems.append(f"{method_id} unit {u}: {exc}")
                continue
            ended = time.perf_counter()
            accuracies = [float(a) for a in res.accuracies]
            train = [float(t) for t in res.train_seconds]
            out.train_seconds[method_id] = train
            out.windows[method_id] = _run_windows(started, ended, train)
            out.outputs[method_id] = accuracies
            recorded = state.recorded.get(method_id, [])
            expected = recorded[u % REPEATS] if u % REPEATS < len(recorded) else None
            for f, acc in enumerate(accuracies):
                if expected is not None and acc != expected[f]:
                    out.failed += 1
                    out.problems.append(
                        f"{method_id} unit {u} fold {f}: accuracy {acc!r}, "
                        f"recorded {expected[f]!r}"
                    )
                elif expected is None and acc < self.min_accuracy:
                    out.failed += 1
                    out.problems.append(
                        f"{method_id} unit {u} fold {f}: accuracy {acc!r} "
                        f"below {self.min_accuracy}"
                    )
        return out

    def recheck(self, pkg, state, first: UnitResult) -> UnitResult:
        """Train fold 0 of unit 0 again outside ``run_cv``: the accuracy must
        equal the one ``run_cv`` reported, so results do not depend on what
        ran before."""
        out = UnitResult(runs=1)
        method_id = next(iter(state.builders))
        if method_id not in first.outputs:
            out.failed = 1
            out.problems.append(f"{method_id}: no unit-0 output to recheck")
            return out
        plan = state.plans[0]
        train, test = pkg.data.train_test_split(state.d, plan, 0, 0)
        model = state.builders[method_id](train, pkg.seeds.child_seed(plan.master_seed, 0, 0))
        correct = (model.predict_class_batch(test.values) == test.class_indices()).astype(float)
        acc = float(test.weights @ correct / test.weights.sum())
        if acc != first.outputs[method_id][0]:
            out.failed = 1
            out.problems.append(
                f"{method_id} recheck: accuracy {acc!r}, run_cv gave "
                f"{first.outputs[method_id][0]!r}"
            )
        return out

    def cleanup(self, state):
        pass


SEGMENT_METHODS = (
    "name=rpnd strategy=random_pair learner=logistic max_iter=1000",
    "name=ndbc_ada strategy=centroid learner=logistic ensemble=adaboost size=10 max_iter=1000",
    "name=nd_multi strategy=random learner=tree ensemble=multiboost size=5",
)


class EvaluateWorkload:
    """``ndich evaluate`` through ``cli.main`` on a config written to a
    temporary directory inside the checkout.

    Outputs are the ``results.csv`` rows.  For a seed recorded in
    ``references.json`` each must equal the recorded row byte for byte; for
    any other seed each method's mean accuracy must reach ``min_accuracy``
    and every unit must write the same file.
    """

    name = "segment-evaluate-jobs2"
    dataset = "segment"
    jobs = 2
    trace_units = 1
    min_accuracy = 0.85

    def setup(self, pkg, seed: int, recorded=None):
        d = load_arff(pkg, self.dataset)
        pkg.data.stratified_folds(d, K, 1, pkg.seeds.child_seed(seed, self.dataset))
        data_path = (ROOT / "datasets" / f"{self.dataset}.arff").resolve()
        if "#" in str(data_path):
            raise SystemExit(f"config paths cannot hold '#': {data_path}")
        OUT_DIR.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="evaluate-", dir=OUT_DIR))
        lines = [
            f"dataset = {data_path}",
            f"k = {K}",
            "repeats = 1",
            f"seed = {seed}",
            "reference = rpnd",
            f"jobs = {self.jobs}",
        ]
        lines += [f"method = {m}" for m in SEGMENT_METHODS]
        config = tmp / "experiment.cfg"
        config.write_text("\n".join(lines) + "\n")
        return SimpleNamespace(tmp=tmp, config=config, recorded=recorded, first_csv=None)

    def run_unit(self, pkg, state, u: int) -> UnitResult:
        out = UnitResult(runs=K * len(SEGMENT_METHODS))
        out_dir = state.tmp / f"out{u}"
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = pkg.cli.main(
                ["evaluate", "--config", str(state.config), "--out", str(out_dir)]
            )
        ended = time.perf_counter()
        csv_path = out_dir / "results.csv"
        text = csv_path.read_text() if csv_path.exists() else ""
        timing = out_dir / "timing.csv"
        if timing.exists():
            for line in timing.read_text().splitlines()[1:]:
                fields = line.split(",")
                out.train_seconds.setdefault(fields[1], []).append(float(fields[4]) / 1000.0)
                # cells run concurrently, so a run's window is the whole call
                out.windows.setdefault(fields[1], []).append((started, ended))
        rows = _csv_rows(text)
        out.outputs["results.csv"] = text
        if code != 0:
            out.problems.append(f"unit {u}: ndich evaluate exited {code}")
        expected = _csv_rows(state.recorded) if state.recorded is not None else None
        for spec in SEGMENT_METHODS:
            method = spec.split()[0].removeprefix("name=")
            row = rows.get(method)
            if row is None:
                bad = "no results.csv row"
            elif expected is not None and row != expected.get(method):
                bad = f"row {row!r}, recorded {expected.get(method)!r}"
            elif expected is not None and text != state.recorded:
                bad = "results.csv differs from the recorded file"
            elif expected is None and float(row.split(",")[2]) < self.min_accuracy:
                bad = f"mean accuracy below {self.min_accuracy}: {row!r}"
            elif state.first_csv is not None and text != state.first_csv:
                bad = "results.csv differs from unit 0"
            else:
                bad = None
            if bad is not None:
                out.failed += K
                out.problems.append(f"{method} unit {u}: {bad}")
        if state.first_csv is None:
            state.first_csv = text
        shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def recheck(self, pkg, state, first: UnitResult) -> UnitResult:
        return UnitResult()  # every unit is compared with unit 0 instead

    def cleanup(self, state):
        shutil.rmtree(state.tmp, ignore_errors=True)


def _run_windows(started: float, ended: float, train: list) -> list:
    """Approximate window of each run of one ``run_cv`` call: runs are
    sequential, and the time outside training is spread evenly."""
    gap = max(ended - started - sum(train), 0.0) / len(train)
    windows = []
    cursor = started
    for seconds in train:
        windows.append((cursor, cursor + seconds + gap))
        cursor += seconds + gap
    return windows


def _csv_rows(text: str) -> dict:
    return {line.split(",")[1]: line for line in text.splitlines()[1:]}


def _rpnd_tree(pkg):
    selector = pkg.selection.SubsetSelector("random_pair")
    params = pkg.learners.TreeParams()
    return lambda train, seed: pkg.dichotomy.build_nd(train, selector, params, seed)


def _bagged(strategy):
    def make(pkg):
        selector = pkg.selection.SubsetSelector(strategy)
        params = pkg.learners.LogisticParams(max_iterations=1000)
        return lambda train, seed: pkg.ensemble.build_bagged_ensemble(
            train, selector, params, 10, seed
        )

    return make


WORKLOADS = {
    w.name: w
    for w in (
        CVWorkload(
            "pendigits-rpnd-c45",
            "pendigits",
            {"rpnd_c45": _rpnd_tree},
            min_accuracy=0.85,
            trace_units=2,
        ),
        CVWorkload(
            "vowel-bagged-logistic",
            "vowel",
            {"rpnd_bagged": _bagged("random_pair"), "nd_bagged": _bagged("random")},
            min_accuracy=0.5,
        ),
        EvaluateWorkload(),
    )
}
