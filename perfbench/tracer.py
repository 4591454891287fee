"""Outside-in tracing of the package's layers.

The benchmark does not edit the program.  Instead :class:`Tracer` replaces
each traced function, at every place a caller looks it up (module globals,
class dicts and the CLI's ensemble-builder table), with a wrapper that
records a span: name, start, end, parent span, CV-run id and thread.  The
originals are put back by :meth:`Tracer.uninstall`, which checks that each
site holds the original again.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the union of its children's intervals.  Each thread keeps
its own span stack; a span opened on a thread whose stack is empty takes
as parent the innermost span open on the thread that installed the tracer
(``ndich evaluate`` runs its cells on a thread pool while the main thread
waits inside ``run_experiment``).  Every span of one CV run shares the run
id that ``train_test_split`` opens.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

COPY = "data.copy"
RESAMPLE = "data.resample"
FITS = ("learners.fit_logistic", "learners.fit_tree")


class Span:
    __slots__ = (
        "id", "parent", "name", "run", "thread", "start", "end", "error",
        "rows", "nbytes", "result", "self_s",
    )

    def __init__(self, span_id, parent, name, run, thread):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.run = run
        self.thread = thread
        self.start = self.end = 0.0
        self.error = None
        self.rows = None
        self.nbytes = None
        self.result = None
        self.self_s = 0.0

    def as_json(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "run": self.run, "thread": self.thread, "start": self.start,
            "end": self.end, "self_s": self.self_s, "error": self.error,
            "rows": self.rows, "bytes": self.nbytes,
        }


class TraceCheckError(Exception):
    """The trace disagrees with the models it observed being built."""


def _rows_arg(span, args, result):
    span.rows = len(args[1])


def _copy_result(span, args, result):
    parts = result if isinstance(result, tuple) else (result,)
    span.nbytes = sum(p.values.nbytes for p in parts)


def _keep_result(span, args, result):
    span.result = result


def _logistic_result(span, args, result):
    span.result = (result.iterations, result.converged)


def _logistic_error(span, exc):
    model = getattr(exc, "model", None)
    if model is not None:
        span.result = (model.iterations, model.converged)


# (owner path, attribute, span name, observer, CV-run effect); each call to
# train_test_split opens a new CV run on its thread and run_cv's return
# closes the last one.
OPEN, CLOSE = "open", "close"
TRACED = (
    ("data", "parse_arff", "data.parse_arff", None, None),
    ("data", "stratified_folds", "data.stratified_folds", None, None),
    ("data", "train_test_split", "data.copy.train_test_split", _copy_result, OPEN),
    ("data.Dataset", "subset", "data.copy.subset", _copy_result, None),
    ("data.Dataset", "restrict_to_classes", "data.copy.restrict_to_classes", _copy_result, None),
    ("data.Dataset", "relabel_binary", "data.copy.relabel_binary", _copy_result, None),
    ("data", "bootstrap_sample", "data.resample.bootstrap_sample", None, None),
    ("data", "weighted_resample", "data.resample.weighted_resample", None, None),
    ("learners", "fit_logistic", "learners.fit_logistic", _logistic_result, None),
    ("learners", "fit_tree", "learners.fit_tree", _keep_result, None),
    ("learners.FeatureEncoder", "encode", "learners.encode", _rows_arg, None),
    ("learners.LogisticModel", "predict_prob_batch", "learners.predict_prob", _rows_arg, None),
    ("learners.TreeModel", "predict_prob_batch", "learners.predict_prob", _rows_arg, None),
    ("learners.ConstantModel", "predict_prob_batch", "learners.predict_prob", _rows_arg, None),
    ("selection.SubsetSelector", "select", "selection.select", None, None),
    ("dichotomy", "build_nd", "dichotomy.build_nd", _keep_result, None),
    ("dichotomy.NestedDichotomy", "predict_distribution_batch", "dichotomy.predict", _rows_arg, None),
    ("ensemble", "build_random_ensemble", "ensemble.build", _keep_result, None),
    ("ensemble", "build_bagged_ensemble", "ensemble.build", _keep_result, None),
    ("ensemble", "build_adaboost_ensemble", "ensemble.build", _keep_result, None),
    ("ensemble", "build_multiboost_ensemble", "ensemble.build", _keep_result, None),
    ("ensemble.EnsembleModel", "predict_distribution_batch", "ensemble.predict", _rows_arg, None),
    ("evaluation", "run_cv", "evaluation.run_cv", _keep_result, CLOSE),
    ("cli", "main", "cli.main", None, None),
    ("cli", "run_experiment", "cli.run_experiment", None, None),
    ("cli", "_write_outputs", "cli.write_outputs", None, None),
)

_ERROR_OBSERVERS = {"learners.fit_logistic": _logistic_error}


def _resolve(pkg, path: str):
    head, *rest = path.split(".")
    obj = getattr(pkg, head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._owner = threading.current_thread()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._span_ids = itertools.count(1)
        self._run_ids = itertools.count(1)
        self._patches: list[tuple[dict, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self, pkg):
        """Wrap every function in ``TRACED`` at each site that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = sys.modules[pkg.data.__name__.rpartition(".")[0]]
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        tables = [vars(m) for m in modules] + [pkg.cli._ENSEMBLE_BUILDERS]
        for owner_path, attr, name, observe, run_effect in TRACED:
            owner = _resolve(pkg, owner_path)
            if isinstance(owner, type):
                original = vars(owner)[attr]
                wrapper = self._wrap(original, name, observe, run_effect)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, observe, run_effect)
            for table in tables:
                for key, value in list(table.items()):
                    if value is original:
                        self._patches.append((table, key, original))
                        table[key] = wrapper

    def uninstall(self):
        """Put every original back and check that it is there."""
        for site, key, original in reversed(self._patches):
            if isinstance(site, type):
                setattr(site, key, original)
            else:
                site[key] = original
        for site, key, original in self._patches:
            current = vars(site)[key] if isinstance(site, type) else site[key]
            if current is not original:
                raise TraceCheckError(f"{key} was not restored")
        self._patches.clear()

    def _state(self):
        local = self._local
        try:
            return local.stack, local
        except AttributeError:
            local.stack = (
                self._main_stack if threading.current_thread() is self._owner else []
            )
            local.run = None
            local.thread = threading.get_ident()
            return local.stack, local

    def _wrap(self, fn, name, observe, run_effect):
        spans = self.spans
        main_stack = self._main_stack
        span_ids = self._span_ids
        run_ids = self._run_ids
        state = self._state
        clock = time.perf_counter
        on_error = _ERROR_OBSERVERS.get(name)
        opens_run = run_effect == OPEN
        closes_run = run_effect == CLOSE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, local = state()
            if opens_run:
                local.run = next(run_ids)
            if stack:
                parent = stack[-1].id
            else:
                try:
                    parent = main_stack[-1].id
                except IndexError:
                    parent = 0
            span = Span(next(span_ids), parent, name, local.run, local.thread)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                stack.pop()
                span.error = type(exc).__name__
                if on_error is not None:
                    on_error(span, exc)
                spans.append(span)
                if closes_run:
                    local.run = None
                raise
            span.end = clock()
            stack.pop()
            if observe is not None:
                observe(span, args, result)
            spans.append(span)
            if closes_run:
                local.run = None
            return result

        return traced

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_json()) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def compute_self_times(spans):
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    for s in spans:
        kids = children.get(s.id)
        covered = 0.0
        if kids:
            covered = _union_length(
                (max(k.start, s.start), min(k.end, s.end)) for k in kids if k.end > s.start
            )
        s.self_s = (s.end - s.start) - covered
    return children


def check_counts(spans, children, by_id):
    """Cross-check the trace against the models it saw being built.

    * every node-model fit of a tree is a direct child of its ``build_nd``
      span: their number equals the tree's internal nodes whose model is
      not a ``ConstantModel``;
    * every ensemble build has one ``build_nd`` child per attempt, and
      keeps at most that many members;
    * every ``run_cv`` call splits once per run it scores.
    """
    for s in spans:
        if s.error is not None:
            continue
        kids = children.get(s.id, [])
        if s.name == "dichotomy.build_nd":
            fits = sum(k.name in FITS for k in kids)
            fitted = sum(
                node.model.kind != "constant" for node in s.result.internal_nodes()
            )
            if fits != fitted:
                raise TraceCheckError(
                    f"build_nd span {s.id}: {fits} node-model fit spans, "
                    f"{fitted} fitted internal nodes"
                )
        elif s.name == "ensemble.build":
            attempts = sum(k.name == "dichotomy.build_nd" for k in kids)
            if not 0 < len(s.result.members) <= attempts:
                raise TraceCheckError(
                    f"ensemble span {s.id}: {len(s.result.members)} members "
                    f"from {attempts} build_nd spans"
                )
        elif s.name == "evaluation.run_cv":
            splits = sum(k.name == "data.copy.train_test_split" for k in kids)
            if splits != len(s.result.accuracies):
                raise TraceCheckError(
                    f"run_cv span {s.id}: {splits} splits for "
                    f"{len(s.result.accuracies)} runs"
                )


def _under(span, by_id, names) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name in names:
            return True
        parent = by_id.get(parent.parent)
    return False


def layer_metrics(tracer: Tracer, window: tuple[float, float], main_thread: int) -> dict:
    """Per-layer metrics over the spans recorded in ``window`` (seconds on
    the ``perf_counter`` clock), plus parse and fold-plan spans from set-up."""
    spans = tracer.spans
    children = compute_self_times(spans)
    by_id = {s.id: s for s in spans}
    check_counts(spans, children, by_id)
    lo, hi = window
    setup = [s for s in spans if s.end <= lo]
    traced = [s for s in spans if s.start >= lo and s.end <= hi]
    groups = defaultdict(list)
    for s in traced:
        groups[s.name].append(s)

    def named(prefix):
        return [s for s in traced if s.name.startswith(prefix)]

    def self_sum(items):
        return sum(s.self_s for s in items)

    def median_duration(name):
        items = [s.end - s.start for s in setup + traced if s.name == name]
        return statistics.median(items) if items else 0.0

    copies = named(COPY + ".")
    outer_copies = [
        s for s in copies
        if s.parent not in by_id or not by_id[s.parent].name.startswith(COPY + ".")
    ]
    fits_tree = groups["learners.fit_tree"]
    fits_log = groups["learners.fit_logistic"]
    selects = groups["selection.select"]
    select_fits = [s for s in fits_tree + fits_log if _under(s, by_id, ("selection.select",))]
    node_fits = [s for s in fits_tree + fits_log if not _under(s, by_id, ("selection.select",))]
    select_s = sum(s.end - s.start for s in selects)
    node_fit_s = sum(s.end - s.start for s in node_fits)
    builds = groups["dichotomy.build_nd"]
    ensemble_builds = groups["ensemble.build"]
    attempts = sum(1 for s in builds if _under(s, by_id, ("ensemble.build",)))
    accepted = sum(len(s.result.members) for s in ensemble_builds if s.error is None)
    top = [s for s in traced if s.parent == 0 and s.thread == main_thread]
    attributed = _union_length((s.start, s.end) for s in top)

    return {
        "data.copy.calls": len(outer_copies),
        "data.copy.self_s": self_sum(copies),
        "data.copy.bytes": sum(s.nbytes or 0 for s in outer_copies),
        "data.resample.self_s": self_sum(named(RESAMPLE + ".")),
        "data.parse_arff.s": median_duration("data.parse_arff"),
        "data.stratified_folds.s": median_duration("data.stratified_folds"),
        "learners.fit_tree.calls": len(fits_tree),
        "learners.fit_tree.self_s": self_sum(fits_tree),
        "learners.fit_tree.tree_nodes": sum(
            s.result.n_nodes() for s in fits_tree if s.result is not None
        ),
        "learners.fit_logistic.calls": len(fits_log),
        "learners.fit_logistic.self_s": self_sum(fits_log),
        "learners.fit_logistic.newton_iters": sum(
            s.result[0] for s in fits_log if s.result is not None
        ),
        "learners.fit_logistic.nonconverged": sum(
            1 for s in fits_log if s.result is not None and not s.result[1]
        ),
        "learners.encode.calls": len(groups["learners.encode"]),
        "learners.encode.rows": sum(s.rows or 0 for s in groups["learners.encode"]),
        "learners.encode.self_s": self_sum(groups["learners.encode"]),
        "learners.predict_prob.rows": sum(s.rows or 0 for s in groups["learners.predict_prob"]),
        "learners.predict_prob.self_s": self_sum(groups["learners.predict_prob"]),
        "dichotomy.predict.rows": sum(s.rows or 0 for s in groups["dichotomy.predict"]),
        "dichotomy.predict.self_s": self_sum(groups["dichotomy.predict"]),
        "ensemble.predict.self_s": self_sum(groups["ensemble.predict"]),
        "ensemble.build.self_s": self_sum(ensemble_builds),
        "selection.select.calls": len(selects),
        "selection.self_s": self_sum(selects),
        "selection.fit_s": sum(s.end - s.start for s in select_fits),
        "selection.share": select_s / (select_s + node_fit_s) if select_s + node_fit_s else 0.0,
        "dichotomy.build_nd.calls": len(builds),
        "dichotomy.build_nd.self_s": self_sum(builds),
        "ensemble.member_yield": accepted / attempts if attempts else 0.0,
        "evaluation.run_cv.self_s": self_sum(groups["evaluation.run_cv"]),
        "cli.run_experiment.s": median_duration("cli.run_experiment"),
        "cli.write_outputs.s": median_duration("cli.write_outputs"),
        "trace.wall_s": hi - lo,
        "trace.unattributed_s": (hi - lo) - attributed,
        "trace.spans": len(traced),
    }
