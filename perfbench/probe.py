"""Layer probe: one timed call each of the package's hot entry points on
pendigits, reported as ``probe.*`` per-layer metrics.

The root split is the fixed partition of the ten digits into {0..4} and
{5..9}; the random-pair probe seeds its pair with classes 0 and 1.
"""

from __future__ import annotations

import time

from workloads import ROOT

STRATEGIES = ("random", "random_pair")
LEARNERS = ("logistic", "tree")


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def run_probe(pkg, seed: int) -> dict:
    data, learners, selection = pkg.data, pkg.learners, pkg.selection
    text = (ROOT / "datasets" / "pendigits.arff").read_text()
    params = {
        "logistic": learners.LogisticParams(max_iterations=1000),
        "tree": learners.TreeParams(),
    }
    out = {}
    d, out["probe.parse_arff.s"] = _timed(lambda: data.parse_arff(text))
    _, out["probe.stratified_folds.s"] = _timed(lambda: data.stratified_folds(d, 10, 10, seed))
    root_split = d.relabel_binary(range(5))
    _, out["probe.fit_logistic.s"] = _timed(
        lambda: learners.fit_logistic(root_split, params["logistic"])
    )
    _, out["probe.fit_tree.s"] = _timed(lambda: learners.fit_tree(root_split, params["tree"]))
    _, out["probe.assign_by_pair.s"] = _timed(
        lambda: selection.assign_by_pair(d.classes_present(), d, params["logistic"], 0, 1)
    )
    built = {}
    for strategy in STRATEGIES:
        for learner in LEARNERS:
            built[strategy, learner], out[f"probe.build_nd.{strategy}.{learner}.s"] = _timed(
                lambda: pkg.dichotomy.build_nd(
                    d, selection.SubsetSelector(strategy), params[learner], seed
                )
            )
    nd = built["random", "logistic"]
    _, out["probe.predict_class_batch.s"] = _timed(lambda: nd.predict_class_batch(d.values))
    return out

