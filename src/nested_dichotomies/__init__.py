"""Nested dichotomies: multi-class classification by recursive binary
class splits, with random, class-balanced, centroid and random-pair
subset selection, ensemble wrappers, tree-space analysis, and a repeated
cross-validation harness with the corrected resampled t-test."""

import os

# A threaded BLAS sums the logistic Hessian in an order that depends on its
# thread count, so fitted models would depend on the machine's core count.
# Run BLAS on one thread unless the caller set a count; this takes effect
# only when numpy is first imported through this package.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .data import (
    AttributeSpec,
    Dataset,
    FoldPlan,
    bootstrap_sample,
    parse_arff,
    parse_csv,
    serialize_arff,
    stratified_folds,
    train_test_split,
    weighted_resample,
)
from .dichotomy import NDNode, NestedDichotomy, build_nd
from .ensemble import (
    EnsembleModel,
    build_adaboost_ensemble,
    build_bagged_ensemble,
    build_multiboost_ensemble,
    build_random_ensemble,
)
from .evaluation import CVResult, TTestOutcome, corrected_t, format_results_table, run_cv
from .learners import (
    BinaryModel,
    LogisticParams,
    TreeParams,
    fit_binary_model,
    fit_logistic,
    fit_tree,
)
from .combinatorics import (
    SpaceCount,
    SplitCensus,
    count_balanced,
    count_full,
    enumerate_splits,
    estimate_random_pair_count,
    measure_subset_proportions,
    p_fit,
    space_table,
)
from .selection import (
    SplitDecision,
    SubsetSelector,
    select_centroid,
    select_class_balanced,
    select_random,
    select_random_pair,
)

__version__ = "0.1.0"
