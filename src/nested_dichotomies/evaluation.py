"""Repeated cross-validation and the corrected resampled paired t-test.

Two methods are comparable only when they ran on the identical fold plan;
results carry the plan fingerprint and the test refuses mismatches.  The
test statistic over the J = k * repeats per-run accuracy differences is

    t = mean(d) / sqrt((1/J + n2/n1) * var(d))

with the idealized test/train size ratio n2/n1 = 1/(k-1) and the sample
variance (n-1 denominator).  Significance is two-sided at alpha against
the Student-t quantile with J-1 degrees of freedom.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ._special import t_critical
from .data import Dataset, FoldPlan, train_test_split
from .errors import MismatchedPlans, NDError
from .seeds import child_seed


@dataclass(frozen=True)
class CVResult:
    dataset_id: str
    method_id: str
    accuracies: np.ndarray  # repeat-major, fold-minor; J = k * repeats
    k: int
    repeats: int
    n_instances: int
    plan_fingerprint: str
    train_seconds: np.ndarray

    def __post_init__(self):
        acc = np.asarray(self.accuracies, dtype=np.float64)
        if acc.shape != (self.k * self.repeats,):
            raise ValueError("expected one accuracy per (repeat, fold) run")
        if acc.size and (acc.min() < 0.0 or acc.max() > 1.0):
            raise ValueError("accuracies must lie in [0, 1]")
        object.__setattr__(self, "accuracies", acc)
        object.__setattr__(
            self, "train_seconds", np.asarray(self.train_seconds, dtype=np.float64)
        )

    @property
    def mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std(self) -> float:
        if self.accuracies.size < 2:
            return 0.0
        return float(self.accuracies.std(ddof=1))


class CVRunError(NDError):
    """Failure in one CV run, annotated with its (repeat, fold)."""

    def __init__(self, repeat: int, fold: int, cause: Exception):
        self.repeat = repeat
        self.fold = fold
        self.cause = cause
        super().__init__(f"repeat {repeat} fold {fold}: {cause}")


def run_cv(
    d: Dataset,
    builder,
    plan: FoldPlan,
    dataset_id: str = "",
    method_id: str = "",
) -> CVResult:
    """Train and score once per (repeat, fold), in canonical order.

    ``builder(train_dataset, seed)`` must return a model exposing
    ``predict_class_batch``.  Per-run seeds derive from the plan's master
    seed and the (repeat, fold) position, so reruns are identical and
    every method evaluated on this plan sees the same folds.
    """
    accuracies = []
    train_seconds = []
    for r in range(plan.repeats):
        for f in range(plan.k):
            train, test = train_test_split(d, plan, r, f)
            started = time.perf_counter()
            try:
                model = builder(train, child_seed(plan.master_seed, r, f))
            except Exception as exc:
                raise CVRunError(r, f, exc) from exc
            train_seconds.append(time.perf_counter() - started)
            predicted = model.predict_class_batch(test.values)
            correct = (predicted == test.class_indices()).astype(np.float64)
            accuracies.append(float(test.weights @ correct / test.weights.sum()))
    return CVResult(
        dataset_id=dataset_id,
        method_id=method_id,
        accuracies=np.asarray(accuracies),
        k=plan.k,
        repeats=plan.repeats,
        n_instances=d.n_instances,
        plan_fingerprint=plan.fingerprint,
        train_seconds=np.asarray(train_seconds),
    )


@dataclass(frozen=True)
class TTestOutcome:
    t: float
    significant: bool
    direction: str  # gain | loss | none (from the first argument's view)
    runs: int
    train_size: float
    test_size: float
    alpha: float
    zero_variance: bool = False

    def __post_init__(self):
        if self.direction not in ("gain", "loss", "none"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.significant and self.direction == "none":
            raise ValueError("significant outcome needs a direction")


def corrected_t(
    a: CVResult,
    b: CVResult,
    alpha: float = 0.05,
    test_train_ratio: float | None = None,
) -> TTestOutcome:
    """Corrected resampled paired t-test of a vs b over shared CV runs.

    ``test_train_ratio`` defaults to the idealized 1/(k-1); forcing it to
    0 recovers the classical paired t-test.  Zero variance with a nonzero
    mean difference reports significance with an infinite t sentinel and
    the ``zero_variance`` flag set.
    """
    if a.plan_fingerprint != b.plan_fingerprint:
        raise MismatchedPlans(
            f"fold plans differ: {a.plan_fingerprint} vs {b.plan_fingerprint}"
        )
    diffs = a.accuracies - b.accuracies
    runs = diffs.size
    if runs < 2:
        raise ValueError("need at least 2 runs to test")
    ratio = 1.0 / (a.k - 1) if test_train_ratio is None else test_train_ratio
    test_size = a.n_instances / a.k
    train_size = a.n_instances - test_size

    mean = float(diffs.mean())
    var = float(diffs.var(ddof=1))
    common = dict(runs=runs, train_size=train_size, test_size=test_size, alpha=alpha)
    if diffs.max() == diffs.min():  # constant differences: true zero variance
        mean = float(diffs[0])
        if mean == 0.0:
            return TTestOutcome(0.0, False, "none", **common)
        return TTestOutcome(
            math.copysign(math.inf, mean),
            True,
            "gain" if mean > 0 else "loss",
            zero_variance=True,
            **common,
        )
    t = mean / math.sqrt((1.0 / runs + ratio) * var)
    critical = t_critical(runs - 1, alpha)
    significant = abs(t) > critical
    direction = "none" if not significant else ("gain" if t > 0 else "loss")
    return TTestOutcome(t, significant, direction, **common)


def format_cell(mean: float, std: float) -> str:
    return f"{100.0 * mean:.2f} ± {100.0 * std:.2f}"


def format_results_table(grid, reference: int = 0) -> str:
    """Text table: one row per dataset, one column per method.

    ``grid[i][j]`` is the CVResult of method j on dataset i; every row
    must share one fold plan.  Non-reference cells carry a bullet for a
    significant reference gain over that method, an open circle for a
    significant loss (markers relative to the reference column).
    """
    if not grid or not grid[0]:
        raise ValueError("empty result grid")
    methods = [res.method_id for res in grid[0]]
    header = ["Dataset"] + methods
    rows = [header]
    for row in grid:
        cells = [row[reference].dataset_id or "?"]
        for j, res in enumerate(row):
            cell = format_cell(res.mean, res.std)
            if j != reference:
                outcome = corrected_t(row[reference], res)
                if outcome.significant:
                    cell += " •" if outcome.direction == "gain" else " ◦"
            cells.append(cell)
        rows.append(cells)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = []
    for i, r in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines) + "\n"
