"""Counting the space of nested dichotomies.

Exact counts for unconstrained and class-balanced trees, the fitted
quadratic for the number of distinct random-pair splits at a node, the
resulting size estimate for the random-pair tree space, plus empirical
tools: exhaustive split enumeration at a node and measurement of the
average smaller-subset share across built trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .data import Dataset
from .dichotomy import build_nd
from .learners import LearnerParams
from .seeds import child_seed, rng_from
from .selection import SplitDecision, SubsetSelector, assign_by_pair


def count_full(c: int) -> int:
    """Number of distinct nested dichotomies over c classes: (2c-3)!!."""
    if c < 1:
        raise ValueError("class count must be >= 1")
    result = 1
    for odd in range(3, 2 * c - 2, 2):
        result *= odd
    return result


@lru_cache(maxsize=None)
def count_balanced(c: int) -> int:
    """Number of class-balanced nested dichotomies.

    T(c) = 1/2 C(c, c/2) T(c/2)^2           for even c,
    T(c) = C(c, (c+1)/2) T((c+1)/2) T((c-1)/2)  for odd c,
    with T(1) = T(2) = 1.
    """
    if c < 1:
        raise ValueError("class count must be >= 1")
    if c <= 2:
        return 1
    if c % 2 == 0:
        half = c // 2
        return comb(c, half) * count_balanced(half) ** 2 // 2
    hi, lo = (c + 1) // 2, (c - 1) // 2
    return comb(c, hi) * count_balanced(hi) * count_balanced(lo)


def p_fit(c: float) -> float:
    """Fitted count of distinct random-pair splits at a c-class node
    (logistic-regression base learner)."""
    return 0.3812 * c * c - 1.4979 * c + 2.9027


def estimate_random_pair_count(c: float) -> float:
    """Estimated size of the random-pair tree space:
    T(c) = p(c) T(c/3) T(2c/3), T(x) = 1 for x <= 2, evaluated over real
    arguments without intermediate rounding."""
    if c < 1:
        raise ValueError("class count must be >= 1")

    def t(x: float) -> float:
        if x <= 2.0:
            return 1.0
        return p_fit(x) * t(x / 3.0) * t(2.0 * x / 3.0)

    return t(float(c))


@dataclass(frozen=True)
class SpaceCount:
    c: int
    full: int
    balanced: int
    random_pair_estimate: float

    def __post_init__(self):
        if self.c >= 2 and not self.full >= self.balanced >= 1:
            raise ValueError("count ordering violated")


def space_table(max_c: int) -> list[SpaceCount]:
    """One row per class count from 2 to ``max_c``."""
    return [
        SpaceCount(c, count_full(c), count_balanced(c), estimate_random_pair_count(c))
        for c in range(2, max_c + 1)
    ]


@dataclass(frozen=True)
class SplitCensus:
    """Distinct class partitions reachable by random-pair selection at one
    node, found by trying every possible seed pair."""

    n_classes: int
    distinct: int
    pairs_tried: int
    partitions: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    decisions: tuple[SplitDecision, ...]

    def __post_init__(self):
        if not 1 <= self.distinct <= self.pairs_tried:
            raise ValueError("distinct split count out of range")


def enumerate_splits(
    d: Dataset,
    class_ids,
    learner: LearnerParams,
    cap: int | None = None,
    seed: int = 0,
) -> SplitCensus:
    """Run the deterministic pair assignment for every unordered class
    pair and count the distinct partitions.  Pair-order independent: each
    pair's subsample stream depends only on (seed, pair)."""
    ids = sorted(class_ids)
    if len(ids) < 3:
        raise ValueError("census needs at least 3 classes")
    seen = {}
    decisions = []
    for i, c1 in enumerate(ids):
        for c2 in ids[i + 1 :]:
            decision = assign_by_pair(
                ids, d, learner, c1, c2, cap, rng_from(seed, c1, c2)
            )
            decisions.append(decision)
            key = decision.as_partition()
            if key not in seen:
                seen[key] = (decision.s1, decision.s2)
    return SplitCensus(
        n_classes=len(ids),
        distinct=len(seen),
        pairs_tried=comb(len(ids), 2),
        partitions=tuple(sorted(seen.values())),
        decisions=tuple(decisions),
    )


def measure_subset_proportions(
    datasets,
    strategy: SubsetSelector,
    learner: LearnerParams,
    trees_per_dataset: int,
    seed: int,
) -> float:
    """Mean share of classes in the smaller block, over every internal
    node with at least 3 classes of every tree built."""
    if trees_per_dataset < 1:
        raise ValueError("trees_per_dataset must be >= 1")
    fractions = []
    for di, d in enumerate(datasets):
        for t in range(trees_per_dataset):
            nd = build_nd(
                d, strategy, learner, child_seed(seed, di, t), structure_only=True
            )
            for node in nd.internal_nodes():
                total = len(node.class_subset)
                if total >= 3:
                    smaller = min(
                        len(node.left.class_subset), len(node.right.class_subset)
                    )
                    fractions.append(smaller / total)
    if not fractions:
        raise ValueError("no internal nodes with >= 3 classes")
    return float(sum(fractions) / len(fractions))
