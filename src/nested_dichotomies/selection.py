"""Class-subset selection strategies for dichotomy nodes.

Four ways to split a node's class set into two blocks:

* ``random`` — uniform over all 2^(c-1) - 1 nontrivial unordered
  partitions (independent side assignment, empty sides rejected).
* ``class_balanced`` — shuffle and cut at ceil(c/2), so block sizes
  differ by at most one.
* ``centroid`` — deterministic: the two classes with the furthest
  centroids seed the blocks and every other class joins the nearer seed.
* ``random_pair`` — a random pair of classes seeds the blocks; a binary
  model trained on just that pair classifies every remaining class's
  instances, and each class follows the majority of its votes.

All selectors return a partition: two disjoint, non-empty blocks covering
the input class set, for any set of two or more classes.  The two that
read data, ``centroid`` and ``random_pair``, split the lowest class off
from the rest when fewer than two classes of the set have instances
(bootstrap resampling can leave a node so).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InvalidParam
from .learners import LearnerParams, fit_binary_model
from .learners.base import check_count
from .seeds import rng_from


@dataclass(frozen=True)
class PairProvenance:
    """How a random-pair split came about: the seed pair and, per
    remaining class, the instance votes for each side."""

    pair: tuple[int, int]
    votes: tuple[tuple[int, int, int], ...]  # (class, votes for c1, votes for c2)


@dataclass(frozen=True)
class SplitDecision:
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    provenance: PairProvenance | None = None

    def __post_init__(self):
        s1 = tuple(sorted(self.s1))
        s2 = tuple(sorted(self.s2))
        if not s1 or not s2:
            raise ValueError("both sides of a split must be non-empty")
        if set(s1) & set(s2):
            raise ValueError("split sides overlap")
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "s2", s2)

    def as_partition(self) -> frozenset[frozenset[int]]:
        """Unordered form, for counting distinct splits."""
        return frozenset((frozenset(self.s1), frozenset(self.s2)))


def select_random(class_ids, rng: np.random.Generator) -> SplitDecision:
    """Uniform over nontrivial unordered two-block partitions."""
    ids = sorted(class_ids)
    if len(ids) < 2:
        raise ValueError("need at least 2 classes to split")
    while True:
        sides = rng.integers(0, 2, size=len(ids))
        if 0 < sides.sum() < len(ids):
            break
    first_side = sides[0]  # orient so the lowest class sits in s1
    s1 = [c for c, b in zip(ids, sides) if b == first_side]
    s2 = [c for c, b in zip(ids, sides) if b != first_side]
    return SplitDecision(s1, s2)


def select_class_balanced(class_ids, rng: np.random.Generator) -> SplitDecision:
    """Shuffle and cut at ceil(c/2): block sizes differ by at most 1."""
    ids = np.asarray(sorted(class_ids), dtype=np.intp)
    if ids.size < 2:
        raise ValueError("need at least 2 classes to split")
    perm = rng.permutation(ids)
    cut = (ids.size + 1) // 2
    return SplitDecision(perm[:cut], perm[cut:])


def _class_means(d: Dataset, class_ids) -> dict[int, np.ndarray]:
    """The weighted mean encoded row of each class in ``class_ids`` that
    has instances in ``d``; classes without instances are left out."""
    X = d.layout.encode(d.values)
    y = d.class_indices()
    w = d.weights
    means = {}
    for c in class_ids:
        mask = y == c
        total = w[mask].sum()
        if total > 0:
            means[c] = (w[mask] @ X[mask]) / total
    return means


def select_centroid(class_ids, d: Dataset) -> SplitDecision:
    """Deterministic split seeded by the furthest pair of class centroids.

    Ties on the furthest pair go to the lexicographically smallest class
    pair; an equidistant remaining class joins the first seed's side.
    Classes of the set with no instances in ``d`` (possible under
    bootstrap resampling) also join the first seed's side.  When fewer
    than two classes of the set have instances, the lowest class is split
    off from the rest.
    """
    ids = sorted(class_ids)
    if len(ids) < 2:
        raise ValueError("need at least 2 classes to split")
    if len(ids) == 2:
        return SplitDecision([ids[0]], [ids[1]])
    centroids = _class_means(d, ids)
    present = sorted(centroids)
    if len(present) < 2:
        return SplitDecision(ids[:1], ids[1:])
    best_pair, best_dist = None, -1.0
    for i, a in enumerate(present):
        for b in present[i + 1 :]:
            dist = float(np.linalg.norm(centroids[a] - centroids[b]))
            if dist > best_dist + 1e-12:
                best_pair, best_dist = (a, b), dist
    c1, c2 = best_pair
    s1, s2 = [c1], [c2]
    for c in ids:
        if c in (c1, c2):
            continue
        if c not in centroids:
            s1.append(c)
            continue
        d1 = float(np.linalg.norm(centroids[c] - centroids[c1]))
        d2 = float(np.linalg.norm(centroids[c] - centroids[c2]))
        (s1 if d1 <= d2 else s2).append(c)
    return SplitDecision(s1, s2)


def _subsample_pair_rows(d: Dataset, c1: int, c2: int, cap, rng) -> Dataset:
    """Rows of the two seed classes, at most ``cap`` per class."""
    y = d.class_indices()
    keep = []
    for c in (c1, c2):
        rows = np.flatnonzero(y == c)
        if cap is not None and rows.size > cap:
            rows = np.sort(rng.choice(rows, size=cap, replace=False))
        keep.append(rows)
    return d.subset(np.concatenate(keep))


def assign_by_pair(
    class_ids,
    d: Dataset,
    learner: LearnerParams,
    c1: int,
    c2: int,
    cap: int | None = None,
    subsample_rng: np.random.Generator | None = None,
) -> SplitDecision:
    """Deterministic part of random-pair selection, for a given seed pair.

    Trains a binary model on the pair's instances (optionally subsampled
    to ``cap`` per class), classifies every other class's instances with
    it, and sends each class to the side winning strictly more votes.  A
    vote tie goes to the currently smaller side, then to c1's side.
    Raises :class:`InvalidParam` before any fit unless ``cap`` is None or
    an integer of at least 1.
    """
    if cap is not None:
        check_count("cap", cap, 1)
    ids = sorted(class_ids)
    pair_data = _subsample_pair_rows(d, c1, c2, cap, subsample_rng or rng_from(0))
    model = fit_binary_model(pair_data.relabel_binary({c1}), learner)

    y = d.class_indices()
    s1, s2 = [c1], [c2]
    votes = []
    for c in ids:
        if c in (c1, c2):
            continue
        rows = np.flatnonzero(y == c)
        if rows.size:
            p = model.predict_prob_batch(d.values[rows])
            v1 = int(np.count_nonzero(p >= 0.5))  # 0.5 exactly -> first class
            v2 = rows.size - v1
        else:
            v1 = v2 = 0
        votes.append((c, v1, v2))
        if v1 > v2:
            s1.append(c)
        elif v2 > v1:
            s2.append(c)
        elif len(s1) <= len(s2):
            s1.append(c)
        else:
            s2.append(c)
    return SplitDecision(s1, s2, PairProvenance((c1, c2), tuple(votes)))


def select_random_pair(
    class_ids,
    d: Dataset,
    learner: LearnerParams,
    rng: np.random.Generator,
    cap: int | None = None,
) -> SplitDecision:
    """Random-pair selection; see :func:`assign_by_pair` for the
    assignment rules.  The seed pair is drawn from the classes of the set
    that have instances in ``d``.  With two classes the unique split is
    returned without training anything, and when fewer than two classes of
    a larger set have instances the lowest class is split off from the
    rest; neither draws from ``rng``."""
    ids = sorted(class_ids)
    if len(ids) < 2:
        raise ValueError("need at least 2 classes to split")
    if len(ids) == 2:
        return SplitDecision([ids[0]], [ids[1]])
    counts = d.class_counts()
    present = [c for c in ids if counts[c] > 0]
    if len(present) < 2:
        return SplitDecision(ids[:1], ids[1:])
    c1, c2 = rng.choice(np.asarray(present, dtype=np.intp), size=2, replace=False)
    return assign_by_pair(ids, d, learner, int(c1), int(c2), cap, rng)


STRATEGIES = ("random", "class_balanced", "centroid", "random_pair")


@dataclass(frozen=True)
class SubsetSelector:
    """Strategy choice plus its options, in one passable object."""

    strategy_id: str = "random_pair"
    subsample_cap: int | None = None  # per class, for random_pair's pair model

    def __post_init__(self):
        if self.strategy_id not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy_id!r}")
        if self.subsample_cap is not None and self.strategy_id != "random_pair":
            raise InvalidParam("subsample_cap", "applies only to strategy random_pair")
        if self.subsample_cap is not None:
            check_count("subsample_cap", self.subsample_cap, 1)

    def select(
        self,
        class_ids,
        d: Dataset,
        learner: LearnerParams,
        rng: np.random.Generator,
    ) -> SplitDecision:
        if self.strategy_id == "random":
            return select_random(class_ids, rng)
        if self.strategy_id == "class_balanced":
            return select_class_balanced(class_ids, rng)
        if self.strategy_id == "centroid":
            return select_centroid(class_ids, d)
        return select_random_pair(class_ids, d, learner, rng, self.subsample_cap)
