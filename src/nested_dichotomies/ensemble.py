"""Ensembles of nested dichotomies.

Four builders, all deterministic in their seed:

* randomization — members differ only in their structure seed, trained on
  the full data; predictions average member distributions.
* bagging — one bootstrap resample per member; distribution averaging.
* AdaBoost.M1 with resampling — members train on weight-proportional
  resamples; instance weights update multiplicatively; hard weighted
  voting.
* MultiBoost — AdaBoost.M1 interleaved with wagging weight resets at
  sub-committee boundaries; hard weighted voting.

Boosting edge cases follow the usual conventions: a member with weighted
error >= 1/2 is discarded and the weights restart uniform; a member with
zero error gets a large finite vote ln(1e10) and the weights restart
uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, bootstrap_sample, weighted_resample
from .errors import AllMembersRejected
from .dichotomy import MultiClassModel, NestedDichotomy, build_nd
from .learners import LearnerParams
from .learners.base import check_count
from .seeds import child_seed, rng_from
from .selection import SubsetSelector

ZERO_ERROR_VOTE = math.log(1e10)

@dataclass(frozen=True)
class EnsembleModel(MultiClassModel):
    members: tuple[NestedDichotomy, ...]
    member_weights: np.ndarray
    ensemble_kind: str  # random | bagging | adaboost | multiboost

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        w = np.asarray(self.member_weights, dtype=np.float64)
        if w.shape != (len(self.members),):
            raise ValueError("one weight per member required")
        if not np.all(np.isfinite(w)) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("member weights must be finite, >= 0, not all zero")
        if self.ensemble_kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.ensemble_kind!r}")
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "member_weights", w)

    @property
    def combiner(self) -> str:
        """``average_distribution`` or ``weighted_vote``, by the kind."""
        return ENSEMBLE_KINDS[self.ensemble_kind][1]

    @property
    def n_classes(self) -> int:
        return self.members[0].n_classes

    def predict_distribution_batch(self, rows) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        w = self.member_weights
        if self.combiner == "average_distribution":
            acc = np.zeros((rows.shape[0], self.n_classes))
            for member, wm in zip(self.members, w):
                acc += wm * member.predict_distribution_batch(rows)
            return acc / w.sum()
        votes = np.zeros((rows.shape[0], self.n_classes))
        for member, wm in zip(self.members, w):
            picks = member.predict_class_batch(rows)
            votes[np.arange(rows.shape[0]), picks] += wm
        return votes / w.sum()

    def to_model_text(self) -> str:
        """Line-oriented dump: a header, then per member its weight and
        seed and its full :meth:`NestedDichotomy.to_model_text`."""
        lines = [
            f"ensemble {self.ensemble_kind} combiner={self.combiner} "
            f"size={len(self.members)}\n"
        ]
        for i, (member, w) in enumerate(zip(self.members, self.member_weights)):
            lines.append(f"member {i} weight={float(w)!r} seed={member.build_seed}\n")
            lines.append(member.to_model_text())
        return "".join(lines)


def build_random_ensemble(
    d: Dataset,
    strategy: SubsetSelector,
    learner: LearnerParams,
    size: int,
    seed: int,
) -> EnsembleModel:
    """Members differ only in structure randomness; same training data."""
    check_count("size", size, 1)
    class_ids = d.classes_present()
    members = [
        build_nd(d, strategy, learner, child_seed(seed, i), class_ids=class_ids)
        for i in range(size)
    ]
    return EnsembleModel(tuple(members), np.ones(size), "random")


def build_bagged_ensemble(
    d: Dataset,
    strategy: SubsetSelector,
    learner: LearnerParams,
    size: int,
    seed: int,
) -> EnsembleModel:
    """One bootstrap resample per member.  Members keep the full class set
    in their structure even when their resample dropped a class."""
    check_count("size", size, 1)
    class_ids = d.classes_present()
    members = []
    for i in range(size):
        sample = bootstrap_sample(d, child_seed(seed, i, 1))
        members.append(
            build_nd(sample, strategy, learner, child_seed(seed, i, 0), class_ids=class_ids)
        )
    return EnsembleModel(tuple(members), np.ones(size), "bagging")


def _boosted(
    d: Dataset,
    strategy: SubsetSelector,
    learner: LearnerParams,
    size: int,
    seed: int,
    kind: str,
    wag_boundaries: frozenset[int],
    observer=None,
) -> EnsembleModel:
    """Shared AdaBoost.M1-with-resampling loop.

    ``wag_boundaries`` holds member counts after which the instance
    weights are re-drawn by continuous-Poisson wagging (empty for plain
    AdaBoost).  ``observer(member, error, weights)`` is called after every
    multiplicative weight update with a copy of the updated weights.
    """
    n = d.n_instances
    class_ids = d.classes_present()
    y = d.class_indices()
    base_w = d.weights  # dataset weights stay fixed; boosting keeps its own

    weights = np.ones(n)  # boosting weights, renormalized to sum n
    members: list[NestedDichotomy] = []
    votes: list[float] = []
    max_attempts = 2 * size

    for attempt in range(max_attempts):
        if len(members) >= size:
            break
        sample = weighted_resample(d, weights * base_w, n, child_seed(seed, attempt, 1))
        member = build_nd(
            sample, strategy, learner, child_seed(seed, attempt, 0), class_ids=class_ids
        )
        predicted = member.predict_class_batch(d.values)
        mis = predicted != y
        eff = base_w * weights
        error = float(eff[mis].sum() / eff.sum())

        if error >= 0.5:
            weights = np.ones(n)
            continue
        if error == 0.0:
            members.append(member)
            votes.append(ZERO_ERROR_VOTE)
            weights = np.ones(n)
            continue
        members.append(member)
        votes.append(math.log((1.0 - error) / error))
        weights[mis] *= (1.0 - error) / error
        weights *= n / weights.sum()
        if observer is not None:
            observer(member, error, weights.copy())
        if len(members) in wag_boundaries:
            weights = _wagging_weights(n, rng_from(seed, len(members), 2))

    if not members:
        raise AllMembersRejected(
            f"no usable member in {max_attempts} boosting attempts"
        )
    return EnsembleModel(tuple(members), np.asarray(votes), kind)


def _wagging_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Continuous-Poisson wagging: w = -ln(u), u uniform in (0, 1],
    renormalized to sum n."""
    w = -np.log(1.0 - rng.random(n))
    return w * (n / w.sum())


def build_adaboost_ensemble(
    d: Dataset,
    strategy: SubsetSelector,
    learner: LearnerParams,
    size: int,
    seed: int,
    observer=None,
) -> EnsembleModel:
    check_count("size", size, 1)
    return _boosted(d, strategy, learner, size, seed, "adaboost", frozenset(), observer)


def multiboost_boundaries(size: int) -> tuple[int, ...]:
    """Member counts that end a sub-committee: floor(sqrt(size))
    near-even sub-committees, e.g. 4, 7, 10 for size 10."""
    n_committees = max(1, math.isqrt(size))
    return tuple(
        math.ceil(i * size / n_committees) for i in range(1, n_committees + 1)
    )


def build_multiboost_ensemble(
    d: Dataset,
    strategy: SubsetSelector,
    learner: LearnerParams,
    size: int,
    seed: int,
    observer=None,
) -> EnsembleModel:
    check_count("size", size, 1)
    inner = frozenset(b for b in multiboost_boundaries(size) if b < size)
    return _boosted(d, strategy, learner, size, seed, "multiboost", inner, observer)


# ensemble kind -> (its builder, how its members' predictions combine)
ENSEMBLE_KINDS = {
    "random": (build_random_ensemble, "average_distribution"),
    "bagging": (build_bagged_ensemble, "average_distribution"),
    "adaboost": (build_adaboost_ensemble, "weighted_vote"),
    "multiboost": (build_multiboost_ensemble, "weighted_vote"),
}
