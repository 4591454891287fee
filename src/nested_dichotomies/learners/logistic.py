"""Ridge-penalized binary logistic regression, fit by iteratively
reweighted least squares (Newton steps with step halving).

The objective is the penalized negative binomial log-likelihood

    f(b, w) = -sum_i m_i [t_i log p_i + (1 - t_i) log(1 - p_i)]
              + (ridge / 2) ||w||^2

with p_i = sigmoid(w . x_i + b), instance weights m_i, and the intercept b
left out of the penalty.  The objective is strictly convex (any positive
ridge), so the optimizer is deterministic and the fit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..errors import DidNotConverge, InvalidParam
from .base import BinaryModel, FeatureEncoder, binary_class_info

_MAX_HALVINGS = 50


@dataclass(frozen=True)
class LogisticParams:
    ridge: float = 1e-8
    max_iterations: int = 200
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        # written so that NaN fails the checks
        if not 0.0 <= self.ridge < math.inf:
            raise InvalidParam("ridge", "must be >= 0 and finite")
        if self.max_iterations < 1:
            raise InvalidParam("max_iterations", "must be >= 1")
        if not 0.0 < self.gradient_tolerance < math.inf:
            raise InvalidParam("gradient_tolerance", "must be > 0 and finite")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # np.clip's values, without its Python-level dispatch
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500), 500)))


def _ridge_vector(ridge, size: int) -> np.ndarray:
    """Per-coefficient penalty: a scalar ridge applies to every weight
    and not to the intercept; a vector is used as given."""
    if np.ndim(ridge):
        return ridge
    out = np.full(size, float(ridge))
    out[0] = 0.0
    return out


def _linear(beta, X) -> np.ndarray:
    return X @ beta[1:] + beta[0]


def _nll_at(z, beta, target, sample_weights, ridge) -> float:
    """:func:`penalized_nll` given the linear predictor ``z`` of ``beta``
    and the per-coefficient ``ridge`` vector."""
    # -t log p - (1-t) log(1-p) == (1-t) z + log(1 + e^-z), stable form
    losses = (1.0 - target) * z + np.logaddexp(0.0, -z)
    return float(sample_weights @ losses + 0.5 * (ridge @ (beta * beta)))


def _grad_at(p, beta, X, target, sample_weights, ridge, out=None) -> np.ndarray:
    """:func:`penalized_nll_grad` given the probabilities
    ``p = sigmoid(z)`` of ``beta`` and the per-coefficient ``ridge``;
    written into ``out`` (shaped like ``beta``) when given."""
    r = sample_weights * (p - target)
    g = np.empty_like(beta) if out is None else out
    g[0] = r.sum()
    np.matmul(X.T, r, out=g[1:])
    g += ridge * beta
    return g


def penalized_nll(beta, X, target, sample_weights, ridge) -> float:
    """Objective value; ``beta[0]`` is the (unpenalized) intercept.

    ``ridge`` is a scalar, or a per-coefficient vector whose intercept
    entry is 0."""
    ridge = _ridge_vector(ridge, beta.size)
    return _nll_at(_linear(beta, X), beta, target, sample_weights, ridge)


def penalized_nll_grad(beta, X, target, sample_weights, ridge) -> np.ndarray:
    """Analytic gradient of :func:`penalized_nll` in ``beta``."""
    ridge = _ridge_vector(ridge, beta.size)
    p = _sigmoid(_linear(beta, X))
    return _grad_at(p, beta, X, target, sample_weights, ridge)


class LogisticModel(BinaryModel):
    kind = "logistic"

    def __init__(self, weights, intercept, encoder, class_pair, iterations, converged):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.intercept = float(intercept)
        self.encoder = encoder
        self.class_pair = tuple(class_pair)
        self.iterations = int(iterations)
        self.converged = bool(converged)
        self.n_attributes = encoder.n_attributes

    def predict_prob_batch(self, rows: np.ndarray) -> np.ndarray:
        X = self.encoder.encode(rows)
        return _sigmoid(X @ self.weights + self.intercept)

    def to_lines(self) -> list[str]:
        lines = [
            "logistic",
            f"classes {self.class_pair[0]} {self.class_pair[1]}",
            f"intercept {self.intercept!r}",
        ]
        lines += [
            f"w {name} {w!r}"
            for name, w in zip(self.encoder.feature_names, self.weights)
        ]
        return lines


def fit_logistic(d: Dataset, params: LogisticParams = LogisticParams()) -> LogisticModel:
    """Fit on a dataset with exactly two classes present.

    Deterministic: Newton iterations from the zero vector with step
    halving.  The iteration runs in an internally standardized feature
    basis (same objective, far better conditioning on unnormalized data)
    and stops when the standardized gradient inf-norm reaches the
    tolerance; returned weights are in the original basis.  Raises
    DidNotConverge (carrying the partial model) at the iteration cap.

    Each call allocates one workspace after standardization: the
    curvature-weighted design ``Xc``, the Hessian and the gradient.
    Every iteration rebuilds all of the Hessian and the gradient in
    place, with the same operations in the same order as freshly
    allocated arrays would take, so a fit's bits do not depend on it.
    """
    lo, hi, target = binary_class_info(d)
    encoder = FeatureEncoder(d.attributes, d.class_attribute)
    raw = encoder.encode(d.values)
    m = d.weights

    # Standardize with weighted moments; constant columns keep scale 1.
    total = m.sum()
    mu = (m @ raw) / total
    X = raw - mu
    var = (m @ X**2) / total
    scale = np.sqrt(var)
    scale[scale <= 0] = 1.0
    X /= scale

    p_dim = X.shape[1] + 1
    beta = np.zeros(p_dim)
    # ridge on original-basis weights w = ws / scale
    ridge_diag = np.concatenate(([0.0], params.ridge / scale**2))

    # the per-fit workspace; hess_diag is a strided view of the diagonal
    Xc = np.empty_like(X)
    hess = np.empty((p_dim, p_dim))
    hess_diag = hess.reshape(-1)[:: p_dim + 1]
    g = np.empty(p_dim)

    # One linear predictor and one sigmoid per iterate: the accepted line
    # search candidate's z is the next iterate's, and its p feeds both the
    # gradient and the Hessian weights.
    z = _linear(beta, X)
    obj = _nll_at(z, beta, target, m, ridge_diag)
    iterations = 0
    converged = False
    stationary_streak = 0
    for iterations in range(1, params.max_iterations + 1):
        p = _sigmoid(z)
        _grad_at(p, beta, X, target, m, ridge_diag, out=g)
        if np.abs(g).max() <= params.gradient_tolerance:
            converged = True
            iterations -= 1
            break
        curv = m * np.maximum(p * (1.0 - p), 1e-12)
        np.multiply(X, curv[:, None], out=Xc)
        hess[0, 0] = curv.sum()
        Xc.sum(axis=0, out=hess[0, 1:])
        hess[1:, 0] = hess[0, 1:]
        np.matmul(X.T, Xc, out=hess[1:, 1:])
        hess_diag += ridge_diag
        try:
            step = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -g, rcond=None)[0]

        # alpha = 1 first: 1.0 * step is step, bit for bit
        cand = beta + step
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            cand_z = _linear(cand, X)
            cand_obj = _nll_at(cand_z, cand, target, m, ridge_diag)
            if cand_obj < obj:
                break
            alpha *= 0.5
            cand = beta + alpha * step
        else:
            # No strictly decreasing step of any size exists: the iterate
            # is the double-precision optimum, even if the (noise-level)
            # gradient sits above an unreachably tight tolerance.
            converged = True
            break
        if obj - cand_obj <= 1e-13 * (1.0 + abs(cand_obj)):
            stationary_streak += 1
        else:
            stationary_streak = 0
        beta, z, obj = cand, cand_z, cand_obj
        if stationary_streak >= 3:
            # three consecutive float-resolution decreases: numerically
            # stationary (quasi-separable data crawls here forever)
            converged = True
            break
    else:
        _grad_at(_sigmoid(z), beta, X, target, m, ridge_diag, out=g)
        converged = np.abs(g).max() <= params.gradient_tolerance

    weights = beta[1:] / scale
    intercept = beta[0] - float(weights @ mu)
    model = LogisticModel(weights, intercept, encoder, (lo, hi), iterations, converged)
    if not converged:
        raise DidNotConverge(iterations, model=model)
    return model
