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

try:
    from numpy.linalg._umath_linalg import solve1 as _solve1
except ImportError:  # numpy's private module layout moved: use the wrapper
    _solve1 = None

from ..data import Dataset
from ..errors import DidNotConverge, InvalidParam
from .base import BinaryModel, FeatureEncoder, binary_class_info, check_count

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
        check_count("max_iterations", self.max_iterations, 1)
        if not 0.0 < self.gradient_tolerance < math.inf:
            raise InvalidParam("gradient_tolerance", "must be > 0 and finite")


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``1 / (1 + exp(-clip(z, -500, 500)))``, written into ``out`` when
    given; the same operations in the same order either way."""
    # np.clip's values, without its Python-level dispatch
    s = np.maximum(z, -500, out=out)
    np.minimum(s, 500, out=s)
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.add(1.0, s, out=s)
    return np.divide(1.0, s, out=s)


def _ridge_vector(ridge, size: int) -> np.ndarray:
    """Per-coefficient penalty: a scalar ridge applies to every weight
    and not to the intercept; a vector is used as given."""
    if np.ndim(ridge):
        return ridge
    out = np.full(size, float(ridge))
    out[0] = 0.0
    return out


def _linear(beta, X, out: np.ndarray | None = None) -> np.ndarray:
    """``X @ beta[1:] + beta[0]``, written into ``out`` when given."""
    z = np.matmul(X, beta[1:], out=out)
    z += beta[0]
    return z


def _nll_at(z, beta, complement, sample_weights, ridge, work=None) -> float:
    """:func:`penalized_nll` given the linear predictor ``z`` of ``beta``,
    ``complement = 1 - target`` and the per-coefficient ``ridge`` vector.
    ``work`` is a pair of buffers shaped like ``z`` for the per-instance
    losses (fresh ones when not given)."""
    losses, soft = (np.empty_like(z), np.empty_like(z)) if work is None else work
    # -t log p - (1-t) log(1-p) == (1-t) z + log(1 + e^-z), stable form
    np.multiply(complement, z, out=losses)
    np.negative(z, out=soft)
    np.logaddexp(0.0, soft, out=soft)
    losses += soft
    return float(sample_weights @ losses + 0.5 * (ridge @ (beta * beta)))


def _grad_at(
    p, beta, X, target, sample_weights, ridge, out=None, work=None
) -> np.ndarray:
    """:func:`penalized_nll_grad` given the probabilities
    ``p = sigmoid(z)`` of ``beta`` and the per-coefficient ``ridge``;
    written into ``out`` (shaped like ``beta``) when given.  ``work``, a
    buffer shaped like ``p``, takes the weighted residual."""
    r = np.subtract(p, target, out=work)
    r *= sample_weights
    g = np.empty_like(beta) if out is None else out
    g[0] = r.sum()
    np.matmul(X.T, r, out=g[1:])
    g += ridge * beta
    return g


def _column_sums(A, out) -> np.ndarray:
    """``A.sum(axis=0, out=out)`` for a C-ordered ``A``, bit for bit; see
    :func:`fit_logistic` for why two or more columns go through einsum."""
    if A.shape[1] > 1:
        return np.einsum("ij->j", A, out=out)
    return A.sum(axis=0, out=out)


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _solve(hess, rhs) -> np.ndarray:
    """``np.linalg.solve(hess, rhs)`` for a float64 square ``hess`` and a
    1-D ``rhs``: the LAPACK gufunc it calls, under the error state it
    sets, so that a singular ``hess`` raises ``LinAlgError`` as it does
    there.  numpy without the gufunc takes ``np.linalg.solve`` itself."""
    if _solve1 is None:
        return np.linalg.solve(hess, rhs)
    with np.errstate(call=_raise_singular, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return _solve1(hess, rhs, signature="dd->d")


def penalized_nll(beta, X, target, sample_weights, ridge) -> float:
    """Objective value; ``beta[0]`` is the (unpenalized) intercept.

    ``ridge`` is a scalar, or a per-coefficient vector whose intercept
    entry is 0."""
    ridge = _ridge_vector(ridge, beta.size)
    return _nll_at(_linear(beta, X), beta, 1.0 - target, sample_weights, ridge)


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
    curvature-weighted design ``Xc``, the Hessian, the gradient and the
    n-length vectors (the linear predictor and the line search's
    candidate one, the probabilities, the curvature, the residual and two
    loss temporaries).  Every iteration rebuilds all of them in place,
    with the same operations in the same order as freshly allocated
    arrays would take, so a fit's bits do not depend on it.  Three
    choices keep those bits off numpy's slow paths:

    - The Hessian's intercept row, the column sums of ``Xc``, comes from
      ``einsum("ij->j")``.  ``Xc.sum(axis=0)`` on a C-ordered ``Xc`` adds
      the same rows in the same order, one row per inner-loop call, and
      takes about twice as long.
    - A one-column design keeps ``Xc.sum(axis=0)``: numpy sums a single
      column pairwise, and einsum would add it sequentially, which
      rounds differently.
    - The Newton system is solved by the LAPACK gufunc behind
      ``np.linalg.solve`` (:func:`_solve`), under the error state that
      ``np.linalg.solve`` sets, so a singular Hessian raises
      ``LinAlgError`` and falls back to ``lstsq`` in exactly the cases
      where ``np.linalg.solve`` would.
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
    complement = 1.0 - target

    # the per-fit workspace; hess_diag is a strided view of the diagonal
    Xc = np.empty_like(X)
    hess = np.empty((p_dim, p_dim))
    hess_diag = hess.reshape(-1)[:: p_dim + 1]
    g = np.empty(p_dim)
    z, cand_z, p, curv, resid = (np.empty_like(target) for _ in range(5))
    loss_work = (np.empty_like(target), np.empty_like(target))

    # One linear predictor and one sigmoid per iterate: the accepted line
    # search candidate's z is the next iterate's, and its p feeds both the
    # gradient and the Hessian weights.
    _linear(beta, X, out=z)
    obj = _nll_at(z, beta, complement, m, ridge_diag, loss_work)
    iterations = 0
    converged = False
    stationary_streak = 0
    # A step from a singular Hessian (no ridge on the intercept) can send a
    # candidate's coefficients past 1e154, where ``beta * beta`` overflows
    # and the objective turns inf or NaN.  The line search rejects such a
    # candidate (``NaN < obj`` is false), so only the warning is silenced,
    # once per fit rather than per objective call.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, params.max_iterations + 1):
            _sigmoid(z, out=p)
            _grad_at(p, beta, X, target, m, ridge_diag, out=g, work=resid)
            if np.abs(g).max() <= params.gradient_tolerance:
                converged = True
                iterations -= 1
                break
            # m * max(p * (1 - p), 1e-12)
            np.subtract(1.0, p, out=curv)
            curv *= p
            np.maximum(curv, 1e-12, out=curv)
            curv *= m
            np.multiply(X, curv[:, None], out=Xc)
            hess[0, 0] = curv.sum()
            _column_sums(Xc, out=hess[0, 1:])
            hess[1:, 0] = hess[0, 1:]
            np.matmul(X.T, Xc, out=hess[1:, 1:])
            hess_diag += ridge_diag
            try:
                step = _solve(hess, -g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, -g, rcond=None)[0]

            # alpha = 1 first: 1.0 * step is step, bit for bit
            cand = beta + step
            alpha = 1.0
            for _ in range(_MAX_HALVINGS):
                _linear(cand, X, out=cand_z)
                cand_obj = _nll_at(cand_z, cand, complement, m, ridge_diag, loss_work)
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
            beta, obj = cand, cand_obj
            z, cand_z = cand_z, z
            if stationary_streak >= 3:
                # three consecutive float-resolution decreases: numerically
                # stationary (quasi-separable data crawls here forever)
                converged = True
                break
        else:
            _sigmoid(z, out=p)
            _grad_at(p, beta, X, target, m, ridge_diag, out=g, work=resid)
            converged = np.abs(g).max() <= params.gradient_tolerance

    weights = beta[1:] / scale
    intercept = beta[0] - float(weights @ mu)
    model = LogisticModel(weights, intercept, encoder, (lo, hi), iterations, converged)
    if not converged:
        raise DidNotConverge(iterations, model=model)
    return model
