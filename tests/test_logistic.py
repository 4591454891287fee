import numpy as np
import pytest

from conftest import gaussian_dataset, simple_dataset
from nested_dichotomies.data import AttributeSpec, Dataset
from nested_dichotomies.errors import DidNotConverge, EncodingMismatch, SingleClass
from nested_dichotomies.learners import LogisticParams, fit_logistic
from nested_dichotomies.learners.logistic import penalized_nll, penalized_nll_grad


def random_problem(rng, n=5, p=10, ridge=1e-3):
    X = rng.normal(size=(n, p))
    t = rng.integers(0, 2, n).astype(float)
    w = rng.uniform(0.5, 2.0, n)
    beta = rng.normal(size=p + 1)
    return beta, X, t, w, ridge


def finite_diff_grad(beta, X, t, w, ridge, h=1e-6):
    g = np.zeros_like(beta)
    for j in range(beta.size):
        up, dn = beta.copy(), beta.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (penalized_nll(up, X, t, w, ridge) - penalized_nll(dn, X, t, w, ridge)) / (
            2 * h
        )
    return g


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(20):
        beta, X, t, w, ridge = random_problem(rng)
        # the optimizer passes one penalty per coefficient, intercept 0
        per_coef = np.concatenate(([0.0], rng.uniform(0.0, 0.1, beta.size - 1)))
        for r in (ridge, per_coef):
            analytic = penalized_nll_grad(beta, X, t, w, r)
            numeric = finite_diff_grad(beta, X, t, w, r)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_separable_probabilities():
    d = simple_dataset([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0], [0, 0, 0, 1, 1, 1])
    m = fit_logistic(d)
    # model reports P(first class) = P(a); b at x=+1 must dominate
    p_b = 1.0 - m.predict_prob(np.array([1.0, 0.0]))
    assert p_b > 0.99


def test_contradictory_point_gives_half():
    d = simple_dataset([2.0, 2.0], [0, 1])
    m = fit_logistic(d)
    assert m.predict_prob(np.array([2.0, 0.0])) == pytest.approx(0.5, abs=1e-9)


def test_gradient_small_at_optimum():
    rng = np.random.default_rng(1)
    for trial in range(10):
        d = gaussian_dataset(rng.normal(size=(2, 3)), per_class=15, seed=trial)
        m = fit_logistic(d, LogisticParams(ridge=1e-4))
        X = m.encoder.encode(d.values)
        t = (d.class_indices() == 0).astype(float)
        beta = np.concatenate(([m.intercept], m.weights))
        g = penalized_nll_grad(beta, X, t, d.weights, 1e-4)
        assert np.linalg.norm(g) <= 1e-6


def test_objective_no_worse_than_zero_vector():
    rng = np.random.default_rng(2)
    for trial in range(5):
        d = gaussian_dataset(rng.normal(size=(2, 4)), per_class=10, seed=10 + trial)
        m = fit_logistic(d, LogisticParams(ridge=0.1))
        X = m.encoder.encode(d.values)
        t = (d.class_indices() == 0).astype(float)
        beta = np.concatenate(([m.intercept], m.weights))
        at_fit = penalized_nll(beta, X, t, d.weights, 0.1)
        at_zero = penalized_nll(np.zeros_like(beta), X, t, d.weights, 0.1)
        assert at_fit <= at_zero + 1e-9


def test_refit_identical():
    d = gaussian_dataset(np.array([[0.0, 0.0], [2.0, 1.0]]), per_class=25, seed=3)
    m1 = fit_logistic(d)
    m2 = fit_logistic(d)
    np.testing.assert_allclose(m1.weights, m2.weights, atol=1e-12)
    assert m1.intercept == pytest.approx(m2.intercept, abs=1e-12)


def test_single_class_raises():
    d = Dataset(
        [AttributeSpec("x"), AttributeSpec("c", ("a", "b"))],
        np.array([[1.0, 0.0], [2.0, 0.0]]),
        1,
    )
    with pytest.raises(SingleClass):
        fit_logistic(d)


def test_did_not_converge_carries_partial_model():
    d = gaussian_dataset(np.array([[0.0], [3.0]]), per_class=20, seed=4)
    with pytest.raises(DidNotConverge) as err:
        fit_logistic(d, LogisticParams(max_iterations=1, gradient_tolerance=1e-14))
    assert err.value.iterations == 1
    assert err.value.model is not None
    p = err.value.model.predict_prob(d.instance(0))
    assert 0.0 <= p <= 1.0


def test_zero_model_predicts_half_and_monotone():
    d = simple_dataset([-2.0, -1.0, 1.0, 2.0], [0, 0, 1, 1])
    m = fit_logistic(d)
    zeroed = type(m)(
        np.zeros_like(m.weights), 0.0, m.encoder, m.class_pair, 0, True
    )
    assert zeroed.predict_prob(np.array([123.0, 0.0])) == 0.5
    # w < 0 here (class a sits at negative x): P(a | x) decreases with x
    xs = np.column_stack([np.linspace(-3, 3, 9), np.zeros(9)])
    probs = m.predict_prob_batch(xs)
    assert np.all(np.diff(probs) < 0)
    assert np.all((probs >= 0) & (probs <= 1))


def test_one_hot_encoding_of_nominals():
    attrs = [
        AttributeSpec("color", ("r", "g", "b")),
        AttributeSpec("c", ("x", "y")),
    ]
    values = np.array(
        [[0, 0], [1, 0], [2, 1], [1, 1], [0, 0], [2, 1], [0, 0], [1, 1]], dtype=float
    )
    d = Dataset(attrs, values, 1)
    m = fit_logistic(d, LogisticParams(ridge=1e-4))
    assert m.weights.shape == (3,)
    assert m.predict_prob(np.array([0.0, 0.0])) > 0.5  # color r always class x


def test_encoding_mismatch():
    d = simple_dataset([0.0, 1.0], [0, 1])
    m = fit_logistic(d)
    with pytest.raises(EncodingMismatch):
        m.predict_prob(np.array([1.0, 2.0, 3.0]))


def test_probabilities_complement_exactly():
    d = gaussian_dataset(np.array([[0.0, 1.0], [1.5, -0.5]]), per_class=12, seed=5)
    m = fit_logistic(d)
    p = m.predict_prob(d.instance(3))
    assert 0.0 <= p <= 1.0
    assert p + (1.0 - p) == 1.0
