import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_dataset, simple_dataset
from nested_dichotomies.data import AttributeSpec, Dataset, bootstrap_sample
from nested_dichotomies.errors import (
    DidNotConverge,
    EncodingMismatch,
    InvalidParam,
    SingleClass,
)
from nested_dichotomies.learners import LogisticParams, fit_logistic, logistic
from nested_dichotomies.learners.base import FeatureEncoder, binary_class_info
from nested_dichotomies.learners.logistic import (
    _SingularFlag,
    _column_sums,
    _fit_errstate,
    _grad_at,
    _linear,
    _nll_at,
    _sigmoid,
    _solve,
    penalized_nll,
    penalized_nll_grad,
)


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
    [p_a] = m.predict_prob_batch(np.array([1.0, 0.0]))
    p_b = 1.0 - p_a
    assert p_b > 0.99


def test_contradictory_point_gives_half():
    d = simple_dataset([2.0, 2.0], [0, 1])
    m = fit_logistic(d)
    assert m.predict_prob_batch(np.array([2.0, 0.0])) == pytest.approx([0.5], abs=1e-9)


def test_gradient_small_at_optimum():
    rng = np.random.default_rng(1)
    for trial in range(10):
        d = gaussian_dataset(rng.normal(size=(2, 3)), per_class=15, seed=trial)
        m = fit_logistic(d, LogisticParams(ridge=1e-4))
        X = m.layout.encode(d.values)
        t = (d.class_indices() == 0).astype(float)
        beta = np.concatenate(([m.intercept], m.weights))
        g = penalized_nll_grad(beta, X, t, d.weights, 1e-4)
        assert np.linalg.norm(g) <= 1e-6


def test_objective_no_worse_than_zero_vector():
    rng = np.random.default_rng(2)
    for trial in range(5):
        d = gaussian_dataset(rng.normal(size=(2, 4)), per_class=10, seed=10 + trial)
        m = fit_logistic(d, LogisticParams(ridge=0.1))
        X = m.layout.encode(d.values)
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
    [p] = err.value.model.predict_prob_batch(d.values[:1])
    assert 0.0 <= p <= 1.0


def test_zero_model_predicts_half_and_monotone():
    d = simple_dataset([-2.0, -1.0, 1.0, 2.0], [0, 0, 1, 1])
    m = fit_logistic(d)
    zeroed = type(m)(
        np.zeros_like(m.weights), 0.0, m.layout, m.class_pair, 0, True
    )
    assert zeroed.predict_prob_batch(np.array([123.0, 0.0])).tolist() == [0.5]
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
    [p] = m.predict_prob_batch(np.array([0.0, 0.0]))
    assert p > 0.5  # color r always class x


def test_encode_copies_numeric_runs_like_column_by_column():
    # numeric runs broken by the class column and by nominal columns
    attrs = [
        AttributeSpec("x0"), AttributeSpec("x1"),
        AttributeSpec("c", ("a", "b")),
        AttributeSpec("x2"),
        AttributeSpec("n", ("p", "q", "r")),
        AttributeSpec("x3"), AttributeSpec("x4"), AttributeSpec("x5"),
    ]
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(9, len(attrs)))
    rows[:, 2] = rng.integers(0, 2, 9)
    rows[:, 4] = rng.integers(0, 3, 9)
    for class_at in (2, 4):
        encoder = FeatureEncoder(attrs, class_at)
        want = []
        for j, spec in enumerate(attrs):
            if j == class_at:
                continue
            if spec.is_nominal:
                want.append(np.eye(len(spec.values))[rows[:, j].astype(int)])
            else:
                want.append(rows[:, [j]])
        got = encoder.encode(rows)
        assert got.tobytes() == np.hstack(want).tobytes()
        assert encoder.n_features == got.shape[1]


def test_encoding_mismatch():
    d = simple_dataset([0.0, 1.0], [0, 1])
    m = fit_logistic(d)
    with pytest.raises(EncodingMismatch):
        m.predict_prob_batch(np.array([1.0, 2.0, 3.0]))


def test_probabilities_complement_exactly():
    d = gaussian_dataset(np.array([[0.0, 1.0], [1.5, -0.5]]), per_class=12, seed=5)
    m = fit_logistic(d)
    [p] = m.predict_prob_batch(d.values[3])
    assert 0.0 <= p <= 1.0
    assert p + (1.0 - p) == 1.0


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"ridge": -1.0}, "ridge"),
        ({"ridge": np.inf}, "ridge"),
        ({"ridge": np.nan}, "ridge"),
        ({"max_iterations": 0}, "max_iterations"),
        ({"gradient_tolerance": 0.0}, "gradient_tolerance"),
        ({"gradient_tolerance": np.inf}, "gradient_tolerance"),
        ({"gradient_tolerance": np.nan}, "gradient_tolerance"),
        ({"max_iterations": 2.5}, "max_iterations"),
        ({"max_iterations": 3.0}, "max_iterations"),
        ({"max_iterations": True}, "max_iterations"),
    ],
)
def test_params_reject_out_of_range_and_non_finite(kwargs, field):
    with pytest.raises(InvalidParam) as err:
        LogisticParams(**kwargs)
    assert err.value.field == field
    assert str(err.value).startswith(f"{field} must be ")


def test_sigmoid_clamps_like_clip():
    z = np.array([-np.inf, -1e300, -500.5, -500.0, -499.9, -1.0, -0.0, 0.0,
                  1e-300, 3.5, 499.9, 500.0, 500.5, 1e300, np.inf, np.nan])
    want = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    assert _sigmoid(z).tobytes() == want.tobytes()


# -- oracle: the two-pass Newton loop -----------------------------------------
#
# ``_ref_fit`` is the direct IRLS: every iterate recomputes ``X @ beta`` and
# the sigmoid separately for the objective, the gradient and the Hessian,
# with the objective and gradient written out in full.  The single-pass
# loop reuses the accepted line-search candidate's linear predictor and
# must give the same fit, bit for bit.


def _ref_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _ref_nll(beta, X, target, m, ridge):
    z = X @ beta[1:] + beta[0]
    losses = (1.0 - target) * z + np.logaddexp(0.0, -z)
    return float(m @ losses + 0.5 * (ridge @ (beta * beta)))


def _ref_grad(beta, X, target, m, ridge):
    z = X @ beta[1:] + beta[0]
    r = m * (_ref_sigmoid(z) - target)
    g = np.empty_like(beta)
    g[0] = r.sum()
    g[1:] = X.T @ r
    return g + ridge * beta


def _ref_fit(d, params):
    """(weights, intercept, iterations, converged) of the two-pass loop."""
    _, _, target = binary_class_info(d)
    raw = FeatureEncoder(d.attributes, d.class_attribute).encode(d.values)
    m = d.weights
    total = m.sum()
    mu = (m @ raw) / total
    var = (m @ (raw - mu) ** 2) / total
    scale = np.sqrt(var)
    scale[scale <= 0] = 1.0
    X = (raw - mu) / scale
    p_dim = X.shape[1] + 1
    beta = np.zeros(p_dim)
    ridge_diag = np.concatenate(([0.0], params.ridge / scale**2))

    obj = _ref_nll(beta, X, target, m, ridge_diag)
    iterations = 0
    converged = False
    stationary_streak = 0
    for iterations in range(1, params.max_iterations + 1):
        g = _ref_grad(beta, X, target, m, ridge_diag)
        if np.max(np.abs(g)) <= params.gradient_tolerance:
            converged = True
            iterations -= 1
            break
        z = X @ beta[1:] + beta[0]
        p = _ref_sigmoid(z)
        curv = m * np.maximum(p * (1.0 - p), 1e-12)
        Xc = X * curv[:, None]
        hess = np.empty((p_dim, p_dim))
        hess[0, 0] = curv.sum()
        hess[0, 1:] = hess[1:, 0] = Xc.sum(axis=0)
        hess[1:, 1:] = X.T @ Xc
        hess[np.diag_indices_from(hess)] += ridge_diag
        try:
            step = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -g, rcond=None)[0]
        alpha = 1.0
        # a candidate past 1e154 overflows ``beta * beta``; it is rejected
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(50):
                cand = beta + alpha * step
                cand_obj = _ref_nll(cand, X, target, m, ridge_diag)
                if cand_obj < obj:
                    break
                alpha *= 0.5
            else:
                converged = True
                break
        if obj - cand_obj <= 1e-13 * (1.0 + abs(cand_obj)):
            stationary_streak += 1
        else:
            stationary_streak = 0
        beta, obj = cand, cand_obj
        if stationary_streak >= 3:
            converged = True
            break
    else:
        g = _ref_grad(beta, X, target, m, ridge_diag)
        converged = np.max(np.abs(g)) <= params.gradient_tolerance

    weights = beta[1:] / scale
    intercept = beta[0] - float(weights @ mu)
    return weights, intercept, iterations, bool(converged)


def test_objective_and_gradient_match_reference_bitwise():
    # the fit's outputs rarely show a last-bit change in the objective,
    # which only decides line-search acceptance
    rng = np.random.default_rng(7)
    for _ in range(20):
        unit, X, t, w, _ = random_problem(rng, n=40, p=4)
        ridge = np.concatenate(([0.0], rng.uniform(0.0, 0.1, unit.size - 1)))
        for beta in (1e-3 * unit, 0.3 * unit, unit, 40.0 * unit):
            assert penalized_nll(beta, X, t, w, ridge) == _ref_nll(beta, X, t, w, ridge)
            got = penalized_nll_grad(beta, X, t, w, ridge)
            assert got.tobytes() == _ref_grad(beta, X, t, w, ridge).tobytes()
            # the optimizer's in-place form; stale buffer contents must not leak
            out = np.full_like(beta, np.nan)
            p = _sigmoid(X @ beta[1:] + beta[0])
            assert _grad_at(p, beta, X, t, w, ridge, out=out) is out
            assert out.tobytes() == got.tobytes()


def _fit_result(d, params):
    try:
        model = fit_logistic(d, params)
    except DidNotConverge as err:
        model = err.model
    return model.weights, model.intercept, model.iterations, model.converged


def _assert_fits_bit_equal(d, params):
    w, b, iterations, converged = _fit_result(d, params)
    ref_w, ref_b, ref_iterations, ref_converged = _ref_fit(d, params)
    assert w.tobytes() == ref_w.tobytes()
    assert np.float64(b).tobytes() == np.float64(ref_b).tobytes()
    assert (iterations, converged) == (ref_iterations, ref_converged)


_FRACTIONS = (0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 1.0, 1.0, 1.5, 2.0, 3.0)


@st.composite
def _logistic_problems(draw):
    n = draw(st.integers(2, 30))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if len(set(labels)) == 1:
        labels[0] ^= 1  # both classes present
    kinds = draw(st.lists(
        st.sampled_from(("numeric", "nominal", "separating")), min_size=1, max_size=4
    ))
    class_at = draw(st.integers(0, len(kinds)))
    attrs, cols = [], []
    for j, kind in enumerate(kinds):
        if kind == "nominal":
            size = draw(st.integers(2, 4))
            attrs.append(AttributeSpec(f"n{j}", tuple(f"v{i}" for i in range(size))))
            cols.append(draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n)))
            continue
        attrs.append(AttributeSpec(f"x{j}"))
        if kind == "numeric":
            cols.append(draw(st.lists(
                st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n
            )))
        else:
            # the label shifted by a gap plus small noise: separable or
            # nearly so, where the iterates run off towards infinity
            gap = draw(st.sampled_from((0.5, 3.0, 50.0)))
            noise = draw(st.lists(st.floats(-0.4, 0.4), min_size=n, max_size=n))
            cols.append([gap * t + e for t, e in zip(labels, noise)])
    attrs.insert(class_at, AttributeSpec("class", ("a", "b")))
    cols.insert(class_at, labels)
    weights = draw(st.lists(st.sampled_from(_FRACTIONS), min_size=n, max_size=n))
    d = Dataset(attrs, np.asarray(cols, dtype=float).T, class_at, weights=weights)
    params = LogisticParams(
        ridge=draw(st.sampled_from((0.0, 1e-8, 1e-3, 1.0))),
        max_iterations=draw(st.sampled_from((1, 2, 1000))),
        gradient_tolerance=draw(st.sampled_from((1e-8, 1e-14))),
    )
    return d, params


@settings(max_examples=300, deadline=None)
@given(_logistic_problems())
def test_single_pass_newton_matches_two_pass_reference(problem):
    _assert_fits_bit_equal(*problem)


def _overflowing_candidate_data():
    # ridge 0 and a column that is zero but for 5e-195 on one row: the
    # first step puts a coefficient near 1.7e178, and that candidate's
    # ``beta * beta`` overflows
    attrs = [AttributeSpec("class", ("a", "b")), AttributeSpec("x0"), AttributeSpec("x1")]
    values = np.zeros((12, 3))
    values[0, 0] = 1.0
    values[11, 1:] = (5.132107238301358e-195, 1.0)
    return Dataset(attrs, values, 0, weights=np.full(12, 0.1))


def test_overflowing_candidate_is_rejected_without_a_warning():
    d = _overflowing_candidate_data()
    params = LogisticParams(ridge=0.0, max_iterations=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _assert_fits_bit_equal(d, params)


@pytest.mark.parametrize("pair", [(0, 1), (2, 7), (5, 10)])
def test_single_pass_newton_matches_reference_on_vowel(vowel, pair):
    d = vowel.restrict_to_classes(pair)
    for params in (
        LogisticParams(max_iterations=1000),
        LogisticParams(ridge=0.0, max_iterations=1, gradient_tolerance=1e-14),
    ):
        _assert_fits_bit_equal(d, params)


@pytest.mark.parametrize(
    "name, pair",
    [("vowel", (0, 1)), ("vowel", (2, 7)), ("zoo", (0, 1))],
    ids=["vowel-0-1", "vowel-2-7", "zoo-0-1"],
)
def test_fit_on_a_bare_dataset_equals_the_fit_through_a_derived_one(name, pair, request):
    # a derived dataset takes its rows from its family's feature matrix, a
    # bare one encodes its own on first use: the same bits either way
    family = request.getfixturevalue(name)
    resampled = bootstrap_sample(family, 5)  # repeated rows
    for derived in (family.restrict_to_classes(pair),
                    resampled.restrict_to_classes(pair).relabel_binary({pair[0]})):
        bare = Dataset(derived.attributes, derived.values, derived.class_attribute,
                       weights=derived.weights)
        for params in (LogisticParams(max_iterations=1000), LogisticParams(ridge=1e-3)):
            w, b, iterations, converged = _fit_result(derived, params)
            bare_w, bare_b, bare_iterations, bare_converged = _fit_result(bare, params)
            assert w.tobytes() == bare_w.tobytes()
            assert np.float64(b).tobytes() == np.float64(bare_b).tobytes()
            assert (iterations, converged) == (bare_iterations, bare_converged)


def _singular_fit_calls(monkeypatch):
    """Fit a problem whose Hessian is singular at every iteration; return
    the model and the number of ``lstsq`` calls it made."""
    # "blue" never occurs: its indicator column is all zero, and with no
    # ridge the Hessian has an exactly zero row and column every iteration
    attrs = [
        AttributeSpec("x"),
        AttributeSpec("color", ("red", "green", "blue")),
        AttributeSpec("c", ("a", "b")),
    ]
    x = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    color = [0, 1, 0, 1, 1, 0, 0, 1, 1, 0]
    label = [0, 0, 1, 0, 0, 1, 0, 1, 1, 1]
    d = Dataset(attrs, np.column_stack([x, color, label]).astype(float), 2)
    params = LogisticParams(ridge=0.0)

    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    model = fit_logistic(d, params)
    assert model.converged
    assert model.iterations >= 2
    assert len(calls) == model.iterations
    assert model.weights[3] == 0.0  # color=blue
    fit_calls = len(calls)
    _assert_fits_bit_equal(d, params)
    return model, fit_calls


def test_singular_hessian_falls_back_to_lstsq(monkeypatch):
    model, lstsq_calls = _singular_fit_calls(monkeypatch)
    assert (model.iterations, lstsq_calls) == (5, 5)


def _invalid_gradient_data():
    # a column of values near 1e-161 has a variance that underflows, so its
    # ridge 1e-8 / scale**2 is inf, and the gradient's ``ridge * beta`` is
    # inf * 0 = NaN: an invalid value raised before the first solve, whose
    # Hessian LAPACK does not find singular
    x = [0.12493983658494168, 49.69661933910693, -0.16105523783700182,
         49.7626846116459, -0.3665575184483798, 49.99994457590874,
         0.21887576739371306, 0.01286331812819902]
    tiny = [-6.699737611911385e-162, -1.3481033627983054e-161, 1.9280959159459827e-162,
            1.2339665620843829e-161, 1.6181941528990786e-161, 1.1196692172865295e-161,
            1.3209773262588657e-161, -2.1059937510583143e-162]
    label = [0, 1, 0, 1, 0, 1, 0, 0]
    attrs = [AttributeSpec("x0"), AttributeSpec("x1"), AttributeSpec("c", ("a", "b"))]
    return Dataset(attrs, np.column_stack([x, tiny, label]).astype(float), 2)


def _counted_lstsq_fit(d, params, monkeypatch):
    """``(model, lstsq calls)`` of one fit, with the standardization's
    overflow warnings, which the fit's error state does not cover, off."""
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    with np.errstate(over="ignore", invalid="ignore"):
        model = fit_logistic(d, params)
    return model, len(calls)


@pytest.mark.parametrize("solver", ["solve1", "linalg_solve"])
@pytest.mark.parametrize(
    "data, params, expected",
    [
        (_overflowing_candidate_data, LogisticParams(ridge=0.0, max_iterations=1), (1, 0)),
        (_overflowing_candidate_data, LogisticParams(ridge=0.0), (1, 0)),
        (_invalid_gradient_data, LogisticParams(max_iterations=1000), (1, 0)),
    ],
    ids=["overflow-one-iteration", "overflow", "invalid-gradient"],
)
def test_invalid_values_outside_the_solve_do_not_reach_lstsq(
    data, params, expected, solver, monkeypatch
):
    # each fit raises an invalid value outside its solve (an overflowed
    # candidate's objective, an inf * 0 gradient); only a singular solve
    # may route a step to lstsq, so the counts stay those of a fit that
    # opened an error state per solve
    if solver == "linalg_solve":
        _use_linalg_solve(monkeypatch)
    model, lstsq_calls = _counted_lstsq_fit(data(), params, monkeypatch)
    assert (model.iterations, lstsq_calls) == expected
    assert model.converged


# -- the LAPACK binding and the in-place helpers --------------------------------


def _use_linalg_solve(monkeypatch):
    """Force the module onto its ``np.linalg.solve`` fallback, as on a
    numpy without the ``solve1`` gufunc; returns the list of its calls."""
    calls = []
    solve = np.linalg.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(logistic, "_solve1", None)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return calls


def test_singular_hessian_falls_back_to_lstsq_through_linalg_solve(monkeypatch):
    solve_calls = _use_linalg_solve(monkeypatch)
    model, lstsq_calls = _singular_fit_calls(monkeypatch)
    assert (model.iterations, lstsq_calls) == (5, 5)
    # the fit, the fit again and the reference loop each call it 5 times
    assert len(solve_calls) == 3 * 5


@pytest.mark.parametrize("pair", [(0, 1), (2, 7)])
def test_linalg_solve_fallback_matches_reference_on_vowel(vowel, pair, monkeypatch):
    calls = _use_linalg_solve(monkeypatch)
    d = vowel.restrict_to_classes(pair)
    for params in (
        LogisticParams(max_iterations=1000),
        LogisticParams(ridge=0.0, max_iterations=1, gradient_tolerance=1e-14),
    ):
        _assert_fits_bit_equal(d, params)
    assert calls


@settings(max_examples=100, deadline=None)
@given(_logistic_problems())
def test_linalg_solve_fallback_matches_two_pass_reference(problem):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _use_linalg_solve(monkeypatch)
        _assert_fits_bit_equal(*problem)


def test_solve_matches_linalg_solve_and_raises_on_singular():
    rng = np.random.default_rng(11)
    flag = _SingularFlag()
    with _fit_errstate(flag):
        for size in (1, 2, 3, 11, 20, 65):
            A = rng.normal(size=(size, size)) + size * np.eye(size)
            b = rng.normal(size=size)
            assert _solve(A, b, flag).tobytes() == np.linalg.solve(A, b).tobytes()
        singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        for matrix in (singular, np.zeros((3, 3))):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(matrix, np.ones(3))
            with pytest.raises(np.linalg.LinAlgError):
                _solve(matrix, np.ones(3), flag)


def test_solve_ignores_an_invalid_value_raised_before_it():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, -1.0])
    flag = _SingularFlag()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with _fit_errstate(flag):
            assert np.isnan(np.zeros(1) / np.zeros(1)).all()  # 0 / 0: invalid
            assert flag.raised
            assert _solve(A, b, flag).tobytes() == np.linalg.solve(A, b).tobytes()
            assert not flag.raised
            with pytest.raises(np.linalg.LinAlgError):
                _solve(np.zeros((2, 2)), b, flag)
            assert flag.raised


@pytest.mark.parametrize("p", [1, 2, 3, 19, 29, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 257, 2079])
def test_column_sums_match_sum_bytes(n, p, monkeypatch):
    rng = np.random.default_rng(100 * n + p)
    # a curvature-weighted design, as the Hessian's intercept row sums it
    A = rng.normal(size=(n, p)) * rng.uniform(1e-12, 0.25, size=(n, 1))
    if p == 1:
        # one column keeps sum(axis=0): numpy sums it pairwise, einsum would not
        def no_einsum(*args, **kwargs):
            raise AssertionError("a one-column design reached einsum")

        monkeypatch.setattr(np, "einsum", no_einsum)
    out = np.full(p, np.nan)
    assert _column_sums(A, out=out) is out
    assert out.tobytes() == A.sum(axis=0).tobytes()


def test_out_and_work_forms_match_fresh_arrays():
    # stale buffer contents (NaN here) must not leak into any result
    rng = np.random.default_rng(13)
    for _ in range(20):
        unit, X, t, w, _ = random_problem(rng, n=40, p=4)
        ridge = np.concatenate(([0.0], rng.uniform(0.0, 0.1, unit.size - 1)))
        n = t.size
        for beta in (1e-3 * unit, unit, 40.0 * unit):
            z = _linear(beta, X)
            assert z.tobytes() == (X @ beta[1:] + beta[0]).tobytes()
            z_out = np.full(n, np.nan)
            assert _linear(beta, X, out=z_out) is z_out
            assert z_out.tobytes() == z.tobytes()

            p = _sigmoid(z)
            assert p.tobytes() == _ref_sigmoid(z).tobytes()
            p_out = np.full(n, np.nan)
            assert _sigmoid(z, out=p_out) is p_out
            assert p_out.tobytes() == p.tobytes()

            work = (np.full(n, np.nan), np.full(n, np.nan))
            nll = _nll_at(z, beta, 1.0 - t, w, ridge, work)
            assert nll == _nll_at(z, beta, 1.0 - t, w, ridge) == _ref_nll(beta, X, t, w, ridge)

            g_out, resid = np.full_like(beta, np.nan), np.full(n, np.nan)
            assert _grad_at(p, beta, X, t, w, ridge, out=g_out, work=resid) is g_out
            assert g_out.tobytes() == _ref_grad(beta, X, t, w, ridge).tobytes()
    z = np.array([-np.inf, -1e300, -500.5, -500.0, -499.9, -1.0, -0.0, 0.0,
                  1e-300, 3.5, 499.9, 500.0, 500.5, 1e300, np.inf, np.nan])
    p_out = np.full_like(z, np.nan)
    assert _sigmoid(z, out=p_out).tobytes() == _ref_sigmoid(z).tobytes()
