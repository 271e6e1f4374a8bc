import numpy as np
import pytest

from photon_correlator import nlsq
from photon_correlator.errors import AnalysisError
from photon_correlator.nlsq import Fit, fit_curve

T = np.linspace(0, 1, 10)
ONE = np.zeros(1)  # the abscissa of a one-residual fit


def test_linear_model_one_step():
    x = np.linspace(0, 10, 20)
    res = fit_curve(lambda x, a, b: a * x + b,
                    lambda x, a, b: np.column_stack([x, np.ones_like(x)]),
                    x, 3.0 * x + 2.0, {"a": 0.0, "b": 0.0})
    assert res.converged
    assert res.params == pytest.approx({"a": 3.0, "b": 2.0}, rel=1e-8)
    assert res.residual_rms < 1e-10


def exponential(t, a, k):
    return a * np.exp(-k * t)


def exponential_jacobian(t, a, k):
    e = np.exp(-k * t)
    return np.column_stack([e, -a * t * e])


def test_exponential_recovery():
    t = np.linspace(0, 5, 50)
    res = fit_curve(exponential, exponential_jacobian, t, exponential(t, 2.5, 1.3),
                    {"a": 1.0, "k": 0.5})
    assert res.converged
    assert res.params == pytest.approx({"a": 2.5, "k": 1.3}, rel=1e-7)


def test_exact_start_converges_immediately():
    res = fit_curve(lambda t, a: a * t, lambda t, a: t[:, None], T, 4.0 * T, {"a": 4.0})
    assert res.converged
    assert res.iterations == 1


def test_max_iter_reports_non_convergence(monkeypatch):
    t = np.linspace(0, 5, 50)
    monkeypatch.setattr(nlsq, "MAX_ITER", 2)
    res = fit_curve(exponential, exponential_jacobian, t, exponential(t, 2.5, 1.3),
                    {"a": 100.0, "k": 10.0})
    assert not res.converged
    assert res.iterations == 2
    assert all(np.isfinite(list(res.params.values())))


def test_non_finite_start_rejected():
    with pytest.raises(AnalysisError, match="not finite"):
        fit_curve(lambda x, a: np.full(x.size, np.nan), lambda x, a: np.eye(1),
                  ONE, ONE, {"a": 1.0})


def test_start_cost_that_overflows_rejected():
    with pytest.raises(AnalysisError, match="residual is not finite"):
        fit_curve(lambda x, a: np.full(x.size, 1e200), lambda x, a: np.ones((x.size, 1)),
                  np.zeros(2), np.zeros(2), {"a": 1.0})


def test_start_normal_equations_that_overflow_rejected():
    with pytest.raises(AnalysisError, match="normal equations are not finite"):
        fit_curve(lambda x, a: x + a, lambda x, a: np.array([[1e200]]),
                  ONE, np.full(1, 2.0), {"a": 0.5})


def test_normal_equations_that_overflow_later_end_the_fit():
    def jacobian(x, a):
        return np.array([[1.0 if a == 0.5 else 1e200]])

    res = fit_curve(lambda x, a: x + a, jacobian, ONE, np.full(1, 2.0), {"a": 0.5})
    assert not res.converged
    assert res.iterations == 2
    assert res.params["a"] == pytest.approx(2.0, rel=1e-2)


def test_converges_with_parameters_beyond_1e154():
    # the squared norm of the step and of the parameters overflows here
    res = fit_curve(lambda t, a: a * 1e-160 * t, lambda t, a: 1e-160 * t[:, None],
                    T, 4.0 * T, {"a": 1e160})
    assert res.converged
    assert res.params["a"] == pytest.approx(4e160, rel=1e-8)


def test_backs_away_from_invalid_region():
    # the model is inf for a < 0; the fit must still find a = 2
    def model(x, a):
        return np.full(x.size, np.inf if a < 0 else a)

    res = fit_curve(model, lambda x, a: np.ones((x.size, 1)), ONE, np.full(1, 2.0),
                    {"a": 0.5})
    assert res.converged
    assert res.params["a"] == pytest.approx(2.0, rel=1e-8)


def test_result_shape():
    res = fit_curve(lambda t, a: a * t, lambda t, a: t[:, None], T, 1.0 * T, {"a": 1.0})
    assert isinstance(res, Fit)
    assert res.residual_rms == 0.0


# fit_curve: a model y = a * exp(-x / w) + c, its columns in signature order
X = np.linspace(0.0, 10.0, 40)


def decay(x, a, w, c):
    return a * np.exp(-x / w) + c


def decay_jacobian(x, a, w, c):
    e = np.exp(-x / w)
    return np.column_stack([e, a * x * e / w**2, np.ones_like(x)])


def test_fit_curve_recovers_every_parameter():
    res = fit_curve(decay, decay_jacobian, X, decay(X, 3.0, 2.0, 0.5),
                    {"a": 1.0, "w": 1.0, "c": 0.0})
    assert res.converged
    assert res.params == pytest.approx({"a": 3.0, "w": 2.0, "c": 0.5}, rel=1e-8)
    assert all(type(value) is float for value in res.params.values())


def test_fixed_parameter_never_reaches_the_solver(monkeypatch):
    solves = []

    def solve(a, b):
        solves.append((a, b))
        return np_solve(a, b)

    np_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", solve)
    c = 0.1 + 0.2  # not a round number, so a trip through the solver would show
    y = decay(X, 3.0, 2.0, c)
    res = fit_curve(decay, decay_jacobian, X, y, {"w": 1.5, "c": c, "a": 1.0},
                    fixed=("c",))
    # the first step solves the damped normal equations of the free columns,
    # in the start's order (w, a), laid out in C order: the rounding of J^T r
    # follows the layout, and the F-ordered slice rounds differently here
    J0 = np.ascontiguousarray(decay_jacobian(X, 1.0, 1.5, c)[:, [1, 0]])
    H0 = J0.T @ J0
    a0, b0 = solves[0]
    np.testing.assert_array_equal(b0, -(J0.T @ (decay(X, 1.0, 1.5, c) - y)))
    np.testing.assert_array_equal(a0, H0 + nlsq.LAM0 * np.diag(np.diag(H0)))
    assert res.converged
    assert res.params["c"] == c
    assert res.params["a"] == pytest.approx(3.0, rel=1e-8)


def test_a_singular_solve_grows_the_damping_and_the_fit_goes_on(monkeypatch):
    solves = []

    def solve(a, b):
        solves.append(a)
        if len(solves) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        return np_solve(a, b)

    np_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", solve)
    t = np.linspace(0, 5, 50)
    res = fit_curve(exponential, exponential_jacobian, t, exponential(t, 2.5, 1.3),
                    {"a": 1.0, "k": 0.5})
    # the retry solves the same normal equations, damped LAM_FACTOR times more
    J = exponential_jacobian(t, 1.0, 0.5)
    d = np.diag(np.diag(J.T @ J))
    np.testing.assert_allclose(solves[1] - solves[0],
                               nlsq.LAM0 * (nlsq.LAM_FACTOR - 1) * d, rtol=1e-12)
    assert res.converged
    assert res.params == pytest.approx({"a": 2.5, "k": 1.3}, rel=1e-7)


def test_width_step_onto_zero_is_rejected():
    # from w = 1 the first step is exactly -1: -(1 + 1e-3) / (1 + 1e-3 * 1)
    seen = []

    def model(x, w):
        seen.append(w)
        return w * x

    fit_curve(model, lambda x, w: x[:, None], np.ones(1), np.array([-1e-3]),
              {"w": 1.0}, positive=("w",))
    assert len(seen) > 1 and 0.0 not in seen


def test_positive_parameter_step_to_zero_or_below_is_rejected():
    # the least-squares a is -1, which a positive a may not reach
    calls = []

    def model(x, a, w, c):
        calls.append(a)
        return decay(x, a, w, c)

    res = fit_curve(model, decay_jacobian, X, decay(X, -1.0, 2.0, 0.0),
                    {"a": 1.0, "w": 2.0, "c": 0.0}, fixed=("w", "c"),
                    positive=("a",))
    assert len(calls) > 1 and min(calls) > 0
    assert 0 < res.params["a"] < 1.0


def test_all_zero_free_column_is_not_converged():
    # c shifts nothing, so its column is 0: the solver converges, the fit does not
    def model(x, a, w, c):
        return decay(x, a, w, 0.0)

    def jacobian(x, a, w, c):
        J = decay_jacobian(x, a, w, c)
        J[:, 2] = 0.0
        return J

    start = {"a": 1.0, "w": 1.0, "c": 0.0}
    res = fit_curve(model, jacobian, X, decay(X, 3.0, 2.0, 0.0), start)
    assert not res.converged
    assert res.params["a"] == pytest.approx(3.0, rel=1e-8)
    held = fit_curve(model, jacobian, X, decay(X, 3.0, 2.0, 0.0), start, fixed=("c",))
    assert held.converged


def test_non_finite_parameter_is_not_converged():
    # c is held at inf where the model ignores it: the solver converges on a
    # and w, but a record of c could not be written
    def model(x, a, w, c):
        return decay(x, a, w, 0.0)

    res = fit_curve(model, decay_jacobian, X, decay(X, 3.0, 2.0, 0.0),
                    {"a": 1.0, "w": 1.0, "c": np.inf}, fixed=("c",))
    assert res.params["a"] == pytest.approx(3.0, rel=1e-8)
    assert not res.converged
