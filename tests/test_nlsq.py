import numpy as np
import pytest

from photon_correlator import nlsq
from photon_correlator.errors import AnalysisError
from photon_correlator.nlsq import LeastSquaresResult, fit_curve, levenberg_marquardt


def test_linear_model_one_step():
    x = np.linspace(0, 10, 20)
    y = 3.0 * x + 2.0

    def residual(p):
        return p[0] * x + p[1] - y

    def jacobian(p):
        return np.column_stack([x, np.ones_like(x)])

    res = levenberg_marquardt(residual, jacobian, [0.0, 0.0])
    assert res.converged
    assert res.params == pytest.approx([3.0, 2.0], rel=1e-8)
    assert res.residual_rms < 1e-10


def test_exponential_recovery():
    t = np.linspace(0, 5, 50)
    true = np.array([2.5, 1.3])
    y = true[0] * np.exp(-true[1] * t)

    def residual(p):
        return p[0] * np.exp(-p[1] * t) - y

    def jacobian(p):
        e = np.exp(-p[1] * t)
        return np.column_stack([e, -p[0] * t * e])

    res = levenberg_marquardt(residual, jacobian, [1.0, 0.5])
    assert res.converged
    assert res.params == pytest.approx(true, rel=1e-7)


def test_exact_start_converges_immediately():
    t = np.linspace(0, 1, 10)
    y = 4.0 * t

    def residual(p):
        return p[0] * t - y

    res = levenberg_marquardt(residual, lambda p: t[:, None], [4.0])
    assert res.converged
    assert res.iterations == 1


def test_max_iter_reports_non_convergence(monkeypatch):
    t = np.linspace(0, 5, 50)
    y = 2.5 * np.exp(-1.3 * t)

    def residual(p):
        return p[0] * np.exp(-p[1] * t) - y

    def jacobian(p):
        e = np.exp(-p[1] * t)
        return np.column_stack([e, -p[0] * t * e])

    monkeypatch.setattr(nlsq, "MAX_ITER", 2)
    res = levenberg_marquardt(residual, jacobian, [100.0, 10.0])
    assert not res.converged
    assert res.iterations == 2
    assert np.all(np.isfinite(res.params))


def test_non_finite_start_rejected():
    with pytest.raises(AnalysisError, match="not finite"):
        levenberg_marquardt(lambda p: np.array([np.nan]), lambda p: np.eye(1), [1.0])


def test_start_cost_that_overflows_rejected():
    with pytest.raises(AnalysisError, match="residual is not finite"):
        levenberg_marquardt(lambda p: np.full(2, 1e200), lambda p: np.ones((2, 1)), [1.0])


def test_start_normal_equations_that_overflow_rejected():
    with pytest.raises(AnalysisError, match="normal equations are not finite"):
        levenberg_marquardt(lambda p: p - 2.0, lambda p: np.array([[1e200]]), [0.5])


def test_normal_equations_that_overflow_later_end_the_fit():
    def jacobian(p):
        return np.array([[1.0 if p[0] == 0.5 else 1e200]])

    res = levenberg_marquardt(lambda p: p - 2.0, jacobian, [0.5])
    assert not res.converged
    assert res.iterations == 2
    assert res.params[0] == pytest.approx(2.0, rel=1e-2)


def test_converges_with_parameters_beyond_1e154():
    # the squared norm of the step and of the parameters overflows here
    t = np.linspace(0, 1, 10)
    y = 4.0 * t

    def residual(p):
        return p[0] * 1e-160 * t - y

    res = levenberg_marquardt(residual, lambda p: 1e-160 * t[:, None], [1e160])
    assert res.converged
    assert res.params[0] == pytest.approx(4e160, rel=1e-8)


def test_backs_away_from_invalid_region():
    # residual explodes for p < 0; solver must still find p = 2
    y = 2.0

    def residual(p):
        if p[0] < 0:
            return np.array([np.inf])
        return np.array([p[0] - y])

    res = levenberg_marquardt(residual, lambda p: np.array([[1.0]]), [0.5])
    assert res.converged
    assert res.params[0] == pytest.approx(2.0, rel=1e-8)


def test_result_shape():
    res = levenberg_marquardt(lambda p: np.zeros(3), lambda p: np.zeros((3, 1)), [1.0])
    assert isinstance(res, LeastSquaresResult)
    assert res.cost == 0.0


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
    seen = []

    def solver(residual, jacobian, x0):
        seen.append((list(x0), jacobian(np.asarray(x0, dtype=float))))
        return levenberg_marquardt(residual, jacobian, x0)

    monkeypatch.setattr(nlsq, "levenberg_marquardt", solver)
    c = 0.1 + 0.2  # not a round number, so a trip through the solver would show
    res = fit_curve(decay, decay_jacobian, X, decay(X, 3.0, 2.0, c),
                    {"w": 1.5, "c": c, "a": 1.0}, fixed=("c",))
    (x0, J0), = seen
    assert x0 == [1.5, 1.0]  # the free parameters, in the start's order
    # their columns, in that order, laid out in C order
    assert J0.flags.c_contiguous
    np.testing.assert_array_equal(J0, decay_jacobian(X, 1.0, 1.5, c)[:, [1, 0]])
    assert res.converged
    assert res.params["c"] == c
    assert res.params["a"] == pytest.approx(3.0, rel=1e-8)


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
