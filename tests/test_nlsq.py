import numpy as np
import pytest

from photon_correlator import nlsq
from photon_correlator.errors import AnalysisError
from photon_correlator.nlsq import LeastSquaresResult, levenberg_marquardt


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
