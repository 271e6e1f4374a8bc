"""Damped least-squares (Levenberg-Marquardt) minimizer for the fitting routines.

Small and deliberately boring: normal equations with Marquardt diagonal
scaling, multiplicative damping adaptation, and a MINPACK-style relative
step criterion.  Fits in this package have <= 5 parameters, so solving
the scaled normal equations directly is both fast and accurate enough.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError

STEP_TOL = 1e-8  # relative step size that counts as converged
LAM0 = 1e-3  # initial damping
LAM_FACTOR = 10.0  # damping grows by this on a rejected step, shrinks on success
LAM_MAX = 1e14  # damping above this without an accepted step ends the fit
MAX_ITER = 200  # iterations after which a fit ends unconverged


@dataclass
class LeastSquaresResult:
    params: np.ndarray
    converged: bool
    iterations: int
    residual_rms: float
    cost: float


def levenberg_marquardt(residual, jacobian, x0):
    """Minimize sum(residual(x)**2).

    `residual(x)` returns the residual vector, `jacobian(x)` its Jacobian
    (n_residuals x n_params).  Convergence is declared when the accepted
    step satisfies ||dx|| <= STEP_TOL * (STEP_TOL + ||x||), or when the
    cost falls 24 orders of magnitude below its initial value (an exact
    fit; a parameter with no residual left to constrain it, e.g. a
    Gaussian width collapsing onto a single hot bin, may otherwise drift
    forever).  Hitting `MAX_ITER`, or damping escalating past `LAM_MAX`
    without improvement, returns converged=False with the best parameters
    found.  Non-finite trial costs are treated as rejected steps, so the
    solver backs away from invalid parameter regions on its own.  Normal
    equations (J^T J, J^T r) that are not finite also end the fit with
    converged=False; at `x0`, where there is no result yet, they or a
    non-finite cost raise AnalysisError.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    with np.errstate(over="ignore"):
        cost = float(r @ r)
    if not np.isfinite(cost):
        raise AnalysisError("fit residual is not finite at the initial parameters")
    cost_floor = 1e-24 * cost
    lam = LAM0
    n_iter = 0
    converged = False
    for n_iter in range(1, MAX_ITER + 1):
        J = np.asarray(jacobian(x), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            g = J.T @ r
            H = J.T @ J
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            if n_iter == 1:
                raise AnalysisError(
                    "fit normal equations are not finite at the initial parameters")
            break
        d = np.diag(H).copy()
        d[d <= 0] = 1.0
        accepted = False
        while lam <= LAM_MAX:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                try:
                    step = np.linalg.solve(H + lam * np.diag(d), -g)
                except np.linalg.LinAlgError:
                    lam *= LAM_FACTOR
                    continue
                x_new = x + step
                r_new = np.asarray(residual(x_new), dtype=float)
                cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                break
            lam *= LAM_FACTOR
        if not accepted:
            break
        lam = max(lam / LAM_FACTOR, 1e-12)
        # hypot, unlike sqrt(x @ x), cannot overflow for components above 1e154
        small = math.hypot(*step) <= STEP_TOL * (STEP_TOL + math.hypot(*x_new))
        x, r, cost = x_new, r_new, cost_new
        if small or cost <= cost_floor:
            converged = True
            break
    rms = float(np.sqrt(cost / max(r.size, 1)))
    return LeastSquaresResult(x, converged, n_iter, rms, cost)

