"""Damped least-squares (Levenberg-Marquardt) minimizer for the fitting routines.

Small and deliberately boring: normal equations with Marquardt diagonal
scaling, multiplicative damping adaptation, and a MINPACK-style relative
step criterion.  Fits in this package have <= 5 parameters, so solving
the scaled normal equations directly is both fast and accurate enough.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class LeastSquaresResult:
    params: np.ndarray
    converged: bool
    iterations: int
    residual_rms: float
    cost: float


def levenberg_marquardt(residual, jacobian, x0, max_iter=200, step_tol=1e-8,
                        lam0=1e-3, lam_factor=10.0, lam_max=1e14):
    """Minimize sum(residual(x)**2).

    `residual(x)` returns the residual vector, `jacobian(x)` its Jacobian
    (n_residuals x n_params).  Convergence is declared when the accepted
    step satisfies ||dx|| <= step_tol * (step_tol + ||x||), or when the
    cost falls 24 orders of magnitude below its initial value (an exact
    fit; a parameter with no residual left to constrain it, e.g. a
    Gaussian width collapsing onto a single hot bin, may otherwise drift
    forever).  Hitting `max_iter`, or damping escalating past `lam_max`
    without improvement, returns converged=False with the best parameters
    found.  Non-finite trial costs are treated as rejected steps, so the
    solver backs away from invalid parameter regions on its own.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise ValueError("residual is not finite at the initial parameters")
    cost_floor = 1e-24 * cost
    lam = lam0
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        J = np.asarray(jacobian(x), dtype=float)
        g = J.T @ r
        H = J.T @ J
        d = np.diag(H).copy()
        d[d <= 0] = 1.0
        accepted = False
        while lam <= lam_max:
            A = H + lam * np.diag(d)
            try:
                step = np.linalg.solve(A, -g)
            except np.linalg.LinAlgError:
                lam *= lam_factor
                continue
            x_new = x + step
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                r_new = np.asarray(residual(x_new), dtype=float)
                cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                break
            lam *= lam_factor
        if not accepted:
            break
        lam = max(lam / lam_factor, 1e-12)
        small = np.linalg.norm(step) <= step_tol * (step_tol + np.linalg.norm(x_new))
        x, r, cost = x_new, r_new, cost_new
        if small or cost <= cost_floor:
            converged = True
            break
    rms = float(np.sqrt(cost / max(r.size, 1)))
    return LeastSquaresResult(x, converged, n_iter, rms, cost)

