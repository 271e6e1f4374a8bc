"""The one fit engine, `fit_curve`: the lifetime, IRF and DE fits are each
a model, its Jacobian and a start, fitted by a damped least-squares
(Levenberg-Marquardt) loop over the free parameters into a `Fit`.

Small and deliberately boring: normal equations with Marquardt diagonal
scaling, multiplicative damping adaptation, and a MINPACK-style relative
step criterion.  Fits in this package have <= 5 parameters, so solving
the scaled normal equations directly is both fast and accurate enough.
"""

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError

STEP_TOL = 1e-8  # relative step size that counts as converged
LAM0 = 1e-3  # initial damping
LAM_FACTOR = 10.0  # damping grows by this on a rejected step, shrinks on success
LAM_MAX = 1e14  # damping above this without an accepted step ends the fit
MAX_ITER = 200  # iterations after which a fit ends unconverged


@dataclass(frozen=True)
class Fit:
    """A fit's result: `params` maps each name to a float, in record order."""

    params: dict
    residual_rms: float
    converged: bool
    iterations: int

    def record(self):
        return {**self.params, "residual_rms": self.residual_rms,
                "converged": self.converged, "iterations": self.iterations}


def fit_curve(model, jacobian, x, y, start, fixed=(), positive=()):
    """Fit `model(x, **params)` to the float array `y` by Levenberg-Marquardt.

    `jacobian(x, **params)` has a column per parameter of `model` after `x`,
    in signature order.  `start` maps each parameter to its start; the
    solver takes those not `fixed`, in `start`'s order, and a free `positive`
    one (a lifetime or a width) costs inf at <= 0.

    The solver converges when the accepted step dp satisfies
    ||dp|| <= STEP_TOL * (STEP_TOL + ||p||), or when the cost falls 24
    orders of magnitude below its start (an exact fit; a parameter with no
    residual left to constrain it, e.g. a Gaussian width collapsing onto a
    single hot bin, may otherwise drift forever).  Hitting `MAX_ITER`, or
    damping escalating past `LAM_MAX` without improvement, stops it
    unconverged at the best parameters found.  Non-finite trial costs are
    rejected steps, so it backs away from invalid parameter regions on its
    own.  Normal equations (J^T J, J^T r) that are not finite also stop it
    unconverged; at the start, where there is no result yet, they or a
    non-finite cost raise AnalysisError.

    The `Fit`'s params map each name to a float, in `start`'s order.  It is
    converged only if the solver converged, every parameter is finite and the
    data see each one: every free Jacobian column at the solution squares to > 0.
    """
    names = list(inspect.signature(model).parameters)[1:]
    free = [name for name in start if name not in fixed]
    cols = [names.index(name) for name in free]
    positives = [i for i, name in enumerate(free) if name in positive]

    def unpack(p):
        return {**start, **dict(zip(free, p))}

    def residual(p):
        if any(p[i] <= 0 for i in positives):
            return np.full(y.size, np.inf)
        return model(x, **unpack(p)) - y

    def free_jacobian(p):
        # C order, as the rounding of J^T J follows the layout
        return np.ascontiguousarray(jacobian(x, **unpack(p))[:, cols])

    p = np.array([start[name] for name in free], dtype=float)
    r = np.asarray(residual(p), dtype=float)
    with np.errstate(over="ignore"):
        cost = float(r @ r)
    if not np.isfinite(cost):
        raise AnalysisError("fit residual is not finite at the initial parameters")
    cost_floor = 1e-24 * cost
    lam, n_iter, converged = LAM0, 0, False
    for n_iter in range(1, MAX_ITER + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # a column may overflow
            J = np.asarray(free_jacobian(p), dtype=float)
            g = J.T @ r
            H = J.T @ J
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            if n_iter == 1:
                raise AnalysisError(
                    "fit normal equations are not finite at the initial parameters")
            break
        d = np.where(np.diag(H) > 0, np.diag(H), 1.0)
        while lam <= LAM_MAX:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                try:
                    step = np.linalg.solve(H + lam * np.diag(d), -g)
                except np.linalg.LinAlgError:
                    lam *= LAM_FACTOR
                    continue
                p_new = p + step
                r_new = np.asarray(residual(p_new), dtype=float)
                cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                break
            lam *= LAM_FACTOR
        else:  # no step was accepted
            break
        lam = max(lam / LAM_FACTOR, 1e-12)
        # hypot, unlike sqrt(p @ p), cannot overflow for components above 1e154
        small = math.hypot(*step) <= STEP_TOL * (STEP_TOL + math.hypot(*p_new))
        p, r, cost = p_new, r_new, cost_new
        if small or cost <= cost_floor:
            converged = True
            break
    with np.errstate(over="ignore", invalid="ignore"):
        seen = np.all(np.sum(free_jacobian(p) ** 2, axis=0) > 0)
    params = {name: float(value) for name, value in unpack(p).items()}
    finite = all(map(math.isfinite, params.values()))
    rms = float(np.sqrt(cost / max(r.size, 1)))
    return Fit(params, rms, bool(converged and finite and seen), n_iter)
