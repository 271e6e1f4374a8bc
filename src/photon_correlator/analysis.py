"""Physics extraction from delay histograms.

Covers the three measurements the simulated instrument exists for:

* second-order correlation at zero delay from peak-area ratios, with a
  Poisson-propagated uncertainty,
* spontaneous-emission lifetime by fitting an exponential decay convolved
  with a Gaussian instrument response,
* detection-efficiency / dark-rate calibration from a Poissonian
  attenuation sweep via R(mu) = D + f*(1 - exp(-eta*mu)).

All fits are unweighted least squares, each a model, its Jacobian and a
start for the one fit engine, `nlsq.fit_curve`'s Levenberg-Marquardt loop.
"""

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .detectors import FWHM_PER_SIGMA, sigma_to_fwhm
from .errors import AnalysisError
from .nlsq import fit_curve
from .timetags import read_csv_rows, write_csv_rows

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class G2Estimate:
    g2_zero: float
    sigma: float
    center_area: int
    side_areas: tuple
    n_side_peaks: int

    def record(self):
        return {
            "g2_zero": self.g2_zero,
            "g2_sigma": self.sigma,
            "center_area": self.center_area,
            "side_area_mean": float(np.mean(self.side_areas)),
            "n_side_peaks": self.n_side_peaks,
        }


@dataclass(frozen=True)
class DECalibrationPoint:
    mu: float
    rate_hz: float

    def __post_init__(self):
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not 0 <= self.rate_hz < math.inf:
            raise ValueError(f"rate_hz must be finite and >= 0, got {self.rate_hz}")


# ---------------------------------------------------------------------------
# g2(0) from peak areas


def side_peak_windows(config, rep_period_ps, integration_halfwidth_ps, n_side_peaks):
    """Resolve the integration half-width and place the side-peak windows.

    The default half-width is half a period less one bin, so adjacent
    windows never overlap.  Side windows are centered at +/- k *
    rep_period_ps, nearest first (negative before positive at each |k|),
    keeping the first `n_side_peaks` that fit inside the histogram range
    of `config`.  Returns (halfwidth, centers).
    """
    halfwidth = integration_halfwidth_ps
    if halfwidth is None:
        halfwidth = rep_period_ps / 2.0 - config.bin_width_ps
    if not 0 < halfwidth < rep_period_ps / 2.0:
        raise AnalysisError(
            f"integration_halfwidth_ps must be in (0, rep_period/2), got {halfwidth}"
        )
    try:
        n_side_peaks = operator.index(n_side_peaks)
    except TypeError:
        raise AnalysisError(f"n_side_peaks {n_side_peaks!r} is not an integer") from None
    if n_side_peaks < 2:
        raise AnalysisError("n_side_peaks must be >= 2")

    def fits(center):
        return (center - halfwidth >= config.range_min_ps
                and center + halfwidth <= config.range_max_ps)

    if not fits(0.0):
        raise AnalysisError("zero-delay window falls outside the histogram range")
    centers = []
    k = 1
    while len(centers) < n_side_peaks:
        found = [c for c in (-k * rep_period_ps, k * rep_period_ps) if fits(c)]
        if not found:
            # window positions move monotonically outward, so nothing
            # further out can fit either
            raise AnalysisError(
                f"histogram range [{config.range_min_ps}, {config.range_max_ps}) "
                f"holds only {len(centers)} side-peak windows, but "
                f"{n_side_peaks} side peaks were requested"
            )
        centers.extend(found)
        k += 1
    return halfwidth, centers[:n_side_peaks]


def g2_zero(hist, rep_period_ps, integration_halfwidth_ps=None, n_side_peaks=20):
    """Zero-delay peak area over the mean surrounding peak area.

    Windows are placed by `side_peak_windows`.  Uncertainty is pure
    Poisson counting propagation, g * sqrt(1/A0 + 1/sum(As)); a zero
    center area returns g2=0 with the one-count upper bound 1/mean(As)
    as sigma.
    """
    halfwidth, side_centers = side_peak_windows(
        hist.config, rep_period_ps, integration_halfwidth_ps, n_side_peaks)
    centers = hist.bin_centers()

    def window_area(peak_center):
        return int(hist.counts[np.abs(centers - peak_center) <= halfwidth].sum())

    center_area = window_area(0.0)
    side_areas = [window_area(c) for c in side_centers]
    total_side = sum(side_areas)
    if total_side == 0:
        raise AnalysisError("all side-peak windows are empty; cannot normalize")
    mean_side = total_side / len(side_areas)
    if center_area == 0:
        return G2Estimate(0.0, 1.0 / mean_side, 0, tuple(side_areas), n_side_peaks)
    g = center_area / mean_side
    sigma = g * math.sqrt(1.0 / center_area + 1.0 / total_side)
    return G2Estimate(g, sigma, center_area, tuple(side_areas), n_side_peaks)


# ---------------------------------------------------------------------------
# peak width


def _edge_baseline(y):
    """Median of the outermost 10% of samples (at least one) on each side."""
    n_edge = max(1, int(round(0.1 * y.size)))
    return float(np.median(np.concatenate([y[:n_edge], y[-n_edge:]])))


def peak_fwhm(hist, center_ps, search_halfwidth_ps):
    """FWHM of the peak nearest `center_ps`, by linear interpolation at
    half maximum after subtracting a baseline taken as the median of the
    outermost 20% of bins in the search window.

    A single hot bin among empty neighbours interpolates to exactly one
    bin width.  Raises if the maximum sits on the window edge or if the
    half level is not crossed on both sides.
    """
    centers = hist.bin_centers()
    mask = np.abs(centers - center_ps) <= search_halfwidth_ps
    if mask.sum() < 5:
        raise AnalysisError("search window smaller than 5 bins")
    x = centers[mask]
    y = hist.counts[mask].astype(float)
    y = y - _edge_baseline(y)

    i_max = int(np.argmax(y))
    if i_max == 0 or i_max == x.size - 1:
        raise AnalysisError("peak maximum is on the search-window edge")
    y_max = y[i_max]
    if y_max <= 0:
        raise AnalysisError("no peak above baseline in the search window")
    half = y_max / 2.0

    def cross(direction):
        i = i_max
        while 0 <= i + direction < x.size:
            j = i + direction
            if y[j] <= half:
                # interpolate between j (below) and i (above)
                return x[i] + (x[j] - x[i]) * (y[i] - half) / (y[i] - y[j])
            i = j
        raise AnalysisError(
            "half maximum not crossed on the "
            + ("left" if direction < 0 else "right")
            + " side of the peak"
        )

    return float(cross(+1) - cross(-1))


# ---------------------------------------------------------------------------
# exponential decay convolved with a Gaussian IRF


# Chebyshev coefficients of P(x) = log(erfcx(z) / t) in x = 2t - 1, with
# t = 2 / (2 + z): 80 Chebyshev-Gauss nodes of P evaluated by mpmath at 40
# significant digits, rounded to double and truncated after 28 terms
# (the first one dropped is 5e-20).  The leading one is rounded up by one
# ulp, so that the sum at z = 0 rounds to erfcx(0) = 1 exactly.
_ERFCX_CHEB = (
    -1.3026537197817092,
    0.6419697923564902,
    0.019476473204185836,
    -0.009561514786808632,
    -0.0009465953444820369,
    0.00036683949785276145,
    4.252332480690777e-05,
    -2.0278578112534242e-05,
    -1.6242900046470256e-06,
    1.3036558355805232e-06,
    1.5626441722066142e-08,
    -8.523809591492654e-08,
    6.5290544390988515e-09,
    5.059343495551469e-09,
    -9.91364156493033e-10,
    -2.273651222931836e-10,
    9.646791102015527e-11,
    2.3940380830391146e-12,
    -6.886027526497553e-12,
    8.944879273090725e-13,
    3.130921399342958e-13,
    -1.1270822361367252e-13,
    3.810905255189232e-16,
    7.106097613609237e-15,
    -1.5230282014571043e-15,
    -9.457494571291233e-17,
    1.210237189224279e-16,
    -2.816663087747177e-17,
)


def _erfcx(z):
    """Scaled complementary error function exp(z^2) * erfc(z) for z >= 0.

    erfcx(z) = t * exp(P(t)), t = 2 / (2 + z), with P summed by Clenshaw's
    recurrence in 4t - 2 (the erfccheb form of Press et al., Numerical
    Recipes, 3rd ed., sec. 6.2.2).  z^2 is never formed, so nothing can
    overflow; erfcx(inf) = 0 and NaN passes through.
    """
    t = 2.0 / (2.0 + z)
    y = 4.0 * t - 2.0
    d = dd = 0.0
    for c in _ERFCX_CHEB[:0:-1]:
        d, dd = y * d - dd + c, d
    return t * np.exp(0.5 * (_ERFCX_CHEB[0] + y * d) - dd)


def _erfc_negative(z):
    """erfc(z) = 2 - exp(-z^2) * erfcx(-z) for z <= 0; erfc(-30) is 2 in
    double precision, so z is held there to keep z^2 finite."""
    z = np.maximum(z, -30.0)
    return 2.0 - np.exp(-z * z) * _erfcx(-z)


def _unit_decay(u, tau_ps, sigma_ps):
    """Unit-amplitude decay at offsets u = t - t0 for sigma_ps > 0.

    Returns (S, a, z, g, g * w) with a = sigma/tau, w = u/sigma, the erfc
    argument z = (a - w)/sqrt(2) and the Gaussian factor g = exp(-w^2/2),
    all finite for every finite sigma > 0.  u/sigma overflows only for
    sigma below |u|/1.8e308, where g is 0 and erfc(z) is 0 or 2, so holding
    w within +/-1e300 changes no value and keeps z finite.  g is evaluated
    at |w| <= 40, beyond which it is 0 in double precision anyway.
    """
    with np.errstate(over="ignore"):
        w = np.clip(u / sigma_ps, -1e300, 1e300)
    a = sigma_ps / tau_ps
    z = (a - w) / _SQRT2
    w = np.clip(w, -40.0, 40.0)
    g = np.exp(-0.5 * w * w)
    S = np.empty_like(u)
    pos = z >= 0
    S[pos] = 0.5 * _erfcx(z[pos]) * g[pos]
    neg = ~pos
    if neg.any():  # then u/tau > a^2, so a^2 is finite
        S[neg] = 0.5 * np.exp(0.5 * a * a - u[neg] / tau_ps) * _erfc_negative(z[neg])
    return S, a, z, g, g * w


def decay_model(t_ps, tau_ps, sigma_ps, amplitude, t0_ps, background):
    """Expected counts for an exponential decay convolved with a Gaussian IRF.

    m(t) = B + (A/2) * exp(s^2/(2 tau^2) - u/tau) * erfc((s/tau - u/s)/sqrt(2)),
    u = t - t0.  Evaluated in a scaled-complementary form,
    (A/2) * erfcx(z) * exp(-(u/s)^2/2) for z >= 0, so the exp(s^2/(2 tau^2))
    factor can never overflow, and finite for every finite sigma >= 0.
    erfcx is computed in numpy (`_erfcx`) as t * exp(P(t)), t = 2/(2+z),
    with P a 28-term Chebyshev series (the erfccheb form of Numerical
    Recipes, 3rd ed., sec. 6.2.2) whose coefficients were computed offline
    with mpmath at 40 digits; erfc(z) for z < 0 is 2 - exp(-z^2) * erfcx(-z).
    As sigma -> 0 this reduces to a one-sided exponential; at exactly u = 0
    with sigma = 0 the erfc(0) = 1 convention gives B + A/2.
    """
    if tau_ps <= 0:
        raise ValueError("tau_ps must be > 0")
    if sigma_ps < 0:
        raise ValueError("sigma_ps must be >= 0")
    t = np.asarray(t_ps, dtype=float)
    scalar = t.ndim == 0
    u = np.atleast_1d(t) - t0_ps
    if sigma_ps == 0:
        signal = np.where(u > 0, np.exp(-np.clip(u, 0, None) / tau_ps), 0.0)
        signal = np.where(u == 0, 0.5, signal) * amplitude
    else:
        signal = _unit_decay(u, tau_ps, sigma_ps)[0] * amplitude
    out = background + signal
    return float(out[0]) if scalar else out


# above this z, `decay_model_jacobian` takes 1/sqrt(pi) - z erfcx(z) from
# its series, as the difference cancels to ~1e-16 z^2 relative
_SERIES_Z = 30.0


def _erfcx_gap(z):
    """1/sqrt(pi) - z * erfcx(z) for z >= `_SERIES_Z`, from the asymptotic
    series of erfc (Abramowitz and Stegun 7.1.23): x/sqrt(pi) * (1 - 3x +
    15x^2 - 105x^3 + ...), x = 1/(2 z^2).  At z = 30 the ninth term is below
    1e-18 of the sum."""
    x = 0.5 / z / z  # z * z can overflow
    total, term = 0.0, 1.0
    for k in range(1, 9):
        total += term
        term *= -(2 * k + 1) * x
    return x * total / _SQRT_PI


def decay_model_jacobian(t_ps, tau_ps, sigma_ps, amplitude, t0_ps, background):
    """Analytic partial derivatives of `decay_model`.

    Returns an (n, 5) array with columns in signature order
    (tau_ps, sigma_ps, amplitude, t0_ps, background).  With S the
    unit-amplitude signal and K = exp(-(u/s)^2/2)/sqrt(pi),
    dS/dtheta = S * dp/dtheta - K * dz/dtheta for p the exponent and z the
    erfc argument, rearranged so that no factor overflows and 0 * inf
    cannot occur: the columns are finite for every finite sigma >= 0 not subnormal.
    For sigma_ps = 0 the sigma column is zero (the one-sided limit is not
    differentiable in sigma) and the rest differentiate the one-sided
    exponential, 1/2 at its jump u = 0.  There the t0 column is the slope
    before the jump, 0: the mean slope stalls `fit_lifetime` at its guess.
    """
    t = np.atleast_1d(np.asarray(t_ps, dtype=float))
    u = t - t0_ps
    J = np.zeros((t.size, 5))
    J[:, 4] = 1.0
    if sigma_ps == 0:
        decay = decay_model(t, tau_ps, 0.0, 1.0, t0_ps, 0.0)  # 1/2 at u = 0
        S = amplitude * decay
        J[:, 0] = S * u / tau_ps**2
        J[:, 2] = decay
        J[:, 3] = np.where(u > 0, S / tau_ps, 0.0)
        return J
    S, a, z, g, gw = _unit_decay(u, tau_ps, sigma_ps)
    K = g / _SQRT_PI
    # dp/dtau = -sqrt(2) a z / tau and dz/dtau = -a / (sqrt(2) tau)
    J[:, 0] = (a / tau_ps) * ((K - 2.0 * z * S) / _SQRT2) * amplitude
    J[:, 1] = ((a * S - K / _SQRT2) / tau_ps
               - gw / (_SQRT2 * _SQRT_PI * sigma_ps)) * amplitude
    J[:, 2] = S
    J[:, 3] = (S / tau_ps - K / (_SQRT2 * sigma_ps)) * amplitude
    # past _SERIES_Z the tau, sigma and t0 columns above are differences
    # that cancel to rounding noise.  There they follow from D = 1/sqrt(pi) -
    # z erfcx(z) and w = u/sigma: the t0 column is T = g (w/(sqrt(pi) a) - D)
    # / (2 tau z), the tau column a g D / (sqrt(2) tau) and the sigma column
    # w T - g D / (sqrt(2) tau).  g > 0 bounds |w| by 39, so then a > 3
    far = (z > _SERIES_Z) & (g > 0)
    if far.any():
        z, g, w = z[far], g[far], u[far] / sigma_ps
        D = _erfcx_gap(z)
        T = g * (w / (_SQRT_PI * a) - D) / z / (2.0 * tau_ps)
        J[far, 0] = a * g * D / (_SQRT2 * tau_ps) * amplitude
        J[far, 1] = (w * T - g * D / (_SQRT2 * tau_ps)) * amplitude
        J[far, 3] = T * amplitude
    return J


def _decay_initial_guess(x, y, bin_width, fix_sigma_ps):
    """Spec'd initialization: peak bin, max count, early-bin median
    background, 1/e crossing for tau, bin width (or the fixed value) for
    sigma, in the order the solver takes them."""
    i_peak = int(np.argmax(y))
    amplitude = float(y[i_peak])
    n_early = max(1, int(round(0.1 * y.size)))
    background = float(np.median(y[:n_early]))
    below = np.nonzero(y[i_peak + 1:] <= amplitude / math.e)[0]
    tau = x[i_peak + 1 + below[0]] - x[i_peak] if below.size else 0.0
    if tau <= 0:
        tau = max((x[-1] - x[i_peak]) / 3.0, bin_width)
    sigma = fix_sigma_ps if fix_sigma_ps is not None else float(bin_width)
    return {"amplitude": amplitude, "t0_ps": float(x[i_peak]), "tau_ps": float(tau),
            "background": background, "sigma_ps": float(sigma)}


def fit_lifetime_xy(x, y, bin_width_ps, fix_sigma=None):
    """Fit `decay_model` to (x, y) samples; see `fit_lifetime`."""
    if fix_sigma is not None and not 0 <= sigma_to_fwhm(fix_sigma) < math.inf:
        raise AnalysisError(f"fix_sigma must be >= 0 with a finite FWHM, got {fix_sigma}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 5:
        raise AnalysisError("too few bins to fit a decay")
    if np.all(y == y[0]):
        raise AnalysisError("degenerate histogram: all bins equal")
    if np.count_nonzero(y) < 20:
        raise AnalysisError("need at least 20 nonzero bins to fit a decay")
    fit = fit_curve(decay_model, decay_model_jacobian, x, y,
                    _decay_initial_guess(x, y, bin_width_ps, fix_sigma),
                    fixed=() if fix_sigma is None else ("sigma_ps",),
                    positive=("tau_ps", "sigma_ps"))
    p = fit.params
    fwhm = sigma_to_fwhm(p["sigma_ps"])  # the record's sigma_ps is read back from it
    return replace(fit, params={"tau_ps": p["tau_ps"], "sigma_ps": fwhm / FWHM_PER_SIGMA,
                                "irf_fwhm_ps": fwhm, "amplitude": p["amplitude"],
                                "t0_ps": p["t0_ps"], "background": p["background"]})


def fit_lifetime(hist, fix_sigma=None):
    """Least-squares fit of the convolved decay model to a histogram.

    Free parameters are amplitude, onset t0, lifetime tau, and flat
    background, plus the IRF sigma unless `fix_sigma` (in ps) is given.
    Non-convergence is reported through `converged=False` with the best
    parameters found, not an exception.
    """
    return fit_lifetime_xy(hist.bin_centers(), hist.counts.astype(float),
                           hist.config.bin_width_ps, fix_sigma)


# ---------------------------------------------------------------------------
# IRF measurement (Gaussian peak fit)


def gaussian_model(t_ps, amplitude, center_ps, sigma_ps, baseline):
    t = np.asarray(t_ps, dtype=float)
    return baseline + amplitude * np.exp(-((t - center_ps) ** 2) / (2.0 * sigma_ps**2))


def gaussian_jacobian(t_ps, amplitude, center_ps, sigma_ps, baseline):
    """Columns in signature order (amplitude, center_ps, sigma_ps, baseline)."""
    t = np.atleast_1d(np.asarray(t_ps, dtype=float))
    u = t - center_ps
    e = np.exp(-(u**2) / (2.0 * sigma_ps**2))
    J = np.empty((t.size, 4))
    J[:, 0] = e
    J[:, 1] = amplitude * e * u / sigma_ps**2
    J[:, 2] = amplitude * e * u**2 / sigma_ps**3
    J[:, 3] = 1.0
    return J


def measure_irf(hist):
    """Gaussian least-squares fit of a single-peak histogram.

    Returns a `Fit` of irf_fwhm_ps and irf_center_ps, with converged=False if
    the fit did not converge or ends on no peak: amplitude <= 0, or the centre
    outside the histogram's range (a peak's tail beyond the range can fit
    well).  Raises AnalysisError only if no bin rises above the baseline.
    """
    x = hist.bin_centers()
    y = hist.counts.astype(float)
    if np.all(y == y[0]):
        raise AnalysisError("degenerate histogram: all bins equal")
    baseline = _edge_baseline(y)
    i_max = int(np.argmax(y))
    amplitude = float(y[i_max]) - baseline
    if amplitude <= 0:
        raise AnalysisError("no peak above baseline")
    center = float(x[i_max])
    above = np.nonzero(y - baseline > amplitude / 2.0)[0]
    width_guess = (x[above[-1]] - x[above[0]]) + hist.config.bin_width_ps
    sigma = max(width_guess / FWHM_PER_SIGMA, hist.config.bin_width_ps / 2.0)

    fit = fit_curve(gaussian_model, gaussian_jacobian, x, y,
                    {"amplitude": amplitude, "center_ps": center, "sigma_ps": sigma,
                     "baseline": baseline}, positive=("sigma_ps",))
    p, cfg = fit.params, hist.config
    on_peak = p["amplitude"] > 0 and cfg.range_min_ps <= p["center_ps"] < cfg.range_max_ps
    return replace(fit, converged=fit.converged and on_peak, params={
        "irf_fwhm_ps": sigma_to_fwhm(p["sigma_ps"]), "irf_center_ps": p["center_ps"]})


# ---------------------------------------------------------------------------
# detection-efficiency calibration


def de_model(mu, eta, dark_rate_hz, f_hz):
    """Expected count rate R(mu) = D + f * (1 - exp(-eta*mu))."""
    mu = np.asarray(mu, dtype=float)
    return dark_rate_hz + f_hz * -np.expm1(-eta * mu)


def de_model_jacobian(mu, eta, dark_rate_hz, f_hz):
    """Columns in parameter order (eta, dark_rate_hz)."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    J = np.empty((mu.size, 2))
    J[:, 0] = f_hz * mu * np.exp(-eta * mu)
    J[:, 1] = 1.0
    return J


def fit_de(points, f_hz):
    """Fit (eta, D) to an attenuation sweep at known drive frequency f_hz.

    Returns a `Fit` of eta, dark_rate_hz and f_hz.  Initialization: D from the
    smallest observed rate, eta from the largest-signal point assuming the
    linear regime, clamped into (0, 1].  A fitted eta or D outside its bounds is
    clamped and flagged via converged=False, as is an eta the data cannot see.
    """
    points = list(points)
    if len(points) < 3:
        raise AnalysisError("need at least 3 sweep points")
    mu = np.array([p.mu for p in points], dtype=float)
    rate = np.array([p.rate_hz for p in points], dtype=float)
    positive = mu[mu > 0]
    if positive.size == 0 or positive.max() / positive.min() < 10.0:
        raise AnalysisError(
            "insufficient sweep range: mu values must span at least one decade"
        )
    if np.all(rate == rate[0]):
        raise AnalysisError("degenerate sweep: all rates equal")
    if not 0 < f_hz < math.inf:
        raise AnalysisError(f"f_hz must be finite and > 0, got {f_hz}")

    d0 = float(rate.min())
    i_max = int(np.argmax(rate))
    # in Python floats, where a product or quotient past the float range is
    # inf without an overflow warning, and the clamp below then bounds it
    eta0 = ((float(rate[i_max]) - d0) / (float(f_hz) * float(mu[i_max]))
            if mu[i_max] > 0 else 0.5)
    eta0 = min(max(eta0, 1e-12), 1.0)

    fit = fit_curve(de_model, de_model_jacobian, mu, rate,
                    {"eta": eta0, "dark_rate_hz": d0, "f_hz": f_hz}, fixed=("f_hz",))
    eta, dark = fit.params["eta"], fit.params["dark_rate_hz"]
    clamped = not (0.0 <= eta <= 1.0 and dark >= 0.0)
    return replace(fit, converged=fit.converged and not clamped,
                   params={**fit.params, "eta": min(max(eta, 0.0), 1.0),
                           "dark_rate_hz": max(dark, 0.0)})


DE_CSV_HEADER = "mu,rate_hz"


def write_de_sweep(points, path):
    write_csv_rows(path, DE_CSV_HEADER, ((p.mu, p.rate_hz) for p in points))


def read_de_sweep(path):
    return read_csv_rows(path, DE_CSV_HEADER,
                         lambda fields: DECalibrationPoint(*map(float, fields)))[1]
