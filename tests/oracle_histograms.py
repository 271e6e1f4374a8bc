"""Expected histograms from the model parameters, for chi-square gates on the
simulated data.

These judge a simulated histogram bin by bin against what the physics
predicts.  They read only the fields of a resolved run config and compute
with scipy's distributions, so they share no code with
`photon_correlator.analysis.decay_model`, the samplers or the correlator:
a wrong jitter width, a remap offset or a wrong lifetime in the program
shows as a chi-square the model does not allow.

* `expected_tcspc_counts`: reverse start-stop TCSPC of a dot source
  against the sync clock (W. Becker, *Advanced Time-Correlated Single
  Photon Counting Techniques*, Springer, 2005);
* `expected_hbt_counts`: the g2(tau) comb of an ALL_STOPS HBT run with
  no dead time, of a dot or of the laser;
* `pearson_chi2`: Pearson's statistic with low expectations merged.
"""

import math

import numpy as np
from scipy import stats


def expected_tcspc_counts(cfg):
    """Expected counts in each bin of `simulate-tcspc` on `cfg`, a run config
    with its correlator range resolved, for a dot source.

    Pulse k fires at p_k = round(k P), P = 1e12 / rep_rate_hz, and the clock
    ticks at p_k + h, h = round(P / 2).  A photon at p_k + s, with s an
    Exponential(tau) delay plus Gaussian(sigma) jitter, is timed against
    the first tick at or after it, tick k + j, and binned at R - (p_{k+j} +
    h - p_k - s) = s + R - h - jP, R = round(P).  So the binned value is
    the exponentially modified Gaussian of s shifted by R - h, plus its
    images shifted by multiples of P (photons delayed past the next tick,
    or jittered before the previous one).  The delay and the jitter are
    each rounded to whole ps, so an integer bin [lo, hi) takes s in
    [lo - 1/2, hi - 1/2) shifted.  Dark counts fall uniformly over the
    period: a flat floor.  The run's first and last pulses, where a
    photon is clamped to the run or has no later tick, are left out: they
    move a few counts at most.
    """
    source, corr = cfg.source, cfg.correlator
    detector = cfg.detectors[cfg.tcspc.detector]
    period = 1e12 / source.rep_rate_hz
    shift = round(period) - round(period / 2.0)
    sigma = detector.jitter_fwhm_ps / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    tau = source.lifetime_ps
    _, p1, p2 = source.photon_dist
    n_signal = cfg.n_pulses * (p1 + 2.0 * p2) * detector.efficiency
    n_dark = detector.dark_rate_hz * round(cfg.n_pulses * period) * 1e-12

    edges = (np.arange(corr.n_bins + 1) * corr.bin_width_ps + corr.range_min_ps
             - shift - 0.5)
    delay = stats.exponnorm(tau / sigma, scale=sigma)
    reach = 40.0 * (tau + sigma)  # past it, the delay's tail is below 1e-17
    images = range(-1 - int(reach // period), 2 + int(reach // period))
    signal = sum(np.diff(delay.cdf(edges + j * period)) for j in images)
    return n_signal * signal + n_dark * corr.bin_width_ps / period


def expected_hbt_counts(cfg):
    """Expected counts in each bin of `simulate-hbt` on `cfg`, a run config
    with its correlator range resolved, in ALL_STOPS mode with no dead time
    and jitter in at least one arm.

    A source photon reaches the start detector with probability a = (1 - t)
    eta_A and the stop detector with b = t eta_B, t the splitter's
    transmission.  A start from pulse i and a stop from pulse i + k are
    k P apart, P = 1e12 / rep_rate_hz, plus the difference of their two
    Exponential(tau) emission delays, Laplace(tau), plus the difference of
    their jitters, Gaussian(sqrt(sigma_A^2 + sigma_B^2)).  So each peak of
    the comb is Laplace(tau) convolved with that Gaussian, whose CDF is
    F(x)/2 + (1 - F(-x))/2, F that of the exponentially modified Gaussian;
    the laser's photons have no delay, and its peaks are the Gaussian.  The
    pulses are independent, so the N - |k| pairs of pulses k apart give
    (N - |k|) <n>^2 a b coincidences for k != 0.  In one pulse the n
    photons give n (n - 1) a b pairs: N 2 p2 a b for the dot and N mu^2 a b
    for the laser.  Each detector's darks pair with every tag of the other:
    a flat floor.  As for TCSPC, an integer bin [lo, hi) takes the delay in
    [lo - 1/2, hi - 1/2); the rounding of pulse times, delays and jitters
    to whole ps, of variance about 1/2 ps^2, and the run's edges are left
    out.
    """
    source, corr, t = cfg.source, cfg.correlator, cfg.splitter.transmission
    start, stop = cfg.detectors[cfg.hbt.start], cfg.detectors[cfg.hbt.stop]
    n, period = cfg.n_pulses, 1e12 / source.rep_rate_hz
    duration = round(n * period)
    a, b = (1.0 - t) * start.efficiency, t * stop.efficiency
    if hasattr(source, "mu"):  # the laser: Poisson(mu) photons a pulse
        tau, mean_n, same_pulse = 0.0, source.mu, source.mu ** 2
    else:
        _, p1, p2 = source.photon_dist
        tau, mean_n, same_pulse = source.lifetime_ps, p1 + 2.0 * p2, 2.0 * p2
    sigma = (math.hypot(start.jitter_fwhm_ps, stop.jitter_fwhm_ps)
             / (2.0 * math.sqrt(2.0 * math.log(2.0))))
    if tau > 0:
        emg = stats.exponnorm(tau / sigma, scale=sigma)

        def cdf(x):
            return 0.5 * emg.cdf(x) + 0.5 * emg.sf(-x)
    else:
        cdf = stats.norm(scale=sigma).cdf

    edges = np.arange(corr.n_bins + 1) * corr.bin_width_ps + corr.range_min_ps - 0.5
    reach = 40.0 * (tau + sigma)  # past it, the peak's tail is below 1e-17
    peaks = range(math.ceil((corr.range_min_ps - reach) / period),
                  math.floor((corr.range_max_ps + reach) / period) + 1)
    signal = sum((n * same_pulse if k == 0 else (n - abs(k)) * mean_n ** 2) * a * b
                 * np.diff(cdf(edges - k * period)) for k in peaks)
    dark_a = start.dark_rate_hz * duration * 1e-12
    dark_b = stop.dark_rate_hz * duration * 1e-12
    accidentals = (dark_a * (n * mean_n * b + dark_b) + n * mean_n * a * dark_b
                   ) * corr.bin_width_ps / duration
    return signal + accidentals


def pearson_chi2(observed, expected, min_expected=5.0):
    """(statistic, dof, p) of Pearson's chi-square for the counts `observed`
    against `expected`, whose total is fixed by the run.

    Adjacent bins are merged from the first on until each group expects at
    least `min_expected`; a short remainder joins the last group.
    """
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    starts, total = [0], 0.0
    for i, e in enumerate(expected[:-1], 1):
        total += e
        if total >= min_expected:
            starts.append(i)
            total = 0.0
    if len(starts) > 1 and expected[starts[-1]:].sum() < min_expected:
        starts.pop()
    o = np.add.reduceat(observed, starts)
    e = np.add.reduceat(expected, starts)
    statistic = float(np.sum((o - e) ** 2 / e))
    dof = len(starts) - 1
    return statistic, dof, float(stats.chi2.sf(statistic, dof))
