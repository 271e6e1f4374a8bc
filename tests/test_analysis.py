import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcx as scipy_erfcx

from photon_correlator import (
    AnalysisError,
    DECalibrationPoint,
    DetectorModel,
    FormatError,
    Histogram,
    HistogramConfig,
    IrfFit,
    Mode,
    PoissonLaserModel,
    PulsedSourceModel,
    SplitRatio,
    de_model,
    decay_model,
    fit_de,
    fit_lifetime,
    g2_zero,
    measure_irf,
    peak_fwhm,
    read_de_sweep,
    tac_histogram,
    write_de_sweep,
)
from photon_correlator import nlsq
from photon_correlator.analysis import (
    _erfc_negative,
    _erfcx,
    de_model_jacobian,
    decay_model_jacobian,
    fit_lifetime_xy,
    gaussian_jacobian,
    gaussian_model,
    side_peak_windows,
)
from photon_correlator.pipelines import (beamsplit, detect, emit_dot_pulse_train,
                                         emit_laser_pulse_train)

from conftest import finite_difference_jacobian


def spike_histogram(rep_period=1000, bin_width=10, n_periods=11, spikes=None):
    """Synthetic comb histogram: `spikes` maps delay -> count."""
    half = n_periods * rep_period // 2 * 2  # keep divisible
    cfg = HistogramConfig(bin_width, -half, half, Mode.ALL_STOPS)
    counts = np.zeros(cfg.n_bins, dtype=np.int64)
    for delay, count in (spikes or {}).items():
        counts[(delay - cfg.range_min_ps) // bin_width] += count
    return Histogram(cfg, counts, n_starts=1_000_000)


class TestG2Zero:
    def comb(self, center_count, side_count, rep_period=1000):
        spikes = {0: center_count}
        for k in range(1, 11):
            spikes[k * rep_period] = side_count
            spikes[-k * rep_period] = side_count
        return spike_histogram(rep_period=rep_period, spikes=spikes)

    def test_synthetic_ratio_and_sigma(self):
        hist = self.comb(240, 1000)
        est = g2_zero(hist, 1000, n_side_peaks=20)
        assert est.g2_zero == pytest.approx(0.24, rel=1e-12)
        assert est.center_area == 240
        assert est.side_areas == (1000,) * 20
        # Poisson propagation: g*sqrt(1/A0 + 1/sum(As))
        assert est.sigma == pytest.approx(
            0.24 * math.sqrt(1 / 240 + 1 / 20_000), rel=1e-12
        )
        assert est.sigma == pytest.approx(0.0155846, abs=1e-6)

    def test_zero_center(self):
        hist = self.comb(0, 500)
        est = g2_zero(hist, 1000, n_side_peaks=20)
        assert est.g2_zero == 0.0
        assert est.sigma == pytest.approx(1 / 500)

    def test_scaling_invariance_exact(self):
        h1 = self.comb(240, 1000)
        h3 = Histogram(h1.config, h1.counts * 3, h1.n_starts)
        e1 = g2_zero(h1, 1000, n_side_peaks=20)
        e3 = g2_zero(h3, 1000, n_side_peaks=20)
        assert e3.g2_zero == e1.g2_zero
        assert e3.center_area == 3 * e1.center_area

    def test_window_outside_range_errors(self):
        hist = self.comb(10, 10)
        with pytest.raises(AnalysisError, match="side peaks"):
            g2_zero(hist, 1000, n_side_peaks=40)

    def test_empty_side_peaks_error(self):
        hist = spike_histogram(spikes={0: 100})
        with pytest.raises(AnalysisError, match="side-peak"):
            g2_zero(hist, 1000, n_side_peaks=4)

    def test_bad_halfwidth(self):
        hist = self.comb(1, 1)
        with pytest.raises(AnalysisError, match="halfwidth"):
            g2_zero(hist, 1000, integration_halfwidth_ps=600)

    def test_side_peak_windows_nearest_first(self):
        cfg = HistogramConfig(10, -2500, 3500, Mode.ALL_STOPS)
        halfwidth, centers = side_peak_windows(cfg, 1000, None, 4)
        assert halfwidth == 1000 / 2.0 - 10
        assert centers == [-1000, 1000, -2000, 2000]
        # only +3000 fits at |k| = 3
        assert side_peak_windows(cfg, 1000, 400, 5) == (400, [-1000, 1000, -2000,
                                                              2000, 3000])
        assert side_peak_windows(cfg, 1000, 400, 3)[1] == [-1000, 1000, -2000]

    def test_side_peak_windows_rejects_bad_input(self):
        cfg = HistogramConfig(10, -2500, 3500, Mode.ALL_STOPS)
        with pytest.raises(AnalysisError, match="side-peak windows"):
            side_peak_windows(cfg, 1000, 400, 6)
        with pytest.raises(AnalysisError, match="halfwidth"):
            side_peak_windows(cfg, 1000, 0, 2)
        with pytest.raises(AnalysisError, match=">= 2"):
            side_peak_windows(cfg, 1000, None, 1)
        with pytest.raises(AnalysisError, match="zero-delay"):
            side_peak_windows(HistogramConfig(10, 0, 5000), 1000, None, 2)

    def test_one_sided_histogram(self):
        # all side peaks on the positive side; the range only has to leave
        # room for the zero-delay window itself
        cfg = HistogramConfig(10, -500, 21_500, Mode.ALL_STOPS)
        counts = np.zeros(cfg.n_bins, dtype=np.int64)
        for k in range(1, 21):
            counts[(k * 1000 - cfg.range_min_ps) // 10] = 50
        counts[-cfg.range_min_ps // 10] = 10
        hist = Histogram(cfg, counts, 100)
        est = g2_zero(hist, 1000, n_side_peaks=20)
        assert est.g2_zero == pytest.approx(10 / 50)


class TestPeakFwhm:
    def gaussian_histogram(self, sigma=100.0, bin_width=10, amplitude=1e6,
                           baseline=0.0, center=0.0):
        cfg = HistogramConfig(bin_width, -2000, 2000, Mode.ALL_STOPS)
        x = cfg.bin_centers()
        counts = np.rint(
            amplitude * np.exp(-((x - center) ** 2) / (2 * sigma**2)) + baseline
        ).astype(np.int64)
        return Histogram(cfg, counts, 1)

    def test_single_bin_convention(self):
        hist = spike_histogram(spikes={0: 100})
        w = peak_fwhm(hist, 0, 400)
        assert w == pytest.approx(hist.config.bin_width_ps)

    def test_discretized_gaussian(self):
        hist = self.gaussian_histogram(sigma=100.0)
        w = peak_fwhm(hist, 0, 1800)
        assert w == pytest.approx(235.48, abs=5.0)

    def test_baseline_subtraction(self):
        flat = self.gaussian_histogram(sigma=100.0, baseline=5e5)
        w = peak_fwhm(flat, 0, 1800)
        assert w == pytest.approx(235.48, abs=5.0)

    def test_half_maximum_not_crossed(self):
        cfg = HistogramConfig(10, 0, 1000, Mode.ALL_STOPS)
        counts = np.linspace(100, 200, cfg.n_bins).astype(np.int64)
        counts[50] = 1000
        counts[51:] = 900  # never falls below half max on the right
        hist = Histogram(cfg, counts, 1)
        with pytest.raises(AnalysisError, match="right"):
            peak_fwhm(hist, 500, 450)

    def test_peak_on_edge_rejected(self):
        cfg = HistogramConfig(10, 0, 1000, Mode.ALL_STOPS)
        counts = np.zeros(cfg.n_bins, np.int64)
        counts[0] = 100
        hist = Histogram(cfg, counts, 1)
        with pytest.raises(AnalysisError, match="edge"):
            peak_fwhm(hist, 55, 50)


def convolution_oracle(t, tau, sigma, amplitude=1.0, t0=0.0, background=0.0):
    """Adaptive-quadrature convolution of the one-sided exponential with a
    Gaussian; fully independent of the closed-form implementation."""
    u = t - t0

    def integrand(s):
        return (
            math.exp(-s / tau)
            * math.exp(-((u - s) ** 2) / (2 * sigma**2))
            / (sigma * math.sqrt(2 * math.pi))
        )

    lo = max(0.0, u - 14.0 * sigma)
    hi = max(0.0, u) + 14.0 * sigma
    interior = [u] if lo < u < hi else None
    value, _ = quad(integrand, lo, hi, epsabs=1e-300, epsrel=1e-11, limit=400,
                    points=interior)
    return background + amplitude * value


class TestDecayModel:
    def test_sigma_zero_conventions(self):
        assert decay_model(1000.0, 370.0, 0.0, 5.0, 1000.0, 2.0) == pytest.approx(4.5)
        # one-sided limit from above
        assert decay_model(1000.0 + 1e-9, 370.0, 0.0, 5.0, 1000.0, 2.0) == (
            pytest.approx(7.0)
        )
        assert decay_model(999.0, 370.0, 0.0, 5.0, 1000.0, 2.0) == pytest.approx(2.0)
        assert decay_model(1370.0, 370.0, 0.0, 5.0, 1000.0, 2.0) == pytest.approx(
            2.0 + 5.0 * math.exp(-1.0)
        )

    def test_far_past_is_background(self):
        val = decay_model(-1e6, 370.0, 72.2, 5.0, 0.0, 3.25)
        assert val == pytest.approx(3.25, abs=1e-12)

    def test_peak_is_finite_for_extreme_sigma_over_tau(self):
        # sigma^2/(2 tau^2) = 2e4: the naive form overflows, the scaled
        # form must not
        val = decay_model(0.0, 1.0, 200.0, 1.0, 0.0, 0.0)
        assert np.isfinite(val)
        assert 0 < val < 1

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(20):
            tau = rng.uniform(100, 2000)
            sigma = rng.uniform(30, 600)
            t0 = rng.uniform(-500, 500)
            amplitude = rng.uniform(0.5, 1e4)
            background = rng.uniform(0, 10)
            for t in t0 + np.array([-3 * sigma, -0.5 * sigma, 0.0, sigma,
                                    2 * sigma, 2 * tau, 5 * tau]):
                have = decay_model(t, tau, sigma, amplitude, t0, background)
                want = convolution_oracle(t, tau, sigma, amplitude, t0, background)
                worst = max(worst, abs(have - want) / abs(want))
        assert worst < 1e-6

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            decay_model(0.0, -1.0, 10.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            decay_model(0.0, 100.0, -1.0, 1.0, 0.0, 0.0)


class TestSpecialFunctions:
    """The numpy erfcx and the z < 0 erfc built on it, against scipy and the
    standard library."""

    def test_erfcx_matches_scipy(self):
        z = np.concatenate([np.linspace(0.0, 1e-3, 1001), np.linspace(0.0, 30.0, 30_001),
                            np.logspace(-300, 300, 6001)])
        want = scipy_erfcx(z)
        assert np.max(np.abs(_erfcx(z) - want) / want) < 2e-15

    def test_erfc_of_negative_argument_matches_stdlib(self):
        z = np.concatenate([np.linspace(-30.0, 0.0, 30_001), -np.logspace(-300, 1, 3001)])
        want = np.array([math.erfc(v) for v in z])
        assert np.max(np.abs(_erfc_negative(z) - want) / want) < 2e-15

    def test_special_values(self):
        assert _erfcx(np.array([0.0, np.inf])).tolist() == [1.0, 0.0]
        assert np.isnan(_erfcx(np.array([np.nan]))).all()
        assert _erfc_negative(np.array([0.0, -np.inf])).tolist() == [1.0, 2.0]
        assert np.isnan(_erfc_negative(np.array([np.nan]))).all()


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(tau=st.one_of(st.floats(1e-3, 1e12), log_uniform(-3, 12)),
       sigma=st.one_of(st.just(0.0), st.floats(1e-300, 1e300), log_uniform(-300, 300)),
       amplitude=st.floats(0.0, 1e6),
       u=st.lists(st.one_of(st.floats(-1e12, 1e12), log_uniform(-300, 12),
                            log_uniform(-300, 12).map(lambda v: -v)),
                  min_size=1, max_size=16))
def test_decay_model_is_finite_for_every_finite_sigma(tau, sigma, amplitude, u):
    # warnings are errors in this suite, so this also checks there are none
    t = np.array(u)
    signal = decay_model(t, tau, sigma, amplitude, 0.0, 0.0)
    assert np.all(np.isfinite(signal)) and np.all(signal >= 0)
    assert np.all(np.isfinite(decay_model_jacobian(t, tau, sigma, amplitude, 0.0, 0.0)))


def relative_jacobian_error(J_analytic, J_fd):
    scale = np.maximum(
        np.maximum(np.abs(J_analytic), np.abs(J_fd)),
        1e-6 * np.abs(J_fd).max(axis=0, keepdims=True) + 1e-300,
    )
    return float(np.max(np.abs(J_analytic - J_fd) / scale))


def test_finite_difference_jacobian_on_polynomial():
    def fn(p):
        return np.array([p[0] ** 2 + 3 * p[1], p[0] * p[1]])

    J = finite_difference_jacobian(fn, np.array([2.0, 5.0]))
    expected = np.array([[4.0, 3.0], [5.0, 2.0]])
    assert np.allclose(J, expected, rtol=1e-7)


class TestJacobians:
    """Central differences have nothing left to resolve 30+ sigma into a
    Gaussian tail, so each grid covers the support of its model."""

    def test_decay_jacobian_vs_central_differences(self):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(10):
            p = np.array([
                rng.uniform(150, 800),    # tau
                rng.uniform(40, 300),     # sigma
                rng.uniform(10, 5000),    # amplitude
                rng.uniform(-200, 800),   # t0
                rng.uniform(0, 50),       # background
            ])
            cases.append((p, p[3] + np.linspace(-3 * p[1], 4 * p[0], 37)))
        # sigma/tau up to 1e6, where the tau and sigma columns are differences
        # that cancel unless evaluated directly.  The amplitude keeps the peak
        # ~400 counts over the background, t0 ~ sigma keeps its difference
        # step (1e-6 t0) in proportion to the curve, and 36 points miss the
        # zeros of the sigma and t0 columns, where the differences' rounding
        # would show
        for ratio in (1e2, 1e4, 1e6):
            sigma = 100.0 * ratio
            p = np.array([100.0, sigma, 1e3 * ratio, 0.5 * sigma, 2.0])
            cases.append((p, p[3] + np.linspace(-3 * sigma, 3 * sigma, 36)))
        for p, t in cases:
            J = decay_model_jacobian(t, *p)
            J_fd = finite_difference_jacobian(lambda q: decay_model(t, *q), p)
            assert relative_jacobian_error(J, J_fd) < 1e-5, p

    def test_decay_amplitude_column_at_zero_sigma_is_the_unit_model(self):
        """At sigma = 0 the model is one-sided and reads B + A/2 at t0 itself,
        so on a grid through t0 the amplitude column is the unit model, 1/2
        there, as central differences give.  The t0 column there is the slope
        before the jump, 0."""
        t = 100.0 + 10.0 * np.arange(-3, 4)
        J = decay_model_jacobian(t, 50.0, 0.0, 1000.0, 100.0, 2.0)
        assert np.array_equal(J[:, 2], decay_model(t, 50.0, 0.0, 1.0, 100.0, 0.0))
        assert J[3, 2] == 0.5 and J[3, 3] == 0.0

    def test_gaussian_jacobian_vs_central_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = np.array([
                rng.uniform(10, 1000),    # amplitude
                rng.uniform(-300, 300),   # center
                rng.uniform(30, 400),     # sigma
                rng.uniform(0, 20),       # baseline
            ])
            t = p[1] + np.linspace(-5 * p[2], 5 * p[2], 41)
            J = gaussian_jacobian(t, *p)
            J_fd = finite_difference_jacobian(lambda q: gaussian_model(t, *q), p)
            assert relative_jacobian_error(J, J_fd) < 1e-5

    def test_de_jacobian_vs_central_differences(self):
        rng = np.random.default_rng(9)
        mu = np.logspace(-2, 1, 13)
        for _ in range(10):
            eta = rng.uniform(1e-3, 0.5)
            dark = rng.uniform(1, 1e4)
            f = 1e5
            J = de_model_jacobian(mu, eta, dark, f)
            J_fd = finite_difference_jacobian(
                lambda q: de_model(mu, q[0], q[1], f), np.array([eta, dark])
            )
            assert relative_jacobian_error(J, J_fd) < 1e-5


def model_histogram(tau=370.0, sigma=72.2, amplitude=5000.0, t0=2000.0,
                    background=7.0, bin_width=32, span=12_192):
    cfg = HistogramConfig(bin_width, 0, span, Mode.FIRST_STOP)
    x = cfg.bin_centers()
    counts = np.rint(decay_model(x, tau, sigma, amplitude, t0, background)
                     ).astype(np.int64)
    return Histogram(cfg, counts, int(counts.sum()))


class TestFitLifetime:
    def test_noiseless_recovery(self):
        # rounding to integer counts limits agreement; fit on exact values
        cfg = HistogramConfig(32, 0, 12_192, Mode.FIRST_STOP)
        x = cfg.bin_centers()
        true = dict(tau=370.0, sigma=72.2, amplitude=5000.0, t0=2000.0,
                    background=7.0)
        y = decay_model(x, true["tau"], true["sigma"], true["amplitude"],
                        true["t0"], true["background"])
        fit = fit_lifetime_xy(x, y, 32)
        assert fit.converged
        assert fit.tau_ps == pytest.approx(true["tau"], rel=1e-4)
        assert fit.irf_fwhm_ps == pytest.approx(true["sigma"] * 2.3548, rel=1e-4)
        assert fit.amplitude == pytest.approx(true["amplitude"], rel=1e-4)
        assert fit.t0_ps == pytest.approx(true["t0"], rel=1e-4)
        assert fit.background == pytest.approx(true["background"], rel=1e-3)
        assert fit.residual_rms < 1e-6 * true["amplitude"]

    def test_recovery_from_rounded_counts(self):
        hist = model_histogram()
        fit = fit_lifetime(hist)
        assert fit.converged
        assert fit.tau_ps == pytest.approx(370.0, rel=1e-3)

    def test_fix_sigma(self):
        from photon_correlator import sigma_to_fwhm

        hist = model_histogram()
        fit = fit_lifetime(hist, fix_sigma=72.2)
        assert fit.converged
        assert fit.irf_fwhm_ps == pytest.approx(sigma_to_fwhm(72.2), rel=1e-12)
        assert fit.tau_ps == pytest.approx(370.0, rel=1e-3)

    def test_degenerate_histogram(self):
        cfg = HistogramConfig(10, 0, 1000, Mode.FIRST_STOP)
        hist = Histogram(cfg, np.full(100, 7, np.int64), 700)
        with pytest.raises(AnalysisError, match="degenerate"):
            fit_lifetime(hist)

    def test_too_few_nonzero_bins(self):
        cfg = HistogramConfig(10, 0, 1000, Mode.FIRST_STOP)
        counts = np.zeros(100, np.int64)
        counts[40:50] = 100
        with pytest.raises(AnalysisError, match="nonzero"):
            fit_lifetime(Histogram(cfg, counts, 1000))

    def test_non_convergence_reports_best_so_far(self, monkeypatch):
        hist = model_histogram()
        monkeypatch.setattr(nlsq, "MAX_ITER", 1)
        fit = fit_lifetime(hist)
        assert not fit.converged
        assert fit.iterations == 1
        assert np.isfinite(fit.tau_ps)

    def test_reorder_invariance(self):
        cfg = HistogramConfig(32, 0, 12_192, Mode.FIRST_STOP)
        x = cfg.bin_centers()
        y = decay_model(x, 370.0, 72.2, 5000.0, 2000.0, 7.0)
        rng = np.random.default_rng(4)
        perm = rng.permutation(x.size)
        a = fit_lifetime_xy(x, y, 32)
        b = fit_lifetime_xy(x[perm], y[perm], 32)
        assert b.tau_ps == pytest.approx(a.tau_ps, rel=1e-6)
        assert b.t0_ps == pytest.approx(a.t0_ps, rel=1e-6)



class TestMeasureIrf:
    def gaussian_histogram(self, fwhm=170.0, center=6000.0, amplitude=20_000.0,
                           baseline=3.0, bin_width=32):
        cfg = HistogramConfig(bin_width, 0, 12_192, Mode.FIRST_STOP)
        x = cfg.bin_centers()
        sigma = fwhm / 2.3548200450309493
        counts = np.rint(gaussian_model(x, amplitude, center, sigma, baseline)
                         ).astype(np.int64)
        return Histogram(cfg, counts, int(counts.sum()))

    def test_recovers_width_and_center(self):
        hist = self.gaussian_histogram()
        fwhm, center = measure_irf(hist)
        assert fwhm == pytest.approx(170.0, rel=1e-3)
        assert center == pytest.approx(6000.0, abs=1.0)

    def test_returns_irf_fit_with_record(self):
        fit = measure_irf(self.gaussian_histogram())
        assert isinstance(fit, IrfFit)
        assert fit.record() == {"irf_fwhm_ps": fit.irf_fwhm_ps,
                                "irf_center_ps": fit.irf_center_ps}
        assert tuple(fit) == (fit.irf_fwhm_ps, fit.irf_center_ps)

    def test_delta_peak_is_narrow(self):
        cfg = HistogramConfig(32, 0, 12_192, Mode.FIRST_STOP)
        counts = np.zeros(cfg.n_bins, np.int64)
        counts[190] = 100_000
        hist = Histogram(cfg, counts, 100_000)
        fwhm, _ = measure_irf(hist)
        assert fwhm <= 2 * cfg.bin_width_ps

    def test_degenerate(self):
        cfg = HistogramConfig(32, 0, 320, Mode.FIRST_STOP)
        with pytest.raises(AnalysisError):
            measure_irf(Histogram(cfg, np.full(10, 5, np.int64), 50))

    def test_sspd_irf_from_simulated_laser_run(self):
        # delta-pulse laser through a 170 ps detector, timed against the
        # sync clock: the fitted IRF is the detector jitter, 170 +/- 4 ps
        from photon_correlator import reverse_start_stop
        from photon_correlator.pipelines import emit_clock_ticks

        rep = 1e8
        laser = emit_laser_pulse_train(PoissonLaserModel(rep, 0.5), 400_000, seed=41)
        sspd = DetectorModel("SSPD", 1.0, 100.0, 170.0, 10_000)
        detections = detect(laser, sspd, seed=42, channel=1)
        clock = emit_clock_ticks(rep, 400_000, offset_ps=5000)
        cfg = HistogramConfig(32, 0, 9984, Mode.FIRST_STOP)
        hist = reverse_start_stop(detections, clock, cfg, remap_period_ps=10_000)
        fwhm, _ = measure_irf(hist)
        assert fwhm == pytest.approx(170.0, abs=4.0)

    def test_quadrature_of_two_detector_jitters(self):
        # two 550 ps detectors viewing the same pulse train: the start/stop
        # peak width is the quadrature sum, sqrt(550^2 + 550^2) = 778 ps
        rep = 1e8
        laser = emit_laser_pulse_train(PoissonLaserModel(rep, 1.0), 300_000, seed=31)
        det = DetectorModel("apd", 1.0, 0.0, 550.0, 0)
        start = detect(laser, det, seed=32, channel=1)
        stop = detect(laser, det, seed=33, channel=2)
        cfg = HistogramConfig(32, -4992, 4992, Mode.ALL_STOPS)
        hist = tac_histogram(start, stop, cfg)
        fwhm, center = measure_irf(hist)
        assert fwhm == pytest.approx(math.sqrt(2) * 550.0, abs=16.0)
        assert abs(center) < 10.0


class TestFitDe:
    def test_model_at_mu_zero_is_dark_rate(self):
        assert de_model(0.0, 0.5, 123.0, 1e5) == pytest.approx(123.0)

    def test_noiseless_recovery_exact(self):
        eta, dark, f = 0.02, 100.0, 1e5
        mu = np.array([0.01, 0.1, 1.0, 10.0])
        rates = de_model(mu, eta, dark, f)
        assert rates[2] == pytest.approx(2080.1326693244747, rel=1e-12)
        points = [DECalibrationPoint(m, r) for m, r in zip(mu, rates)]
        fit = fit_de(points, f)
        assert fit.converged
        assert fit.eta == pytest.approx(eta, rel=1e-6)
        assert fit.dark_rate_hz == pytest.approx(dark, rel=1e-6)

    def test_reorder_invariance(self):
        eta, dark, f = 0.015, 350.0, 1e5
        mu = np.logspace(-2, 1, 9)
        rates = de_model(mu, eta, dark, f)
        pts = [DECalibrationPoint(m, r) for m, r in zip(mu, rates)]
        a = fit_de(pts, f)
        b = fit_de(list(reversed(pts)), f)
        assert b.eta == pytest.approx(a.eta, rel=1e-9)
        assert b.dark_rate_hz == pytest.approx(a.dark_rate_hz, rel=1e-9)

    def test_insufficient_range(self):
        pts = [DECalibrationPoint(m, r) for m, r in
               [(1.0, 100.0), (2.0, 200.0), (3.0, 300.0)]]
        with pytest.raises(AnalysisError, match="insufficient sweep range"):
            fit_de(pts, 1e5)

    def test_all_equal_rates(self):
        pts = [DECalibrationPoint(m, 100.0) for m in (0.01, 0.1, 1.0, 10.0)]
        with pytest.raises(AnalysisError, match="degenerate"):
            fit_de(pts, 1e5)

    def test_too_few_points(self):
        with pytest.raises(AnalysisError, match="at least 3"):
            fit_de([DECalibrationPoint(0.1, 5.0), DECalibrationPoint(1.0, 50.0)], 1e5)

    def test_negative_dark_clamped_and_flagged(self):
        f, eta = 1e5, 0.01
        mu = np.array([0.1, 1.0, 10.0, 100.0])
        rates = de_model(mu, eta, 0.0, f) - 40.0  # forces D < 0
        rates = np.maximum(rates, 0.0)
        pts = [DECalibrationPoint(m, r) for m, r in zip(mu, rates)]
        fit = fit_de(pts, f)
        assert fit.dark_rate_hz == 0.0
        assert not fit.converged

    def test_sweep_csv_round_trip(self, tmp_path):
        pts = [DECalibrationPoint(0.01, 510.0), DECalibrationPoint(1.0, 2080.13)]
        path = tmp_path / "sweep.csv"
        write_de_sweep(pts, path)
        assert read_de_sweep(path) == pts

    def test_sweep_csv_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(FormatError, match="header"):
            read_de_sweep(path)

    @pytest.mark.parametrize("mu, rate", [(float("nan"), 1.0), (float("inf"), 1.0),
                                          (1.0, float("nan")), (1.0, float("inf")),
                                          (-1.0, 1.0), (1.0, -1.0)])
    def test_point_rejects_non_finite_and_negative(self, mu, rate):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            DECalibrationPoint(mu, rate)

    def test_sweep_csv_non_finite(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("mu,rate_hz\n0.1,5\n1e999,1\n")
        with pytest.raises(FormatError, match=":3: mu must be finite"):
            read_de_sweep(path)


class TestEndToEndBaselines:
    """Small-scale versions of the physics invariants (the acceptance
    suite runs them at full statistics)."""

    def hbt_estimate(self, source_stream, seed, n_side=8, jitter=(170.0, 170.0),
                     rep_period=None):
        arm_a, arm_b = beamsplit(source_stream, SplitRatio(0.5), seed=seed)
        d1 = DetectorModel("d1", 0.8, 0.0, jitter[0], 0)
        d2 = DetectorModel("d2", 0.8, 0.0, jitter[1], 0)
        starts = detect(arm_a, d1, seed=seed + 1, channel=1)
        stops = detect(arm_b, d2, seed=seed + 2, channel=2)
        period = rep_period or 10_000
        cfg = HistogramConfig.symmetric((n_side // 2 + 0.5) * period, 32)
        hist = tac_histogram(starts, stops, cfg)
        return g2_zero(hist, period, n_side_peaks=n_side)

    def test_poisson_source_has_unit_g2(self):
        laser = emit_laser_pulse_train(PoissonLaserModel(1e8, 0.3), 400_000, seed=51)
        est = self.hbt_estimate(laser, seed=600)
        assert abs(est.g2_zero - 1.0) < 3 * est.sigma

    def test_perfect_single_photon_source_g2_zero(self):
        model = PulsedSourceModel(1e8, 370.0, (0.7, 0.3, 0.0))
        photons = emit_dot_pulse_train(model, 400_000, seed=52)
        est = self.hbt_estimate(photons, seed=700)
        assert est.g2_zero < 3 * est.sigma
