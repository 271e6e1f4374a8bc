import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_correlator import (
    BiasCurvePoint,
    DetectorModel,
    TagStream,
    bias_lookup,
    fwhm_to_sigma,
    read_bias_curve,
    sigma_to_fwhm,
    write_bias_curve,
)
from photon_correlator.pipelines import detect

from conftest import empty_stream, poisson_stream, random_stream


def ideal(**kw):
    base = dict(efficiency=1.0, dark_rate_hz=0.0, jitter_fwhm_ps=0.0, dead_time_ps=0)
    base.update(kw)
    return DetectorModel(**base)


def test_fwhm_sigma_conversion():
    assert fwhm_to_sigma(170.0) == pytest.approx(72.19, abs=0.01)
    assert sigma_to_fwhm(100.0) == pytest.approx(235.48, abs=0.01)
    assert fwhm_to_sigma(sigma_to_fwhm(3.7)) == pytest.approx(3.7, rel=1e-12)


def test_model_validation():
    with pytest.raises(ValueError, match="efficiency"):
        ideal(efficiency=1.5)
    with pytest.raises(ValueError, match="dark_rate"):
        ideal(dark_rate_hz=-1)
    for dead_time in (-5, 2**63, 1e30, math.nan):
        with pytest.raises(ValueError, match="dead_time"):
            ideal(dead_time_ps=dead_time)


def test_detect_blind_detector_is_silent(rng):
    photons = random_stream(rng, 1000, 10**9)
    out = detect(photons, ideal(efficiency=0.0), seed=1)
    assert len(out) == 0


def test_detect_requires_duration():
    with pytest.raises(ValueError, match="duration"):
        detect(empty_stream(0), ideal(), seed=1)


def test_dead_time_forced_example():
    photons = TagStream([0, 5_000, 12_000], 10**6, 0)
    out = detect(photons, ideal(dead_time_ps=10_000), seed=1)
    assert list(out.times) == [0, 12_000]


@settings(max_examples=200, deadline=None)
@given(times=st.lists(st.integers(0, 999), max_size=60),
       dead_time=st.integers(1, 50))
def test_dead_time_matches_greedy_reference(times, dead_time):
    times = sorted(times)
    kept = []  # accept a tag when the last accepted one is a dead time back
    for t in times:
        if not kept or t - kept[-1] >= dead_time:
            kept.append(t)
    photons = TagStream(times, 1000, 0)
    out = detect(photons, ideal(dead_time_ps=dead_time), seed=1)
    assert out.times.tolist() == kept


def test_fractional_dead_time_is_the_next_whole_picosecond():
    """Tags are whole picoseconds, so a gap reaches a 0.5 ps dead time when it
    reaches 1 ps, and a 1.5 ps one when it reaches 2.  A dead time below 1 ps
    once sent the filter into an endless loop: the run is a subprocess, so
    such a relapse fails on the timeout instead of hanging the suite."""
    code = ("from photon_correlator import DetectorModel, TagStream\n"
            "from photon_correlator.pipelines import detect\n"
            "for dead_time in (0.5, 1.5):\n"
            "    out = detect(TagStream([0, 1, 1, 2, 3, 5], 10, 0),\n"
            "                 DetectorModel(1.0, 0.0, 0.0, dead_time), seed=1)\n"
            "    print(out.times.tolist())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 1, 2, 3, 5]", "[0, 2, 5]"]


@pytest.mark.parametrize("rate_tau", [0.1, 1.0])
def test_dead_time_rate_matches_muller(rng, rate_tau):
    # non-paralyzable dead time on Poisson input R: the observed rate is
    # R/(1+R*tau) (J. W. Mueller, Nucl. Instrum. Methods 112, 47, 1973), and
    # the count variance of the renewal process is N/(1+R*tau)^2
    rate, duration = 1e6, 2 * 10**11  # 1 MHz over 0.2 s
    photons = poisson_stream(rng, rate, duration)
    out = detect(photons, ideal(dead_time_ps=int(rate_tau / rate * 1e12)), seed=5)
    expected = rate * duration * 1e-12 / (1 + rate_tau)
    assert abs(len(out) - expected) < 5 * math.sqrt(expected) / (1 + rate_tau)


def greedy_dead_time(sorted_times, dead_time_ps):
    """Non-paralyzable dead time in one plain-Python pass over every tag."""
    kept = []
    for t in sorted_times:
        if not kept or t - kept[-1] >= dead_time_ps:
            kept.append(t)
    return kept


@pytest.mark.parametrize("rate_tau", [0.08, 1.0, 5.0])
def test_dead_time_matches_greedy_scan_at_scale(rate_tau):
    # 300k tags, 1 % of them repeated exactly; R*tau = 0.08 is the APD of the
    # hardware-TAC HBT
    rng = np.random.default_rng(int(rate_tau * 100))
    n, dead_time = 300_000, 10_000
    duration = int(n * dead_time / rate_tau)
    times = np.sort(rng.integers(0, duration, n))
    times = np.sort(np.concatenate([times, rng.choice(times, n // 100)]))
    photons = TagStream(times, duration, 0)
    out = detect(photons, ideal(dead_time_ps=dead_time), seed=1)
    assert out.times.tolist() == greedy_dead_time(times.tolist(), dead_time)


@pytest.mark.parametrize("dead_time", [1, 7, 2**62, 2**63 - 2])
def test_dead_time_near_the_int64_maximum_matches_greedy_scan(dead_time):
    # the filter carries "a late tag can be accepted from t + dead time" from
    # block to block, held at 2^63 - 1 where the sum would wrap; the tags
    # crowd the top of the window, in runs across a block edge
    rng = np.random.default_rng(dead_time % 1000)
    top = 2**63 - 1
    times = np.sort(np.concatenate([
        rng.integers(0, top, 50), top - 1 - rng.integers(0, 60, 20_000),
        top - 1 - rng.integers(0, min(2 * dead_time, top), 50)]))
    photons = TagStream(times, top, 0)
    out = detect(photons, ideal(dead_time_ps=dead_time), seed=1)
    assert out.times.tolist() == greedy_dead_time(times.tolist(), dead_time)


def test_dark_counts_poisson():
    # photon-free 1 s run at 100 Hz dark rate: 100 +/- 30 tags
    empty = empty_stream(10**12)
    out = detect(empty, ideal(efficiency=0.0, dark_rate_hz=100.0), seed=3)
    assert abs(len(out) - 100) <= 30


def test_dead_time_invariant_random_runs():
    rng = np.random.default_rng(17)
    for i in range(100):
        n = int(rng.integers(0, 400))
        duration = int(rng.integers(10_000, 10**7))
        photons = random_stream(rng, n, duration)
        model = ideal(
            efficiency=float(rng.uniform(0.2, 1.0)),
            dark_rate_hz=float(rng.uniform(0, 1e6)),
            jitter_fwhm_ps=float(rng.uniform(0, 500)),
            dead_time_ps=int(rng.integers(1, 20_000)),
        )
        out = detect(photons, model, seed=int(rng.integers(2**32)))
        if len(out) > 1:
            assert np.diff(out.times).min() >= model.dead_time_ps


def test_count_rate_sanity(rng):
    # eta*r + D within 4 sigma when r*dead_time << 1
    duration = 10**12  # 1 s
    rate = 50_000.0
    photons = poisson_stream(rng, rate, duration)
    model = ideal(efficiency=0.4, dark_rate_hz=1000.0, jitter_fwhm_ps=200.0,
                  dead_time_ps=100)
    out = detect(photons, model, seed=99)
    expected = model.efficiency * rate + model.dark_rate_hz
    assert abs(len(out) - expected) < 4 * math.sqrt(expected)


def test_jitter_calibration_fwhm():
    # sparse, widely spaced photons so output order matches input order
    n = 100_000
    spacing = 1_000_000
    times = np.arange(n, dtype=np.int64) * spacing + 500_000
    photons = TagStream(times, int(n * spacing + 10**6), 0)
    model = ideal(jitter_fwhm_ps=170.0)
    out = detect(photons, model, seed=5)
    assert len(out) == n
    deltas = out.times - times
    measured = sigma_to_fwhm(float(np.std(deltas)))
    assert measured == pytest.approx(170.0, rel=0.02)


def test_darks_are_jittered_and_clamped():
    # all mass at the window edge: jitter would push tags outside, the
    # clamp keeps every tag inside [0, duration)
    empty = empty_stream(1000)
    out = detect(empty, ideal(efficiency=0.0, dark_rate_hz=1e13,
                              jitter_fwhm_ps=5000.0), seed=11)
    assert len(out) > 0
    assert out.times.min() >= 0
    assert out.times.max() < 1000


@pytest.mark.parametrize("jitter_fwhm_ps", [1e25, 1e300])
@pytest.mark.parametrize("duration", [10**9, 2**63 - 1])
def test_huge_jitter_splits_tags_between_the_edges(duration, jitter_fwhm_ps):
    # each tag is pushed far past one edge or the other, with probability
    # 1/2, and recorded at that edge
    photons = TagStream(np.full(1000, duration // 2), duration, 0)
    out = detect(photons, ideal(jitter_fwhm_ps=jitter_fwhm_ps), seed=8)
    at_start = np.count_nonzero(out.times == 0)
    assert at_start + np.count_nonzero(out.times == duration - 1) == 1000
    assert abs(at_start - 500) <= 5 * math.sqrt(1000 * 0.5 * 0.5)


def test_detect_deterministic(rng):
    photons = random_stream(rng, 10_000, 10**9)
    model = ideal(efficiency=0.5, dark_rate_hz=5000.0, jitter_fwhm_ps=300.0,
                  dead_time_ps=2000)
    a = detect(photons, model, seed=21)
    b = detect(photons, model, seed=21)
    c = detect(photons, model, seed=22)
    assert a == b
    assert a != c


class TestBiasCurve:
    CURVE = [
        BiasCurvePoint(0.6, 0.001, 1.0),
        BiasCurvePoint(0.8, 0.01, 100.0),
        BiasCurvePoint(0.95, 0.03, 1000.0),
    ]

    def test_exact_point(self):
        assert bias_lookup(self.CURVE, 0.8) == (0.01, 100.0)

    def test_midpoint_linear_and_log(self):
        eff, dark = bias_lookup(self.CURVE, 0.7)
        assert eff == pytest.approx(0.0055, rel=1e-12)
        assert dark == pytest.approx(10.0, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside tabulated range"):
            bias_lookup(self.CURVE, 0.5)
        with pytest.raises(ValueError, match="outside tabulated range"):
            bias_lookup(self.CURVE, 0.96)

    def test_unsorted_curve_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            bias_lookup(list(reversed(self.CURVE)), 0.8)

    def test_zero_dark_rejected(self):
        curve = [BiasCurvePoint(0.6, 0.001, 0.0), BiasCurvePoint(0.8, 0.01, 10.0)]
        with pytest.raises(ValueError, match="dark_rate_hz > 0"):
            bias_lookup(curve, 0.7)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "bias.csv"
        write_bias_curve(self.CURVE, path)
        back = read_bias_curve(path)
        assert back == self.CURVE
        # re-emitting yields identical bytes
        path2 = tmp_path / "bias2.csv"
        write_bias_curve(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0.5,0.1,10\n")
        from photon_correlator import FormatError
        with pytest.raises(FormatError, match="header"):
            read_bias_curve(path)

    @pytest.mark.parametrize("bias", [0.0, 1.0, float("nan")])
    def test_bias_fraction_outside_the_open_unit_interval_rejected(self, bias):
        with pytest.raises(ValueError, match="bias_fraction .* outside \\(0, 1\\)"):
            BiasCurvePoint(bias, 0.1, 10.0)

    @pytest.mark.parametrize("efficiency", [-0.1, 1.1, float("nan")])
    def test_efficiency_outside_the_unit_interval_rejected(self, efficiency):
        with pytest.raises(ValueError, match="efficiency .* outside \\[0, 1\\]"):
            BiasCurvePoint(0.7, efficiency, 10.0)

    def test_lookup_on_an_empty_curve_rejected(self):
        with pytest.raises(ValueError, match="bias curve is empty"):
            bias_lookup([], 0.5)

    @pytest.mark.parametrize("dark", [float("nan"), float("inf"), -1.0])
    def test_non_finite_dark_rate_rejected(self, dark):
        with pytest.raises(ValueError, match="dark_rate_hz must be finite"):
            BiasCurvePoint(0.7, 0.1, dark)

    def test_csv_non_finite_dark_rate(self, tmp_path):
        path = tmp_path / "bias.csv"
        path.write_text("bias_fraction,efficiency,dark_rate_hz\n0.7,0.1,nan\n")
        from photon_correlator import FormatError
        with pytest.raises(FormatError, match=":2: dark_rate_hz"):
            read_bias_curve(path)
