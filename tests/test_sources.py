import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_correlator import (
    PoissonLaserModel,
    PulsedSourceModel,
    pulse_period_ps,
    solve_photon_stats,
)
from photon_correlator.pipelines import (emit_clock_ticks, emit_dot_pulse_train,
                                         emit_laser_pulse_train)

from conftest import arm_blocks, sample_arms

REP_82MHZ = 82e6


def dot_model(dist, lifetime_ps=370.0, rep=REP_82MHZ):
    return PulsedSourceModel(rep, lifetime_ps, dist)


def delays_from_pulses(times, rep=REP_82MHZ):
    """Recover per-photon emission delays; the +0.5 absorbs the +/-0.5 ps
    rounding of nominal pulse times so a zero-delay photon cannot be
    assigned to the previous pulse."""
    period = pulse_period_ps(rep)
    pulse_idx = np.floor((times + 0.5) / period).astype(np.int64)
    return times - np.rint(pulse_idx * period)


class TestSolvePhotonStats:
    def test_zero_multiphoton(self):
        assert solve_photon_stats(0.0, 0.1) == (0.9, 0.1, 0.0)

    def test_paper_operating_point(self):
        p0, p1, p2 = solve_photon_stats(0.24, 0.1)
        assert p2 == pytest.approx(0.0012, abs=1e-15)
        assert p1 == pytest.approx(0.0976, abs=1e-15)
        assert p0 == pytest.approx(0.9012, abs=1e-15)

    def test_moments_reproduced_exactly(self):
        for g2, n in [(0.0, 0.2), (0.24, 0.1), (0.5, 0.5), (0.9, 1.0)]:
            p0, p1, p2 = solve_photon_stats(g2, n)
            mean = p1 + 2 * p2
            assert mean == pytest.approx(n, rel=1e-12)
            assert 2 * p2 / mean**2 == pytest.approx(g2, rel=1e-12, abs=1e-15)

    def test_infeasible_pair(self):
        with pytest.raises(ValueError, match="p2"):
            solve_photon_stats(1.0, 3.0)
        with pytest.raises(ValueError, match="p1"):
            solve_photon_stats(5.0, 0.5)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_photon_stats(-0.1, 0.1)
        with pytest.raises(ValueError):
            solve_photon_stats(0.2, 0.0)

    def test_monte_carlo_oracle(self):
        # empirical <n(n-1)>/<n>^2 over 10^7 draws must match the target
        # within 3 standard errors (estimated by chunking)
        p0, p1, p2 = solve_photon_stats(0.24, 0.1)
        rng = np.random.default_rng(42)
        u = rng.random(10_000_000)
        n = (u >= p0).astype(np.int64) + (u >= p0 + p1)
        chunks = n.reshape(10, -1)
        est = [np.mean(c * (c - 1)) / np.mean(c) ** 2 for c in chunks]
        overall = np.mean(n * (n - 1)) / np.mean(n) ** 2
        se = np.std(est, ddof=1) / math.sqrt(len(est))
        assert abs(overall - 0.24) < 3 * se


class TestDotTrain:
    def test_zero_pulses(self):
        s = emit_dot_pulse_train(dot_model((0.9, 0.1, 0.0)), 0, seed=1)
        assert len(s) == 0
        assert s.duration_ps == 0

    def test_degenerate_one_photon_zero_lifetime(self):
        model = dot_model((0.0, 1.0, 0.0), lifetime_ps=0.0)
        s = emit_dot_pulse_train(model, 1000, seed=1)
        expected = np.rint(np.arange(1000) * pulse_period_ps(REP_82MHZ)).astype(np.int64)
        assert np.array_equal(s.times, expected)

    def test_counts_and_mean_delay(self):
        model = dot_model((0.9012, 0.0976, 0.0012))
        s = emit_dot_pulse_train(model, 1_000_000, seed=7)
        n = len(s)
        assert abs(n - 100_000) < 4 * math.sqrt(100_000)
        delays = delays_from_pulses(s.times)
        assert np.mean(delays) == pytest.approx(370.0, rel=0.01)

    def test_delays_nonnegative_and_exponential(self):
        # discrete KS against Exponential(370) at the 1% level on 1e5 samples;
        # compare the empirical CDF at integer k with the CDF at k + 0.5 to
        # account for rounding to whole picoseconds
        model = dot_model((0.9, 0.1, 0.0))
        s = emit_dot_pulse_train(model, 1_000_000, seed=3)
        delays = np.asarray(delays_from_pulses(s.times), dtype=float)
        assert delays.min() >= 0
        n = delays.size
        assert n > 90_000
        ks = np.arange(0, delays.max() + 1)
        ecdf = np.searchsorted(np.sort(delays), ks, side="right") / n
        model_cdf = 1.0 - np.exp(-(ks + 0.5) / 370.0)
        stat = np.max(np.abs(ecdf - model_cdf))
        assert stat < 1.628 / math.sqrt(n)  # K_alpha at the 1% level

    def test_empirical_g2_matches_distribution(self):
        # with no emission delay every photon sits on its pulse time, so the
        # stream gives each pulse's photon number
        p0, p1, p2 = 0.9012, 0.0976, 0.0012
        s = emit_dot_pulse_train(dot_model((p0, p1, p2), lifetime_ps=0.0), 2_000_000,
                                 seed=11)
        pulse_idx = np.rint(s.times / pulse_period_ps(REP_82MHZ)).astype(np.int64)
        n = np.bincount(pulse_idx, minlength=2_000_000)
        est = np.mean(n * (n - 1)) / np.mean(n) ** 2
        chunks = n.reshape(10, -1)
        se = np.std(
            [np.mean(c * (c - 1)) / np.mean(c) ** 2 for c in chunks], ddof=1
        ) / math.sqrt(10)
        assert abs(est - 2 * p2 / (p1 + 2 * p2) ** 2) < 3 * se

    @pytest.mark.parametrize("lifetime_ps", [1e20, 1e300, 1.7e308])
    def test_delays_past_int64_are_dropped(self, lifetime_ps):
        # a pulse every 1e15 ps over 9e18 ps, near the int64 limit, where a
        # held delay added to a late pulse time would wrap; a photon is kept
        # when its rounded delay is below the time left after its pulse
        model = dot_model((0.0, 1.0, 0.0), lifetime_ps, rep=1e-3)
        n_pulses = 9000
        s = emit_dot_pulse_train(model, n_pulses, seed=4)
        room = s.duration_ps - np.arange(n_pulses) * 1e15
        expected = float(np.sum(-np.expm1(-(room - 0.5) / lifetime_ps)))
        assert abs(len(s) - expected) <= 5 * math.sqrt(expected) + 1e-9
        assert np.count_nonzero(s.times == 0) == 0  # expected count ~1e-20
        # the 82 MHz run of 1e5 pulses once kept 91,100 photons at -2^63
        duration, (times,) = sample_arms(dot_model((0.0, 1.0, 0.0), lifetime_ps),
                                         100_000, [1.0], seed=5)
        assert times.size == 0

    def test_seed_reproducibility(self):
        model = dot_model((0.9, 0.08, 0.02))
        a = emit_dot_pulse_train(model, 50_000, seed=123)
        b = emit_dot_pulse_train(model, 50_000, seed=123)
        c = emit_dot_pulse_train(model, 50_000, seed=124)
        assert a == b
        assert a != c

    def test_invalid_distribution(self):
        with pytest.raises(ValueError, match="sums to"):
            dot_model((0.5, 0.4, 0.2))
        with pytest.raises(ValueError, match="p1"):
            dot_model((0.5, -0.1, 0.6))


class TestLaserTrain:
    def test_mu_zero_is_empty(self):
        s = emit_laser_pulse_train(PoissonLaserModel(1e5, 0.0), 10_000, seed=1)
        assert len(s) == 0

    def test_poisson_total_count(self):
        s = emit_laser_pulse_train(PoissonLaserModel(1e5, 1.0), 1_000_000, seed=2)
        assert abs(len(s) - 1_000_000) < 4_000

    def test_poisson_vacuum_probability(self):
        mu = 0.5
        n_pulses = 1_000_000
        s = emit_laser_pulse_train(PoissonLaserModel(1e5, mu), n_pulses, seed=5)
        period = pulse_period_ps(1e5)
        pulse_idx = np.rint(s.times / period).astype(np.int64)
        occupied = np.unique(pulse_idx).size
        p_empty = 1 - occupied / n_pulses
        expected = math.exp(-mu)
        se = math.sqrt(expected * (1 - expected) / n_pulses)
        assert abs(p_empty - expected) < 3 * se

    def test_photons_share_pulse_timestamp(self):
        s = emit_laser_pulse_train(PoissonLaserModel(1e5, 3.0), 1000, seed=9)
        period = pulse_period_ps(1e5)
        nominal = np.rint(np.rint(s.times / period) * period).astype(np.int64)
        assert np.array_equal(s.times, nominal)


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(0.0, 20.0),
    n_pulses=st.integers(0, 5000),
    # integer periods (1e5, 1e9 Hz), the non-integer 82 MHz one, and
    # sub-picosecond periods where rounding collides pulses with the window end
    rep_rate_hz=st.one_of(st.sampled_from([1e5, 82e6, 1e9, 3e12]),
                          st.floats(1e3, 5e12)),
    seed=st.integers(0, 2**64 - 1),
)
def test_laser_tags_sit_on_pulse_times(mu, n_pulses, rep_rate_hz, seed):
    s = emit_laser_pulse_train(PoissonLaserModel(rep_rate_hz, mu), n_pulses, seed)
    period = pulse_period_ps(rep_rate_hz)
    assert s.duration_ps == np.rint(n_pulses * period)
    pulse_times = np.rint(np.arange(n_pulses) * period).astype(np.int64)
    assert np.all(np.isin(s.times, pulse_times))
    assert np.all((s.times >= 0) & (s.times < s.duration_ps))
    assert np.all(np.diff(s.times) >= 0)
    assert s.times.dtype == np.int64 and s.channel == 0


class TestSampleArms:
    def test_dot_fates_and_delays(self):
        n = 200_000
        duration, (a, b) = sample_arms(dot_model((0.0, 1.0, 0.0)), n, [0.3, 0.2],
                                       seed=5)
        assert duration == round(n * pulse_period_ps(REP_82MHZ))
        for arm, p in ((a, 0.3), (b, 0.2)):
            assert abs(arm.size - n * p) <= 5 * math.sqrt(n * p * (1 - p))
            delays = delays_from_pulses(np.sort(arm))
            assert delays.min() >= 0
            assert abs(delays.mean() - 370.0) <= 5 * 370.0 / math.sqrt(arm.size)

    def test_photons_past_the_run_are_dropped(self):
        # a lifetime of half the run pushes many delays past its end
        model = dot_model((0.0, 1.0, 0.0), lifetime_ps=6e6)
        duration, (times,) = sample_arms(model, 1000, [1.0], seed=6)
        assert 0 < times.size < 1000 and times.max() < duration

    def test_dot_gaps_that_would_wrap_stay_in_the_run(self):
        """9e15 pulses at 1 GHz, q ~ 1e-16: a gap reaches int64's top, so
        only capped gaps, few enough that no sum wraps, keep every time in
        the run.  About 0.9 tags are expected."""
        model = PulsedSourceModel(1e9, 370.0, (1 - 1e-13, 1e-13, 0.0))
        duration, (times,) = sample_arms(model, 9 * 10**15, [1e-3], seed=5)
        assert times.size < 10
        assert np.all((times >= 0) & (times < duration))

    @pytest.mark.parametrize(("dist", "probabilities"), [
        ((1.0, 0.0, 0.0), [0.5, 0.5]), ((0.2, 0.5, 0.3), [0.0, 0.0])])
    def test_dot_that_cannot_detect_yields_no_block(self, dist, probabilities):
        assert arm_blocks(dot_model(dist), 1000, probabilities, seed=1) == (
            round(1000 * pulse_period_ps(REP_82MHZ)), [[], []])

    # [0.7, 0.3] sums to 1 exactly, [0.33, 0.56, 0.11] to 1 + 2^-52
    @pytest.mark.parametrize("probabilities", [[0.7, 0.3], [0.33, 0.56, 0.11]])
    def test_dot_that_detects_every_pulse_gives_one_tag_a_pulse(self, probabilities):
        n = 5000
        _, arms = sample_arms(dot_model((0.0, 1.0, 0.0), lifetime_ps=0.0), n,
                              probabilities, seed=2)
        assert np.array_equal(np.sort(np.concatenate(arms)),
                              np.rint(np.arange(n) * pulse_period_ps(REP_82MHZ)))
        assert all(arm.size > 0 for arm in arms)

    def test_dot_of_no_pulses_gives_empty_arms(self):
        model = dot_model((0.2, 0.5, 0.3))
        assert arm_blocks(model, 0, [0.3, 0.5], seed=1) == (0, [[], []])

    def test_laser_detections_are_poisson_on_pulse_times(self):
        n, mu, p = 100_000, 2.0, 0.05
        duration, (times,) = sample_arms(PoissonLaserModel(REP_82MHZ, mu), n, [p],
                                         seed=7)
        assert abs(times.size - n * mu * p) <= 5 * math.sqrt(n * mu * p)
        pulse = np.rint(times / pulse_period_ps(REP_82MHZ))
        assert np.array_equal(times, np.rint(pulse * pulse_period_ps(REP_82MHZ)))
        assert times.min() >= 0 and times.max() < duration


def test_photon_dist_without_three_probabilities_rejected():
    with pytest.raises(ValueError, match=r"photon_dist must be \(p0, p1, p2\)"):
        PulsedSourceModel(82e6, 370.0, (0.5, 0.5))


def test_clock_ticks_offset_and_window():
    clock = emit_clock_ticks(1e9, 10, offset_ps=250)
    assert clock.times[0] == 250
    assert np.all(np.diff(clock.times) == 1000)
    assert len(clock) == 10  # 250 + 9*1000 < 10000
    shifted = emit_clock_ticks(1e9, 10, offset_ps=-1500)
    assert len(shifted) == 8  # first two ticks fall before t=0
