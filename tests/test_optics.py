import math

import numpy as np
import pytest
from scipy.stats import chisquare

from photon_correlator import (
    PoissonLaserModel,
    SplitRatio,
    TagStream,
    pulse_period_ps,
)
from photon_correlator.pipelines import attenuate, beamsplit, emit_laser_pulse_train

from conftest import random_stream


def test_split_ratio_bounds():
    SplitRatio(0.0)
    SplitRatio(1.0)
    with pytest.raises(ValueError):
        SplitRatio(1.5)
    with pytest.raises(ValueError):
        SplitRatio(-0.1)


def test_beamsplit_extremes(rng):
    s = random_stream(rng, 1000, 10**6)
    arm_a, arm_b = beamsplit(s, SplitRatio(0.0), seed=1)
    assert arm_a == s and len(arm_b) == 0
    arm_a, arm_b = beamsplit(s, SplitRatio(1.0), seed=1)
    assert arm_b == s and len(arm_a) == 0


def test_beamsplit_binomial_counts(rng):
    s = random_stream(rng, 1_000_000, 10**12)
    _, arm_b = beamsplit(s, SplitRatio(0.5), seed=42)
    assert abs(len(arm_b) - 500_000) < 3_000


def test_beamsplit_conserves_multiset(rng):
    s = random_stream(rng, 20_000, 10**9)
    for ratio in (0.1, 0.5, 0.9):
        arm_a, arm_b = beamsplit(s, SplitRatio(ratio), seed=7)
        assert len(arm_a) + len(arm_b) == len(s)
        times = np.sort(np.concatenate([arm_a.times, arm_b.times]))
        assert TagStream(times, s.duration_ps, s.channel) == s


def test_attenuate_extremes(rng):
    s = random_stream(rng, 1000, 10**6)
    assert attenuate(s, 1.0, seed=1) == s
    assert len(attenuate(s, 0.0, seed=1)) == 0
    with pytest.raises(ValueError):
        attenuate(s, 1.2, seed=1)


def test_attenuate_never_increases_count(rng):
    s = random_stream(rng, 5000, 10**7)
    for t in (0.2, 0.7):
        assert len(attenuate(s, t, seed=3)) <= len(s)


def test_poisson_thinning_theorem():
    # Poisson(2) thinned by 0.25 must be indistinguishable from Poisson(0.5)
    # per pulse (chi-square on the per-pulse count distribution at 1%)
    n_pulses = 1_000_000
    laser = emit_laser_pulse_train(PoissonLaserModel(1e5, 2.0), n_pulses, seed=8)
    thinned = attenuate(laser, 0.25, seed=9)
    period = pulse_period_ps(1e5)
    pulse_idx = np.rint(thinned.times / period).astype(np.int64)
    per_pulse = np.bincount(pulse_idx, minlength=n_pulses)
    max_n = per_pulse.max()
    observed = np.bincount(per_pulse, minlength=max_n + 1).astype(float)
    mu = 0.5
    expected = np.array(
        [n_pulses * math.exp(-mu) * mu**k / math.factorial(k) for k in range(max_n + 1)]
    )
    # pool the tail so every expected bin is >= 5
    while expected[-1] < 5 and expected.size > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]
    expected *= observed.sum() / expected.sum()
    stat, p_value = chisquare(observed, expected)
    assert p_value > 0.01


def test_attenuate_composition_distribution_equal(rng):
    s = random_stream(rng, 1_000_000, 10**12)
    two_step = attenuate(attenuate(s, 0.6, seed=1), 0.5, seed=2)
    one_step = attenuate(s, 0.3, seed=3)
    n = len(s)
    p = 0.3
    sigma = math.sqrt(2 * n * p * (1 - p))
    assert abs(len(two_step) - len(one_step)) < 4 * sigma


def test_beamsplit_deterministic(rng):
    s = random_stream(rng, 10_000, 10**8)
    a1, b1 = beamsplit(s, SplitRatio(0.4), seed=77)
    a2, b2 = beamsplit(s, SplitRatio(0.4), seed=77)
    assert a1 == a2 and b1 == b2
