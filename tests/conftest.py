import tracemalloc

import numpy as np
import pytest

from photon_correlator import Histogram, TagStream, tac_histogram
from photon_correlator.sources import sample_blocks


def empty_stream(duration_ps=0):
    return TagStream(np.empty(0, np.int64), duration_ps, 0)


def random_stream(rng, n_tags, duration_ps, channel=0):
    """A sorted random stream for property tests."""
    times = np.sort(rng.integers(0, duration_ps, n_tags))
    return TagStream(times, duration_ps, channel)


def poisson_stream(rng, rate_hz, duration_ps, channel=0, t_min=0, t_max=None):
    """Homogeneous Poisson arrivals over [t_min, t_max) within the window."""
    t_max = duration_ps if t_max is None else t_max
    span_s = (t_max - t_min) * 1e-12
    n = rng.poisson(rate_hz * span_s)
    times = np.sort(rng.integers(t_min, t_max, n))
    return TagStream(times, duration_ps, channel)


def chunked_histogram(starts, stops, config, n_chunks):
    """`tac_histogram` of `n_chunks` consecutive slices of the starts, their
    counts and starts summed; equal to a single pass in ALL_STOPS mode."""
    bounds = np.linspace(0, len(starts), n_chunks + 1).astype(int)
    chunks = [tac_histogram(TagStream(starts.times[a:b], starts.duration_ps,
                                      starts.channel), stops, config)
              for a, b in zip(bounds[:-1], bounds[1:])]
    return Histogram(config, sum(h.counts for h in chunks),
                     sum(h.n_starts for h in chunks))


def arm_blocks(model, n_pulses, probabilities, seed):
    """(duration_ps, arms): the blocks of `sources.sample_blocks` gathered
    into one list per arm, each arm's taken before the next arm."""
    duration, arms = sample_blocks(model, n_pulses, probabilities, seed)
    return duration, [list(blocks) for _, blocks in arms]


def sample_arms(model, n_pulses, probabilities, seed):
    """`arm_blocks` with each arm's blocks concatenated into one array."""
    duration, arms = arm_blocks(model, n_pulses, probabilities, seed)
    return duration, [np.concatenate([np.empty(0, np.int64), *arm]) for arm in arms]


def finite_difference_jacobian(fn, x, rel_step=1e-6):
    """Central-difference Jacobian of fn (vector valued) at x; the independent
    cross-check for analytic Jacobians."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x), dtype=float)
    J = np.empty((f0.size, x.size))
    for i in range(x.size):
        h = rel_step * max(abs(x[i]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * h)
    return J


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def traced_peak(fn):
    """(the peak of the memory `fn` allocates, as tracemalloc sees it, fn())"""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
