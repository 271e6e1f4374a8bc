"""Reference emitters and optics: every photon of a source, drawn pulse
by pulse, then routed and thinned photon by photon.

These are the photon path that the gates in test_pipelines.py compare
the program's sampler (`photon_correlator.sources.sample_blocks`)
against.  They share no code with it: they read only the fields of the
source models, and draw each pulse's photon number and each photon's
delay from numpy's own distributions, so a fault in the program's draws
shows as a difference between the two.

Each emitter returns (times, duration_ps): the sorted photon times in
[0, duration_ps), with pulse k at round(k * 1e12 / rep_rate_hz) and the
run round(n_pulses * 1e12 / rep_rate_hz) long.  `reference_route` (the
beamsplitter) and `reference_thin` (an attenuator, or a detector's
efficiency) give each photon one Bernoulli trial of its own and keep the
order of the times.
"""

import numpy as np


def _pulse_times(model, counts):
    """The pulse time of every photon, for `counts` photons in each pulse."""
    photon_pulse = np.repeat(np.arange(counts.size), counts)
    return np.rint(photon_pulse * (1e12 / model.rep_rate_hz)).astype(np.int64)


def _in_run(times, model, n_pulses):
    duration = int(np.rint(n_pulses * (1e12 / model.rep_rate_hz)))
    return times[times < duration], duration


def reference_laser_times(model, n_pulses, seed):
    """Poisson(mu) photons in each pulse, all at the pulse time."""
    rng = np.random.default_rng(seed)
    return _in_run(_pulse_times(model, rng.poisson(model.mu, n_pulses)), model, n_pulses)


def reference_dot_times(model, n_pulses, seed):
    """0, 1 or 2 photons in each pulse with the probabilities of photon_dist,
    each delayed from the pulse by Exponential(lifetime_ps) rounded to whole
    picoseconds."""
    rng = np.random.default_rng(seed)
    times = _pulse_times(model, rng.choice(3, n_pulses, p=model.photon_dist))
    times += np.rint(rng.exponential(model.lifetime_ps, times.size)).astype(np.int64)
    times.sort()
    return _in_run(times, model, n_pulses)


def reference_route(times, transmission, rng):
    """(arm A, arm B): each photon leaves by arm B with probability
    `transmission`, by arm A otherwise."""
    to_b = rng.random(times.size) < transmission
    return times[~to_b], times[to_b]


def reference_thin(times, probability, rng):
    """The photons that each pass a Bernoulli(probability) trial."""
    return times[rng.random(times.size) < probability]
