"""One-shot references: the TCSPC path as it was before it worked in blocks.

`photon_correlator` draws and computes in fixed-size blocks so that each
stage holds only its output plus one block of temporaries.  These are the
same stages done in one pass over whole arrays, kept to check that the
blocked versions return the same arrays exactly: they draw from
generators seeded the same way, each read in the same order, with the
same numpy calls on whole arrays.

* `reference_sample_blocks` is `sources.sample_blocks` with each arm's
  blocks concatenated: returns (duration_ps, arms).  The dot draws its
  photon numbers, its fates and arm i's emission delays from the stage's
  PCG64 jumped 0, 1 and 2 + i times;
* `reference_record` is `detectors._record`: returns the recorded times.
  Its dead time is its own greedy scan, tag by tag, not the program's
  filter;
* `reference_clock_ticks` is `pipelines.emit_clock_ticks`: returns the
  tick times;
* `reference_reverse_start_stop` is `correlator.reverse_start_stop`:
  returns the counts.
"""

import math

import numpy as np

from photon_correlator import PoissonLaserModel


def _pulse_times(pulse_indices, rep_rate_hz):
    return np.rint(pulse_indices * (1e12 / rep_rate_hz)).astype(np.int64)


def _duration(n_pulses, rep_rate_hz):
    return int(np.rint(n_pulses * (1e12 / rep_rate_hz)))


def _emission_times(model, pulse_times, duration, rng):
    if model.lifetime_ps == 0:
        return pulse_times[pulse_times < duration]
    with np.errstate(over="ignore"):
        delays = -model.lifetime_ps * np.log1p(-rng.random(pulse_times.size))
    delays = np.rint(np.minimum(delays, duration)).astype(np.int64)
    kept = delays < duration - pulse_times
    np.add(delays, pulse_times, out=delays, where=kept)
    return delays[kept]


def _jumped(seed, jumps):
    return np.random.Generator(np.random.PCG64(int(seed)).jumped(jumps))


def reference_sample_blocks(model, n_pulses, probabilities, seed):
    duration = _duration(n_pulses, model.rep_rate_hz)
    if isinstance(model, PoissonLaserModel):
        rng = np.random.default_rng(int(seed))
        arms = [_pulse_times(rng.integers(0, n_pulses,
                                          rng.poisson(n_pulses * model.mu * p)),
                             model.rep_rate_hz)
                for p in probabilities]
        return duration, [times[times < duration] for times in arms]
    p0, p1, _ = model.photon_dist
    u = _jumped(seed, 0).random(n_pulses)
    counts = (u >= p0).astype(np.int8) + (u >= p0 + p1)
    emitting = np.flatnonzero(counts)
    photon_pulses = np.repeat(emitting, counts[emitting])
    fates = np.searchsorted(np.cumsum(probabilities),
                            _jumped(seed, 1).random(photon_pulses.size), side="right")
    arms = []
    for i in range(len(probabilities)):
        pulse_times = _pulse_times(photon_pulses[fates == i], model.rep_rate_hz)
        arms.append(_emission_times(model, pulse_times, duration, _jumped(seed, 2 + i)))
    return duration, arms


def reference_record(signal_times, model, duration_ps, rng):
    n_dark = rng.poisson(model.dark_rate_hz * duration_ps * 1e-12)
    dark = rng.integers(0, duration_ps, n_dark, dtype=np.int64)
    times = np.concatenate([signal_times, dark])
    if model.jitter_fwhm_ps > 0:
        times = np.rint(times + rng.normal(0.0, model.jitter_sigma_ps, times.size))
        times = np.clip(times, 0.0, 2.0**63, out=times).astype(np.uint64)
    times = np.clip(times, 0, duration_ps - 1).view(np.int64)
    times.sort()
    if model.dead_time_ps > 0:
        times = _dead_time(times, math.ceil(model.dead_time_ps))
    return times


def _dead_time(sorted_times, dead_time_ps):
    """Non-paralyzable dead time: a tag is kept when it is at least
    dead_time_ps after the last kept tag."""
    kept = []
    for t in sorted_times.tolist():  # Python ints: no difference wraps
        if not kept or t - kept[-1] >= dead_time_ps:
            kept.append(t)
    return np.array(kept, dtype=np.int64)


def reference_clock_ticks(rep_rate_hz, n_pulses, offset_ps=0):
    duration = _duration(n_pulses, rep_rate_hz)
    times = _pulse_times(np.arange(n_pulses, dtype=np.int64), rep_rate_hz)
    times = times + int(offset_ps)
    return times[(times >= 0) & (times < duration)]


def reference_reverse_start_stop(det_times, clock_times, config, remap_period_ps=None):
    idx = np.searchsorted(clock_times, det_times, side="left")
    valid = idx < clock_times.size
    delays = clock_times[idx[valid]] - det_times[valid]
    if remap_period_ps is not None:
        delays = int(remap_period_ps) - delays
    mask = (delays >= config.range_min_ps) & (delays < config.range_max_ps)
    idx = (delays[mask] - config.range_min_ps) // config.bin_width_ps
    return np.bincount(idx, minlength=config.n_bins).astype(np.int64)
