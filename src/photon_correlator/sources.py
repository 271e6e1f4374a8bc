"""Photon-emission event generators.

Two source types are modeled: a pulsed quantum-dot single-photon source
whose per-pulse photon number follows a truncated (p0, p1, p2)
distribution with exponentially distributed emission delays, and a
gain-switched calibration laser with Poissonian per-pulse statistics and
negligible pulse width.  Pump pulse width and pump jitter are neglected
(both are far below the detector jitters modeled downstream); two photons
in one pulse get independent exponential delays.

Emission delays are sampled by inverse CDF from uniform draws and rounded
to integer picoseconds as the last step.  Photons falling past the end of
the observation window (possible only for delays longer than the
remaining acquisition time) are dropped so streams always satisfy
0 <= t < duration_ps.

`sample_detected` is the one sampler.  It draws, for each detector arm,
only the photons that arm detects, without making the source stream: the
routing, attenuation and efficiency stages between source and detector
are independent per-photon Bernoulli trials, so they fold into one fate
per photon (Poisson colouring and thinning; Kingman, *Poisson Processes*,
1993).  `emit_dot_pulse_train` and `emit_laser_pulse_train` are that
sampler with one arm that detects every photon: the source stream.
`sample_blocks` is the same sampler one block of pulses at a time, and
holds one block of draws; `sample_detected` holds its output as well (8
bytes a detected photon).  `clock_lattice` is the sync clock held as its
lattice, with nothing per tick.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlator import _search
from .rng import _BLOCK, generator
from .timetags import TagStream

SOURCE_CHANNEL = 0
CLOCK_CHANNEL = 255

_PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PulsedSourceModel:
    """Pulsed single-photon source: rep rate, emission lifetime, photon statistics."""

    rep_rate_hz: float
    lifetime_ps: float
    photon_dist: tuple  # (p0, p1, p2)
    wavelength_nm: float = 902.0

    def __post_init__(self):
        if not 0 < self.rep_rate_hz < math.inf:
            raise ValueError("rep_rate_hz must be finite and > 0")
        if not 0 <= self.lifetime_ps < math.inf:
            raise ValueError("lifetime_ps must be finite and >= 0")
        p = self.photon_dist
        if len(p) != 3:
            raise ValueError("photon_dist must be (p0, p1, p2)")
        for i, pi in enumerate(p):
            if not 0.0 <= pi <= 1.0:
                raise ValueError(f"p{i}={pi} outside [0, 1]")
        if abs(sum(p) - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"photon_dist sums to {sum(p)!r}, expected 1")


@dataclass(frozen=True)
class PoissonLaserModel:
    """Gain-switched calibration laser: Poisson(mu) photons per pulse."""

    rep_rate_hz: float
    mu: float
    wavelength_nm: float = 1550.0

    def __post_init__(self):
        if not 0 < self.rep_rate_hz < math.inf:
            raise ValueError("rep_rate_hz must be finite and > 0")
        if not 0 <= self.mu < math.inf:
            raise ValueError("mu must be finite and >= 0")


def solve_photon_stats(g2_target, mean_n):
    """Invert (g2(0), <n>) into a (p0, p1, p2) photon-number distribution.

    For a {0,1,2}-photon source, g2(0) = <n(n-1)>/<n>^2 = 2*p2/(p1+2*p2)^2,
    so p2 = g2_target*mean_n^2/2, p1 = mean_n - 2*p2, p0 = 1 - p1 - p2.
    Raises ValueError naming the violated bound if the pair is infeasible.
    """
    if g2_target < 0:
        raise ValueError("g2_target must be >= 0")
    if mean_n <= 0:
        raise ValueError("mean_n must be > 0")
    p2 = g2_target * mean_n**2 / 2.0
    p1 = mean_n - 2.0 * p2
    p0 = 1.0 - p1 - p2
    for name, value in (("p2", p2), ("p1", p1), ("p0", p0)):
        if value < -_PROB_SUM_TOL or value > 1.0 + _PROB_SUM_TOL:
            raise ValueError(
                f"infeasible (g2={g2_target}, mean_n={mean_n}): {name}={value} "
                f"outside [0, 1]"
            )
    # clip tiny negative round-off so the distribution is exactly valid
    p0, p1, p2 = (min(max(v, 0.0), 1.0) for v in (p0, p1, p2))
    return (p0, p1, p2)


def pulse_period_ps(rep_rate_hz):
    """Pulse period in (fractional) picoseconds."""
    return 1e12 / rep_rate_hz


def _pulse_times(pulse_indices, rep_rate_hz):
    times = np.array(pulse_indices, dtype=np.float64)  # as `indices * period` casts
    times *= pulse_period_ps(rep_rate_hz)
    return np.rint(times, out=times).astype(np.int64)


def _train_duration_ps(n_pulses, rep_rate_hz):
    length = n_pulses * pulse_period_ps(rep_rate_hz)
    if not 0 <= length < 2**63:  # in float, before a cast can wrap a pulse time
        raise ValueError(f"{n_pulses} pulses last {length} ps, outside [0, 2^63)")
    return int(np.rint(length))


def _emission_times(lifetime_ps, times, duration, rng):
    """Each photon's time: its pulse time, read from `times`, plus an
    Exponential(lifetime_ps) delay in whole ps, by inverse CDF.  Photons at or
    past `duration` are dropped, the rest written over the front of `times`."""
    n_kept = 0
    for start in range(0, times.size, _BLOCK):
        pulse_times = times[start:start + _BLOCK]
        if lifetime_ps == 0:
            kept = pulse_times[pulse_times < duration]
        else:
            with np.errstate(over="ignore"):  # an infinite delay is held below
                delays = -lifetime_ps * np.log1p(-rng.random(pulse_times.size))
            # held at the run length, a float that casts exactly, so the cast
            # cannot overflow; a held delay fails the test below and is dropped
            np.minimum(delays, duration, out=delays)
            delays = np.rint(delays, out=delays).astype(np.int64)
            # against the time left in the run: no sum that can wrap is formed
            in_run = delays < duration - pulse_times
            kept = np.add(delays, pulse_times, out=delays, where=in_run)[in_run]
        # kept is a copy, and never longer than the times read so far
        times[n_kept:n_kept + kept.size] = kept
        n_kept += kept.size
    return times[:n_kept]


def emit_dot_pulse_train(model, n_pulses, seed):
    """Emit the quantum-dot photon stream for `n_pulses` pump pulses.

    Pulse k fires at round(k * 1e12 / rep_rate_hz); its photon count is
    drawn from photon_dist and each photon is delayed by an independent
    Exponential(lifetime_ps) draw.
    """
    return _every_photon(model, n_pulses, seed)


def emit_laser_pulse_train(model, n_pulses, seed):
    """Emit the Poissonian laser stream; all photons of a pulse share its timestamp."""
    return _every_photon(model, n_pulses, seed)


def _every_photon(model, n_pulses, seed):
    """The source stream: `sample_detected` with every photon detected."""
    duration, (times,) = sample_detected(model, n_pulses, [1.0], seed)
    times.sort()
    return TagStream(times, duration, SOURCE_CHANNEL)


def sample_detected(model, n_pulses, probabilities, seed):
    """Times of the photons each arm detects over `n_pulses` pulses of `model`.

    A source photon is detected in arm i with probability probabilities[i]
    and lost otherwise (the probabilities sum to at most 1).  Returns
    (duration_ps, arms): one int64 array per arm, in no particular order,
    of times in [0, duration_ps).  With one arm of probability 1 that arm
    holds every photon of the source; the emit_*_pulse_train functions
    return it sorted.  The arrays are the blocks of `sample_blocks`
    concatenated, each arm's filled into one array of its counted size.
    """
    duration, sizes, blocks = sample_blocks(model, n_pulses, probabilities, seed)
    arms = [np.empty(size, dtype=np.int64) for size in sizes]
    ends = [0] * len(arms)
    for block in blocks:
        for i, times in enumerate(block):
            arms[i][ends[i]:ends[i] + times.size] = times
            ends[i] += times.size
    return duration, [arm[:end] for arm, end in zip(arms, ends)]


def sample_blocks(model, n_pulses, probabilities, seed):
    """`sample_detected` one block of `_BLOCK` pulses at a time.

    Returns (duration_ps, sizes, blocks).  `blocks` yields, for each block
    of pulses in turn, one int64 array per arm of the times that arm
    detects from those pulses; the laser's detections come as one block.
    sizes[i] bounds arm i's total: it counts the photons before those past
    the run are dropped.

    Pulse k fires at round(k * 1e12 / rep_rate_hz).  The laser's
    detections in arm i are Poisson(n_pulses * mu * p_i) in total, each in
    an independent uniformly drawn pulse, so the cost is that of the
    detections.  The dot draws one photon number per pulse, from one
    uniform by inverse CDF, and one fate per photon, so the two photons of
    a pulse can be detected in both arms, as g2(0) needs; only detected
    photons get an emission delay.  Its uniforms sit in the PCG64 stream
    as one pass over the run would draw them: the photon numbers from 0,
    the fates from n_pulses, and arm i's delays from n_pulses + n_photons +
    sum_{j<i} n_j, with n_j the photons fated to arm j.  A counting pass
    draws and drops the photon-number and fate uniforms to find those
    counts, and each kind of draw then reads from its own generator,
    advanced to its position.  When the first arm takes every photon no
    fate is drawn.  The dot holds one block of draws.
    """
    duration = _train_duration_ps(n_pulses, model.rep_rate_hz)
    if isinstance(model, PoissonLaserModel):
        rng = generator(seed)
        # one draw per arm, as `integers` split into blocks draws other numbers
        arms = [_emission_times(0, _pulse_times(rng.integers(0, n_pulses, rng.poisson(
                    n_pulses * model.mu * p)), model.rep_rate_hz), duration, rng)
                for p in probabilities]
        return duration, [arm.size for arm in arms], iter([arms])
    cuts = np.cumsum(probabilities)
    n_photons, sizes = _dot_counts(model, n_pulses, cuts, seed)
    return duration, sizes, _dot_blocks(model, n_pulses, cuts, seed, duration,
                                        n_photons, sizes)


def _every_to_first_arm(cuts):
    # a photon's fate is the number of cuts at or below its uniform; as the
    # uniforms are < 1, a first cut at 1 or more gives every photon to arm 0
    return cuts.size > 0 and cuts[0] >= 1


def _dot_counts(model, n_pulses, cuts, seed):
    """(n_photons, sizes): the dot's photons over the run and those fated to
    each arm, from the photon-number and fate uniforms drawn and dropped."""
    p0, p1, _ = model.photon_dist
    rng = generator(seed)
    n_photons = 0
    for start in range(0, n_pulses, _BLOCK):
        u = rng.random(min(_BLOCK, n_pulses - start))
        n_photons += np.count_nonzero(u >= p0) + np.count_nonzero(u >= p0 + p1)
    if _every_to_first_arm(cuts):
        return n_photons, [n_photons] + [0] * (cuts.size - 1)
    per_fate = np.zeros(cuts.size + 1, dtype=np.int64)
    for start in range(0, n_photons, _BLOCK):
        fates = np.searchsorted(cuts, rng.random(min(_BLOCK, n_photons - start)), "right")
        per_fate += np.bincount(fates, minlength=cuts.size + 1)
    return n_photons, per_fate[:-1].tolist()


def _dot_blocks(model, n_pulses, cuts, seed, duration, n_photons, sizes):
    """Each block's detections, one int64 array per arm, each kind of draw
    from its own generator at its position in the stream."""
    def at(position):
        rng = generator(seed)
        rng.bit_generator.advance(int(position))  # `random` takes one output a number
        return rng
    numbers, fates = at(0), at(n_pulses)
    delays = [at(n_pulses + n_photons + before)
              for before in np.cumsum([0, *sizes])[:-1].tolist()]
    p0, p1, _ = model.photon_dist
    every = _every_to_first_arm(cuts)
    for start in range(0, n_pulses, _BLOCK):
        u = numbers.random(min(_BLOCK, n_pulses - start))
        counts = (u >= p0).astype(np.int8) + (u >= p0 + p1)
        # offsets into the block, in the smallest type, which `repeat` copies fastest
        emitting = np.flatnonzero(counts).astype(np.min_scalar_type(_BLOCK - 1))
        photons = _pulse_times(np.add(np.repeat(emitting, counts[emitting]), start,
                                      dtype=np.int64), model.rep_rate_hz)
        if every:
            arms = [photons] + [photons[:0]] * (len(delays) - 1)
        else:
            fate = np.searchsorted(cuts, fates.random(photons.size), "right")
            arms = [photons[fate == i] for i in range(len(delays))]
        yield [_emission_times(model.lifetime_ps, arm, duration, rng)
               for arm, rng in zip(arms, delays)]


@dataclass(frozen=True)
class _Ticks:
    """Clock ticks `_pulse_times(first + i) + offset_ps` for i in [0, size):
    read by index like a sorted int64 array, but each computed where read."""

    rep_rate_hz: float
    offset_ps: int
    first: int
    size: int

    def __getitem__(self, i):
        times = _pulse_times(np.add(i, self.first, dtype=np.int64), self.rep_rate_hz)
        times += self.offset_ps
        return times


def clock_lattice(rep_rate_hz, n_pulses, offset_ps=0):
    """The ticks of `emit_clock_ticks(rep_rate_hz, n_pulses, offset_ps)`,
    held as their lattice: nothing per tick."""
    duration = _train_duration_ps(n_pulses, rep_rate_hz)
    every = _Ticks(rep_rate_hz, int(offset_ps), 0, n_pulses)
    # the ticks are sorted, so those in [0, duration) are a window
    first, end = _search(every, np.array([0, duration])).tolist() if n_pulses else (0, 0)
    return _Ticks(rep_rate_hz, int(offset_ps), first, end - first)


def emit_clock_ticks(rep_rate_hz, n_pulses, offset_ps=0):
    """The sync photodiode: one jitterless tick per pump pulse, plus a fixed delay.

    Ticks shifted past the acquisition window are dropped; a negative
    offset may likewise drop leading ticks.
    """
    ticks = clock_lattice(rep_rate_hz, n_pulses, offset_ps)
    times = np.empty(ticks.size, dtype=np.int64)
    for start in range(0, ticks.size, _BLOCK):
        times[start:start + _BLOCK] = ticks[np.arange(start, min(start + _BLOCK, ticks.size))]
    return TagStream(times, _train_duration_ps(n_pulses, rep_rate_hz), CLOCK_CHANNEL)
