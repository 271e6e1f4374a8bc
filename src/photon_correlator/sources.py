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

`sample_blocks` is the one sampler.  It draws, for each detector arm,
only the photons that arm detects, without making the source stream: the
routing, attenuation and efficiency stages between source and detector
are independent per-photon Bernoulli trials, so they fold into one fate
per photon (Poisson colouring and thinning; Kingman, *Poisson Processes*,
1993).  It holds one block of draws: the dot's pulses, or the laser's
pulse indices, which become its detections in place, are drawn a block at
a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .correlator import _search
from .rng import _BLOCK, generator

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
    """Pulse k's time, round(k * 1e12 / rep_rate_hz), k as a float64, in place."""
    pulse_indices[...] = np.rint(pulse_indices * pulse_period_ps(rep_rate_hz))
    return pulse_indices


def _train_duration_ps(n_pulses, rep_rate_hz):
    length = n_pulses * pulse_period_ps(rep_rate_hz)
    if not 0 <= length < 2**63:  # in float, before a cast can wrap a pulse time
        raise ValueError(f"{n_pulses} pulses last {length} ps, outside [0, 2^63)")
    return int(np.rint(length))


def _emission_times(lifetime_ps, pulse_times, duration, rng):
    """Each photon's time: its pulse time, read from `pulse_times` (a block
    or two), plus an Exponential(lifetime_ps) delay in whole ps, by inverse
    CDF.  Photons at or past `duration` are dropped."""
    if lifetime_ps == 0:
        return pulse_times[pulse_times < duration]
    with np.errstate(over="ignore"):  # an infinite delay is held below
        delays = -lifetime_ps * np.log1p(-rng.random(pulse_times.size))
    # held at the run length, a float that casts exactly, so the cast
    # cannot overflow; a held delay fails the test below and is dropped
    delays = np.rint(delays.clip(max=duration, out=delays), out=delays).astype(np.int64)
    # against the time left in the run: no sum that can wrap is formed
    in_run = delays < duration - pulse_times
    return np.add(delays, pulse_times, out=delays, where=in_run)[in_run]


def sample_blocks(model, n_pulses, probabilities, seed):
    """Times of the photons each arm detects over `n_pulses` pulses of
    `model`, one block of `_BLOCK` draws at a time.

    A source photon is detected in arm i with probability probabilities[i]
    and lost otherwise (the probabilities sum to at most 1).  Returns
    (duration_ps, arms): `arms` yields, for each arm in turn, (count,
    blocks), `blocks` yielding int64 arrays of the times in [0, duration_ps)
    that arm detects, in no order, and `count` at least their number, or
    None if not drawn.  Take each arm's blocks before the next, as the laser
    draws its arms in turn.

    Pulse k fires at round(k * 1e12 / rep_rate_hz).  The laser's count of
    detections in arm i is Poisson(n_pulses * mu * p_i), each in an
    independent uniformly drawn pulse, so the cost is that of the
    detections.  The dot draws one photon number per pulse, from one
    uniform by inverse CDF, and one fate per photon, so the two photons of
    a pulse can be detected in both arms, as g2(0) needs; only detected
    photons get an emission delay.  One arm is drawn as it is taken; more
    are drawn at once, each held until taken.  Each kind of dot draw reads
    its own stream (`_stream`) in the order its values are used: the photon
    numbers stream 0, the fates stream 1 and arm i's delays stream 2 + i.
    No draw depends on how many another kind makes, so a fixed photon number
    (neither cut p0 nor p0 + p1 inside (0, 1)) draws no photon-number
    uniform, and when the first arm takes every photon no fate is drawn.
    """
    duration = _train_duration_ps(n_pulses, model.rep_rate_hz)
    if isinstance(model, PoissonLaserModel):
        rng = generator(seed)
        counts = (rng.poisson(n_pulses * model.mu * p) for p in probabilities)
        return duration, ((n, _laser_blocks(model, n_pulses, n, rng, duration))
                          for n in counts)
    return duration, _dot_arms(model, n_pulses, np.cumsum(probabilities), seed,
                               duration)


def _laser_blocks(model, n_pulses, count, rng, duration):
    """`count` detections, each in a pulse drawn uniformly, `_BLOCK` at a time."""
    for start in range(0, count, _BLOCK):
        pulses = rng.integers(0, n_pulses, min(_BLOCK, count - start))
        yield _emission_times(0, _pulse_times(pulses, model.rep_rate_hz), duration, rng)


def _dot_arms(model, n_pulses, cuts, seed, duration):
    blocks = _dot_blocks(model, n_pulses, cuts, seed, duration)
    if cuts.size == 1:
        yield None, (arm for arm, in blocks)
        return
    arms = list(zip(*blocks)) or [()] * cuts.size  # a run of no pulses has no block
    while arms:  # each arm's blocks are freed once its taker drops them
        yield None, arms.pop(0)


def _stream(seed, jumps):
    """The stage's generator with its PCG64 state jumped `jumps` times (0 is
    `generator(seed)`): streams of different jumps lie far apart in PCG64's
    2^128 period, so none reads another's numbers."""
    return np.random.Generator(generator(seed).bit_generator.jumped(jumps))


def _dot_blocks(model, n_pulses, cuts, seed, duration):
    """Each block's detections, one int64 array per arm."""
    numbers, fates, *delays = [_stream(seed, k) for k in range(2 + cuts.size)]
    p0, p1, _ = model.photon_dist
    # a pulse's photon number is the count of the cuts p0, p0 + p1 at or below
    # its uniform, which is in [0, 1): with no cut inside (0, 1) it is the
    # count of cuts at or below 0, whatever the uniform, and none is drawn
    fixed = None if 0 < p0 < 1 or 0 < p0 + p1 < 1 else (p0 <= 0) + (p0 + p1 <= 0)
    # a photon's fate is the number of cuts at or below its uniform; as the
    # uniforms are < 1, a first cut at 1 or more gives every photon to arm 0
    every = cuts.size > 0 and cuts[0] >= 1
    for start in range(0, n_pulses, _BLOCK):
        end = min(start + _BLOCK, n_pulses)
        counts = fixed
        if fixed is None:
            u = numbers.random(end - start)
            counts = (u >= p0).astype(np.int8) + (u >= p0 + p1)
        pulses = np.arange(start, end, dtype=np.int64).repeat(counts)
        photons = _pulse_times(pulses, model.rep_rate_hz)
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
        return np.add(times, self.offset_ps, out=times)

    @property
    def min_gap_ps(self):
        """A lower bound on the spacing of consecutive ticks, at least 0.

        Tick k is rint(y_k) + offset_ps with y_k = fl(k * P), P the float
        period.  For k < 2^53 the float k is exact, and y_k is within s/2
        of k * P, s the float spacing at the window's last y (y grows with
        k); rint moves it by at most 1/2 more.  So t_{k+1} - t_k >= P - 1 -
        s, and, as ticks are whole ps, >= floor(P) - 1 - ceil(s).  From 2^53
        on the index itself rounds and two ticks can coincide, so the bound
        is 0 there.  s is 1024 ps near 2^63 ps, where at 82 MHz (P = 12195
        ps) the spacing ranges over 11264-12288 ps: ceil(P) - 2 fails there.
        """
        last = self.first + self.size - 1
        if last >= 2**53:
            return 0
        period = pulse_period_ps(self.rep_rate_hz)
        spacing = float(np.spacing(np.float64(last) * period))
        return max(0, math.floor(period) - 1 - math.ceil(spacing))


def clock_lattice(rep_rate_hz, n_pulses, offset_ps=0):
    """The run's sync ticks, one per pump pulse `offset_ps` late (dropping those
    past either end), held as their lattice: nothing per tick."""
    duration = _train_duration_ps(n_pulses, rep_rate_hz)
    every = _Ticks(rep_rate_hz, int(offset_ps), 0, n_pulses)
    # the ticks are sorted, so those in [0, duration) are a window
    first, end = _search(every, np.array([0, duration])).tolist() if n_pulses else (0, 0)
    return _Ticks(rep_rate_hz, int(offset_ps), first, end - first)

