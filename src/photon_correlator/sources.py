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
1993).  It holds one block of draws: the dot's detecting pulses, or the
laser's pulse indices, which become its detections in place, are drawn a
block at a time, each arm's as the arm is taken.
"""

import math
from dataclasses import dataclass

import numpy as np

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
        if not 0 < self.wavelength_nm < math.inf:
            raise ValueError("wavelength_nm must be finite and > 0")
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
        if not 0 < self.wavelength_nm < math.inf:
            raise ValueError("wavelength_nm must be finite and > 0")
        if not 0 <= self.mu < math.inf:
            raise ValueError("mu must be finite and >= 0")


def solve_photon_stats(g2_target, mean_n):
    """Invert (g2(0), <n>) into a (p0, p1, p2) photon-number distribution.

    For a {0,1,2}-photon source, g2(0) = <n(n-1)>/<n>^2 = 2*p2/(p1+2*p2)^2,
    so p2 = g2_target*mean_n^2/2, p1 = mean_n - 2*p2, p0 = 1 - p1 - p2.
    Raises ValueError naming the violated bound if the pair is infeasible.
    """
    if not g2_target >= 0:  # NaN-safe: NaN fails every comparison
        raise ValueError("g2_target must be >= 0")
    if not mean_n > 0:
        raise ValueError("mean_n must be > 0")
    try:
        p2 = g2_target * mean_n**2 / 2.0
    except OverflowError:  # mean_n past ~1.3e154, where p2 is out of bounds anyway
        p2 = math.inf
    p1 = mean_n - 2.0 * p2
    p0 = 1.0 - p1 - p2
    for name, value in (("p2", p2), ("p1", p1), ("p0", p0)):
        if not -_PROB_SUM_TOL <= value <= 1.0 + _PROB_SUM_TOL:
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
    None if not drawn.  Each arm is drawn as it is taken; take each arm's
    blocks before the next, as the laser draws its arms in turn.

    Pulse k fires at round(k * 1e12 / rep_rate_hz).  The laser's count of
    detections in arm i is Poisson(n_pulses * mu * p_i), each in an
    independent uniformly drawn pulse, so the cost is that of the
    detections.  The dot draws only the pulses that give some arm a
    detection, as Geometric(q) gaps (Devroye, *Non-Uniform Random Variate
    Generation*, 1986, ch. X), and one outcome each (`_dot_blocks`), so the
    two photons of a pulse can be detected in both arms, as g2(0) needs;
    each detected photon gets an emission delay.  Each kind of dot draw
    reads its own stream (`_stream`) in the order its values are used: the
    gaps stream 0, the outcomes stream 1 and arm i's delays stream 2 + i.
    Every arm reads the same gaps and outcomes, so no arm waits for another.
    When q rounds to 1 or more every pulse detects and no gap is drawn, and
    with one possible outcome none is drawn.
    """
    duration = _train_duration_ps(n_pulses, model.rep_rate_hz)
    if isinstance(model, PoissonLaserModel):
        rng = generator(seed)
        counts = (rng.poisson(n_pulses * model.mu * p) for p in probabilities)
        return duration, ((n, _laser_blocks(model, n_pulses, n, rng, duration))
                          for n in counts)
    return duration, ((None, _dot_blocks(model, n_pulses, probabilities, arm, seed, duration))
                      for arm in range(len(probabilities)))


def _laser_blocks(model, n_pulses, count, rng, duration):
    """`count` detections, each in a pulse drawn uniformly, `_BLOCK` at a time."""
    for start in range(0, count, _BLOCK):
        pulses = rng.integers(0, n_pulses, min(_BLOCK, count - start))
        yield _emission_times(0, _pulse_times(pulses, model.rep_rate_hz), duration, rng)


def _stream(seed, jumps):
    """The stage's generator with its PCG64 state jumped `jumps` times (0 is
    `generator(seed)`): streams of different jumps lie far apart in PCG64's
    2^128 period, so none reads another's numbers."""
    return np.random.Generator(generator(seed).bit_generator.jumped(jumps))


def _dot_blocks(model, n_pulses, probabilities, arm, seed, duration):
    """Arm `arm`'s detections, a block of `_BLOCK` detecting pulses at a time.
    A pulse's outcome is one photon detected in arm i, or two in arms (i, j);
    `counts` is the photons each puts in this arm, and q the weights' sum."""
    gaps, outcomes, delays = (_stream(seed, k) for k in (0, 1, 2 + arm))
    _, p1, p2 = model.photon_dist
    p = np.asarray(probabilities, dtype=float)
    hits = (np.arange(p.size) == arm).astype(np.int64)  # bools would add as OR
    weights = np.concatenate([p * (p1 + 2 * p2 * (1 - p.sum())), p2 * np.outer(p, p).ravel()])
    counts = np.concatenate([hits, np.add.outer(hits, hits).ravel()])[weights > 0]
    cuts = np.cumsum(weights[weights > 0])
    first = 0 if cuts.size else n_pulses  # the next pulse to draw; none if no outcome
    while first < n_pulses:
        q = cuts[-1]
        if q < 1:  # gaps held at the pulses left, and few enough that no sum wraps
            pulses = gaps.geometric(q, min(_BLOCK, (2**63 - 1) // (n_pulses + 1)))
            np.minimum(pulses, n_pulses - first + 1, out=pulses).cumsum(out=pulses)
            pulses += first - 1
        else:  # every pulse detects
            pulses = np.arange(first, min(first + _BLOCK, n_pulses), dtype=np.int64)
        first = int(pulses[-1]) + 1
        pulses = pulses[:pulses.searchsorted(n_pulses)]
        n = counts if counts.size == 1 else counts[
            (cuts / q).searchsorted(outcomes.random(pulses.size), "right")]
        photons = _pulse_times(pulses.repeat(n), model.rep_rate_hz)
        yield _emission_times(model.lifetime_ps, photons, duration, delays)
