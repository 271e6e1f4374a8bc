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

`sample_detected` draws, for each detector arm, only the photons that
arm detects, without making the source stream: the routing, attenuation
and efficiency stages between source and detector are independent
per-photon Bernoulli trials, so they fold into one fate per photon
(Poisson colouring and thinning; Kingman, *Poisson Processes*, 1993).
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import generator
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

    @property
    def mean_n(self):
        return self.photon_dist[1] + 2.0 * self.photon_dist[2]

    @property
    def g2_zero(self):
        """<n(n-1)>/<n>^2 of the configured photon-number distribution."""
        if self.mean_n == 0:
            return 0.0
        return 2.0 * self.photon_dist[2] / self.mean_n**2


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
    return np.rint(pulse_indices * pulse_period_ps(rep_rate_hz)).astype(np.int64)


def _train_duration_ps(n_pulses, rep_rate_hz):
    return int(np.rint(n_pulses * pulse_period_ps(rep_rate_hz)))


def _source_stream(counts, rep_rate_hz, duration, delays=None):
    """The source stream of a train with per-pulse photon `counts`: each
    photon at its pulse time, plus its entry of `delays` when given.

    `counts` is dropped before the photon-length arrays are made, so pass
    it as a temporary where it is the largest array of the run.
    """
    emitting = np.nonzero(counts)[0]
    per_pulse = counts[emitting]
    del counts
    pulse_times = _pulse_times(emitting, rep_rate_hz)
    del emitting
    times = np.repeat(pulse_times, per_pulse)
    if delays is not None:
        times += delays
        times.sort()
    times = times[:np.searchsorted(times, duration)]  # times are >= 0 and sorted
    return TagStream(times, duration, SOURCE_CHANNEL)


def _dot_photon_counts(model, n_pulses, rng):
    """Photons per pulse (int8), from one uniform per pulse by inverse CDF."""
    p0, p1, _ = model.photon_dist
    u = rng.random(n_pulses)
    return (u >= p0).astype(np.int8) + (u >= p0 + p1)


def _emission_delays(model, n_photons, rng):
    """Exponential(lifetime_ps) delays in whole ps, by inverse CDF; 0 when
    the lifetime is 0."""
    if model.lifetime_ps == 0:
        return 0
    u = rng.random(n_photons)
    return np.rint(-model.lifetime_ps * np.log1p(-u)).astype(np.int64)


def emit_dot_pulse_train(model, n_pulses, seed):
    """Emit the quantum-dot photon stream for `n_pulses` pump pulses.

    Pulse k fires at round(k * 1e12 / rep_rate_hz); its photon count is
    drawn from photon_dist and each photon is delayed by an independent
    Exponential(lifetime_ps) draw.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")
    rng = generator(seed)
    duration = _train_duration_ps(n_pulses, model.rep_rate_hz)
    counts = _dot_photon_counts(model, n_pulses, rng)
    delays = _emission_delays(model, int(counts.sum()), rng)
    return _source_stream(counts, model.rep_rate_hz, duration, delays)


def emit_laser_pulse_train(model, n_pulses, seed):
    """Emit the Poissonian laser stream; all photons of a pulse share its timestamp."""
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")
    rng = generator(seed)
    duration = _train_duration_ps(n_pulses, model.rep_rate_hz)
    return _source_stream(rng.poisson(model.mu, n_pulses), model.rep_rate_hz, duration)


def sample_detected(model, n_pulses, probabilities, seed):
    """Times of the photons each arm detects over `n_pulses` pulses of `model`.

    A source photon is detected in arm i with probability probabilities[i]
    and lost otherwise (the probabilities sum to at most 1).  Returns
    (duration_ps, arms): one int64 array per arm, in no particular order,
    of the times in [0, duration_ps) that emit_*_pulse_train would give
    those photons.

    The laser's detections in arm i are Poisson(n_pulses * mu * p_i) in
    total, each in an independent uniformly drawn pulse, so the cost is
    that of the detections.  The dot draws one photon number per pulse and
    one fate per photon, so the two photons of a pulse can be detected in
    both arms, as g2(0) needs; only detected photons get an emission delay.
    """
    rng = generator(seed)
    duration = _train_duration_ps(n_pulses, model.rep_rate_hz)
    if isinstance(model, PoissonLaserModel):
        arms = [_pulse_times(rng.integers(0, n_pulses,
                                          rng.poisson(n_pulses * model.mu * p)),
                             model.rep_rate_hz)
                for p in probabilities]
    else:
        counts = _dot_photon_counts(model, n_pulses, rng)
        emitting = np.flatnonzero(counts)
        photon_pulses = np.repeat(emitting, counts[emitting])
        del counts, emitting
        fates = np.searchsorted(np.cumsum(probabilities),
                                rng.random(photon_pulses.size), side="right")
        arms = []
        for i in range(len(probabilities)):
            pulses = photon_pulses[fates == i]
            arms.append(_pulse_times(pulses, model.rep_rate_hz)
                        + _emission_delays(model, pulses.size, rng))
    return duration, [times[times < duration] for times in arms]


def emit_clock_ticks(rep_rate_hz, n_pulses, offset_ps=0):
    """The sync photodiode: one jitterless tick per pump pulse, plus a fixed delay.

    Ticks shifted past the acquisition window are dropped; a negative
    offset may likewise drop leading ticks.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")
    duration = _train_duration_ps(n_pulses, rep_rate_hz)
    times = _pulse_times(np.arange(n_pulses, dtype=np.int64), rep_rate_hz)
    times = times + int(offset_ps)
    times = times[(times >= 0) & (times < duration)]
    return TagStream(times, duration, CLOCK_CHANNEL)
