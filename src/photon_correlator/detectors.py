"""Realistic single-photon detector response.

`detect` turns an ideal photon-arrival stream into the timetags a counting
module would record, applying in order:

1. Bernoulli thinning with the system detection efficiency,
2. dark counts from a homogeneous Poisson process over the run,
3. Gaussian timing jitter (sigma = FWHM / 2.3548) on every tag, darks
   included, clamped into [0, duration),
4. re-sort,
5. non-paralyzable dead time: any tag closer than dead_time_ps to the
   last accepted tag is dropped (arrivals during dead time do not extend it).

Jitter is applied before dead-time enforcement so the dead-time gap holds
on the emitted (observable) timestamps.  Bias-dependent operating points
(Fig.-5-style efficiency/dark-rate curves) enter only through
`bias_lookup`, which picks (efficiency, dark rate) before a run; the dark
rate is constant within a run.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import generator
from .timetags import TagStream, read_csv_rows, write_csv_rows

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # 2.3548


def fwhm_to_sigma(fwhm):
    return fwhm / FWHM_PER_SIGMA


def sigma_to_fwhm(sigma):
    return sigma * FWHM_PER_SIGMA


@dataclass(frozen=True)
class DetectorModel:
    """Parametric single-photon detector (APD and SSPD use the same model)."""

    name: str
    efficiency: float
    dark_rate_hz: float = 0.0
    jitter_fwhm_ps: float = 0.0
    dead_time_ps: int = 0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency outside [0, 1]")
        if not 0 <= self.dark_rate_hz < math.inf:
            raise ValueError("dark_rate_hz must be finite and >= 0")
        if not 0 <= self.jitter_fwhm_ps < math.inf:
            raise ValueError("jitter_fwhm_ps must be finite and >= 0")
        if self.dead_time_ps < 0:
            raise ValueError("dead_time_ps must be >= 0")

    @property
    def jitter_sigma_ps(self):
        return fwhm_to_sigma(self.jitter_fwhm_ps)


def detect(photons, model, seed, channel=1):
    """Simulate detection of `photons` by `model`; output tags carry `channel`."""
    if photons.duration_ps <= 0:
        raise ValueError("detect requires a stream with duration_ps > 0")
    rng = generator(seed)
    duration = photons.duration_ps

    kept = photons.times[rng.random(len(photons)) < model.efficiency]

    n_dark = rng.poisson(model.dark_rate_hz * duration * 1e-12)
    dark = rng.integers(0, duration, n_dark, dtype=np.int64)
    times = np.concatenate([kept, dark])

    if model.jitter_fwhm_ps > 0:
        times = np.rint(times + rng.normal(0.0, model.jitter_sigma_ps, times.size)
                        ).astype(np.int64)
    times = np.clip(times, 0, duration - 1)
    times.sort()

    if model.dead_time_ps > 0:
        times = _apply_dead_time(times, int(model.dead_time_ps))

    return TagStream.single_channel(times, duration, channel)


def _apply_dead_time(sorted_times, dead_time_ps):
    """Non-paralyzable dead-time filter on a sorted int64 array."""
    if sorted_times.size == 0:
        return sorted_times
    out = []
    append = out.append
    last = None
    for t in sorted_times.tolist():
        if last is None or t - last >= dead_time_ps:
            append(t)
            last = t
    return np.asarray(out, dtype=np.int64)


@dataclass(frozen=True)
class BiasCurvePoint:
    """One bias operating point: I_bias/I_C with its efficiency and dark rate."""

    bias_fraction: float
    efficiency: float
    dark_rate_hz: float

    def __post_init__(self):
        if not 0.0 < self.bias_fraction < 1.0:
            raise ValueError(f"bias_fraction {self.bias_fraction} outside (0, 1)")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency {self.efficiency} outside [0, 1]")
        if not 0 <= self.dark_rate_hz < math.inf:
            raise ValueError(
                f"dark_rate_hz must be finite and >= 0, got {self.dark_rate_hz}")


def bias_lookup(curve, bias_fraction):
    """Interpolate (efficiency, dark_rate_hz) at a bias fraction.

    Efficiency interpolates linearly; the dark rate interpolates linearly
    in log10 space because measured curves span decades (linear
    interpolation would overshoot between them).  No extrapolation: the
    query must lie within the tabulated range.
    """
    if not curve:
        raise ValueError("bias curve is empty")
    fracs = [p.bias_fraction for p in curve]
    if any(b <= a for a, b in zip(fracs, fracs[1:])):
        raise ValueError("bias curve must be strictly increasing in bias_fraction")
    if any(p.dark_rate_hz <= 0 for p in curve):
        raise ValueError("log-linear dark-rate interpolation requires dark_rate_hz > 0")
    x = float(bias_fraction)
    if x < fracs[0] or x > fracs[-1]:
        raise ValueError(
            f"bias_fraction {x} outside tabulated range [{fracs[0]}, {fracs[-1]}]"
        )
    j = int(np.searchsorted(fracs, x, side="left"))
    if fracs[j] == x:
        return (curve[j].efficiency, curve[j].dark_rate_hz)
    a, b = curve[j - 1], curve[j]
    w = (x - a.bias_fraction) / (b.bias_fraction - a.bias_fraction)
    eff = a.efficiency + w * (b.efficiency - a.efficiency)
    dark = 10.0 ** (math.log10(a.dark_rate_hz)
                    + w * (math.log10(b.dark_rate_hz) - math.log10(a.dark_rate_hz)))
    return (eff, dark)


BIAS_CSV_HEADER = "bias_fraction,efficiency,dark_rate_hz"


def write_bias_curve(curve, path):
    write_csv_rows(path, BIAS_CSV_HEADER,
                   ((p.bias_fraction, p.efficiency, p.dark_rate_hz) for p in curve))


def read_bias_curve(path):
    return read_csv_rows(path, BIAS_CSV_HEADER,
                         lambda fields: BiasCurvePoint(*map(float, fields)))[1]
