"""Realistic single-photon detector response.

One back end turns the times of the photons a detector detects into the
timetags its counting module records, applying in order:

1. dark counts from a homogeneous Poisson process over the run,
2. Gaussian timing jitter (sigma = FWHM / 2.3548) on every tag, darks
   included, clamped into [0, duration).  The clamp is an edge artefact:
   a tag that jitter pushes outside the window is recorded at 0 or
   duration - 1, so counts pile up in the first and last picosecond,
3. sort,
4. non-paralyzable dead time: any tag closer than dead_time_ps to the
   last accepted tag is dropped (arrivals during dead time do not extend it).

`_recorded_blocks` does steps 1 and 2 on the photons a block at a time,
holding the darks and one block of jitter; `_record` concatenates its
blocks and does steps 3 and 4 on the whole stream.  `detect` feeds
`_record` a photon stream thinned by the system detection efficiency
(Bernoulli per photon), drawing both from one generator; it is internal,
kept only while perfbench/traced.py wraps it.  The recipes in
`pipelines` feed it each arm's blocks of the detected photons they draw
directly from the source (`sources.sample_blocks`), with the detector
stage's own generator; a TCSPC run with no dead time takes
`_recorded_blocks` as they come.  `_record` holds the recorded times;
only the dead-time filter holds more: two masks as long as the tags and
25 bytes for each tag late in its run (below), as it works a block at a
time and keeps the accepted tags in place.

Jitter is applied before dead-time enforcement so the dead-time gap holds
on the emitted (observable) timestamps.  Bias-dependent operating points
(Fig.-5-style efficiency/dark-rate curves) enter only through
`bias_lookup`, which picks (efficiency, dark rate) before a run; the dark
rate is constant within a run.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rng import _BLOCK, generator
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
        if not 0 <= self.dead_time_ps < 2**63:
            raise ValueError("dead_time_ps must be in [0, 2^63)")

    @property
    def jitter_sigma_ps(self):
        return fwhm_to_sigma(self.jitter_fwhm_ps)


def detect(photons, model, seed, channel=1):
    """Simulate detection of `photons` by `model`; output tags carry `channel`."""
    if photons.duration_ps <= 0:
        raise ValueError("detect requires a stream with duration_ps > 0")
    rng = generator(seed)
    kept = photons.times[rng.random(len(photons)) < model.efficiency]
    return _record([kept], model, photons.duration_ps, rng, channel)


def _record(signal_blocks, model, duration_ps, rng, channel):
    """The tags `model` records over [0, duration_ps) when it detects photons
    at the times in `signal_blocks` (int64 arrays, any order; jittered in
    place): the blocks of `_recorded_blocks`, concatenated, then sort and
    dead time."""
    times = np.concatenate(list(_recorded_blocks(signal_blocks, model, duration_ps,
                                                 rng)))
    del signal_blocks  # no caller keeps the blocks: they are freed here
    times.sort()
    if model.dead_time_ps > 0:
        # tags are whole picoseconds, so a gap reaches a fractional dead time
        # exactly when it reaches the next whole one
        times = _apply_dead_time(times, math.ceil(model.dead_time_ps))
    return TagStream(times, duration_ps, channel)


def _recorded_blocks(signal_blocks, model, duration_ps, rng):
    """The tags `model` records from photons detected at the times in
    `signal_blocks` (int64 arrays), before sort and dead time, drawn from
    `rng`: the dark counts are drawn first, then each block is jittered and
    clamped in place, in turn, and the darks last."""
    n_dark = rng.poisson(model.dark_rate_hz * duration_ps * 1e-12)
    dark = rng.integers(0, duration_ps, n_dark, dtype=np.int64)
    for times in itertools.chain(signal_blocks, [dark]):
        bits = times.view(np.uint64)  # the same values, as every time is >= 0
        if model.jitter_fwhm_ps > 0:
            for start in range(0, times.size, _BLOCK):
                jittered = times[start:start + _BLOCK] + rng.normal(
                    0.0, model.jitter_sigma_ps, min(_BLOCK, times.size - start))
                np.rint(jittered, out=jittered)
                # clamped in float first, as a time outside int64 has no cast:
                # 0 and 2^63 cast exactly to uint64, and the clip below brings
                # every time into the window, where uint64 and int64 bits agree
                bits[start:start + _BLOCK] = np.clip(jittered, 0.0, 2.0**63,
                                                     out=jittered)
        np.clip(bits, 0, duration_ps - 1, out=bits)
        yield times


def _apply_dead_time(sorted_times, dead_time_ps):
    """Non-paralyzable dead-time filter, in place on a sorted int64 array.

    A tag at least a dead time after the tag before it is accepted whatever
    was accepted earlier, so such tags (and the first tag) open runs of
    close tags, each run starting from an accepted anchor.  A close tag less
    than a dead time after its run's anchor is dropped.  The rest, the late
    tags, are filtered greedily among themselves: from an accepted late tag
    the next accepted one is the first late tag a dead time on, also when
    that tag is in a later run, since every anchor is more than a dead time
    after the tags before it.  The scan steps only over accepted late tags.
    """
    if sorted_times.size == 0:
        return sorted_times
    keep, late = np.empty((2, sorted_times.size), dtype=bool)
    anchor = sorted_times[0]
    for start in range(0, sorted_times.size, _BLOCK):
        block, gap = sorted_times[start:start + _BLOCK], keep[start:start + _BLOCK]
        np.greater_equal(np.diff(block, prepend=sorted_times[max(start - 1, 0)]),
                         dead_time_ps, out=gap)
        # the times are sorted, so a running maximum of the anchor times,
        # carried from block to block, gives each tag the anchor of its run
        anchors = np.maximum.accumulate(np.where(gap, block, anchor))
        anchor = anchors[-1]
        np.greater_equal(block - anchors, dead_time_ps, out=late[start:start + _BLOCK])
    keep[0] = True  # the first tag opens the first run, whatever its gap reads
    late_times = sorted_times[late]
    # first late tag at or after t + dead time, without forming t + dead time
    following = np.searchsorted(late_times - dead_time_ps, late_times)
    accepted = np.zeros(late_times.size, dtype=bool)
    i = 0
    while i < late_times.size:
        accepted[i] = True
        i = following.item(i)
    keep[late] = accepted  # a late tag is no anchor: its keep is still False
    n_kept = 0
    for start in range(0, sorted_times.size, _BLOCK):
        kept = sorted_times[start:start + _BLOCK][keep[start:start + _BLOCK]]
        # kept is a copy, and never longer than the tags read so far
        sorted_times[n_kept:n_kept + kept.size] = kept
        n_kept += kept.size
    return sorted_times[:n_kept]


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
