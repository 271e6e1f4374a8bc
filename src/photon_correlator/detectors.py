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

`_dark_counts` and `_recorded_blocks` do steps 1 and 2 on the photons a
block at a time, holding the darks and one block of jitter; `_record`
writes their blocks in turn into one array, sized from the sampler's count
or by holding the blocks to count them, and does steps 3 and 4 on it, in
place a block at a time.  The recipes in `pipelines` feed it each arm's
blocks of the detected photons they draw directly from the source
(`sources.sample_blocks`), with the detector stage's own generator; a
TCSPC run with no dead time takes `_recorded_blocks` as they come.

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

from .rng import _BLOCK
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


def _record(n_signal, signal_blocks, model, duration_ps, rng, channel):
    """The tags `model` records over [0, duration_ps) when it detects photons
    at the times in `signal_blocks` (int64 arrays, any order, at most
    `n_signal`, or held to count them if it is None; jittered in place): the
    blocks of `_recorded_blocks` in one array, then sort and dead time."""
    if n_signal is None:
        signal_blocks = list(signal_blocks)
        n_signal = sum(times.size for times in signal_blocks)
    dark = _dark_counts(model, duration_ps, rng)
    times = np.empty(n_signal + dark.size, dtype=np.int64)
    n_kept = 0
    for block in _recorded_blocks(signal_blocks, dark, model, duration_ps, rng):
        times[n_kept:n_kept + block.size] = block
        n_kept += block.size
    times[:n_kept].sort()
    if model.dead_time_ps > 0:
        # tags are whole picoseconds, so a gap reaches a fractional dead time
        # exactly when it reaches the next whole one
        n_kept = _apply_dead_time(times[:n_kept], math.ceil(model.dead_time_ps)).size
    # shrunk in place (no view dangles) when that frees over a block; a smaller
    # shrink raised the DE sweep's peak RSS by 0.3 MiB
    if times.size - n_kept > _BLOCK:
        times.resize(n_kept, refcheck=False)
    return TagStream(times[:n_kept], duration_ps, channel)


def _dark_counts(model, duration_ps, rng):
    """The dark counts' times, drawn from `rng` before any tag is jittered."""
    n_dark = rng.poisson(model.dark_rate_hz * duration_ps * 1e-12)
    return rng.integers(0, duration_ps, n_dark, dtype=np.int64)


def _recorded_blocks(signal_blocks, dark, model, duration_ps, rng):
    """The tags `model` records from photons detected at the times in
    `signal_blocks` (int64 arrays) and its dark counts `dark`, before sort
    and dead time, drawn from `rng`: each block is jittered and clamped in
    place, in turn, and the darks last."""
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
    It works a block at a time, carrying the anchor and the time from which
    a late tag can be accepted, and holds nothing as long as the run.
    """
    anchor, ready, n_kept = 0, 0, 0
    for start in range(0, sorted_times.size, _BLOCK):
        block = sorted_times[start:start + _BLOCK]
        # the tag before the block is still in place: it was moved only if
        # every tag before it was kept, and so onto itself
        keep = np.diff(block, prepend=sorted_times[max(start - 1, 0)]) >= dead_time_ps
        keep[0] |= start == 0  # the first tag opens the first run, whatever its gap
        # the times are sorted, so a running maximum of the anchor times,
        # carried from block to block, gives each tag the anchor of its run
        anchors = np.maximum.accumulate(np.where(keep, block, anchor))
        anchor = anchors[-1]
        late = np.flatnonzero(block - anchors >= dead_time_ps)
        late_times = block[late]
        # the first late tag at or after t + dead time, held at the int64 max
        after = dead_time_ps + np.minimum(late_times, 2**63 - 1 - dead_time_ps)
        following = np.searchsorted(late_times, after)
        i = np.searchsorted(late_times, ready)
        while i < late.size:
            keep[late.item(i)] = True  # a late tag is no anchor: its keep was False
            i = following.item(i)
        # the next late tag is accepted a dead time after the last accepted one
        ready = after[keep[late]].max(initial=ready)
        kept = block[keep]
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
