"""Start/stop delay histogramming, emulating TAC + MCA electronics.

Two collection modes are provided because hardware TACs consume their
stop pulse while multi-stop analysis does not:

* FIRST_STOP — for each start, the earliest not-yet-consumed stop with
  delay in [range_min, range_max) increments a bin and is consumed; a
  start may begin while an earlier conversion's stop is still pending
  (no converter dead time is modeled).  Stops earlier than
  start + range_min are permanently ignored.
* ALL_STOPS — every (start, stop) pair with in-range delay counts.  This
  is the default for analysis: it is symmetric in delay and its peak
  areas are unbiased even at high per-window stop probabilities.

Delay binning is floor((d - range_min)/bin_width); a delay exactly at
range_max is excluded.  Histograms from disjoint chunks of the start
stream can be merged; that equals a single pass only in ALL_STOPS mode
(FIRST_STOP consumption couples starts across chunk boundaries).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .rng import _BLOCK
from .timetags import read_csv_rows, write_csv_rows


# 2^24 bins of int64 counts take 128 MiB; a paper HBT window has 8004
MAX_BINS = 2**24


class Mode(enum.Enum):
    FIRST_STOP = "first_stop"
    ALL_STOPS = "all_stops"

    @classmethod
    def parse(cls, text):
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown histogram mode {text!r} (use FIRST_STOP or ALL_STOPS)"
            ) from None


@dataclass(frozen=True)
class HistogramConfig:
    bin_width_ps: int
    range_min_ps: int
    range_max_ps: int
    mode: Mode = Mode.ALL_STOPS

    def __post_init__(self):
        if self.bin_width_ps <= 0:
            raise ValueError("bin_width_ps must be > 0")
        if self.range_max_ps <= self.range_min_ps:
            raise ValueError("range_max_ps must be > range_min_ps")
        if not (-2**63 <= self.range_min_ps and self.range_max_ps <= 2**63 - 1):
            raise ValueError(f"range [{self.range_min_ps}, {self.range_max_ps}) ps "
                             f"leaves int64")
        if (self.range_max_ps - self.range_min_ps) % self.bin_width_ps:
            raise ValueError(
                f"range span {self.range_max_ps - self.range_min_ps} not divisible "
                f"by bin_width_ps={self.bin_width_ps}"
            )
        if self.n_bins > MAX_BINS:
            raise ValueError(f"range [{self.range_min_ps}, {self.range_max_ps}) ps "
                             f"holds {self.n_bins} bins, more than {MAX_BINS}")

    @classmethod
    def symmetric(cls, halfwidth_ps, bin_width_ps, mode=Mode.ALL_STOPS):
        """A [-H, +H) window with H rounded up to a whole number of bins."""
        bin_width_ps = int(bin_width_ps)
        if bin_width_ps <= 0:
            raise ValueError("bin_width_ps must be > 0")
        half_bins = -(-int(halfwidth_ps) // bin_width_ps)
        h = half_bins * bin_width_ps
        return cls(bin_width_ps, -h, h, mode)

    @property
    def n_bins(self):
        return (self.range_max_ps - self.range_min_ps) // self.bin_width_ps

    def bin_starts(self):
        return self.range_min_ps + self.bin_width_ps * np.arange(self.n_bins,
                                                                 dtype=np.int64)

    def bin_centers(self):
        return self.bin_starts() + self.bin_width_ps / 2.0


@dataclass(frozen=True)
class Histogram:
    config: HistogramConfig
    counts: np.ndarray
    n_starts: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (self.config.n_bins,):
            raise ValueError(
                f"counts length {counts.size} does not match config "
                f"({self.config.n_bins} bins)"
            )
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        if self.n_starts < 0:
            raise ValueError(f"n_starts must be >= 0, got {self.n_starts}")
        counts = counts.copy() if counts.flags.writeable else counts
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total_counts(self):
        return int(self.counts.sum())

    def bin_starts(self):
        return self.config.bin_starts()

    def bin_centers(self):
        return self.config.bin_centers()


def _bin_delays(delays, config):
    idx = delays[(delays >= config.range_min_ps) & (delays < config.range_max_ps)]
    # delay - range_min is in [0, 2^64): exact in uint64, where int64 can wrap
    idx = idx.view(np.uint64)
    idx -= np.uint64(config.range_min_ps % 2**64)
    idx //= np.uint64(config.bin_width_ps)
    return np.bincount(idx.view(np.int64), minlength=config.n_bins).astype(np.int64)


def _check_int64_range(start_times, config):
    """Reject a range that would wrap start + range_max; start + range_min
    cannot wrap, as starts are >= 0 and range_min_ps >= -2^63."""
    if start_times.size and int(start_times[-1]) + config.range_max_ps > 2**63 - 1:
        raise ValueError(
            f"histogram range [{config.range_min_ps}, {config.range_max_ps}) ps "
            f"overflows int64 for starts in [{int(start_times[0])}, "
            f"{int(start_times[-1])}] ps")


def tac_histogram(starts, stops, config):
    """Histogram stop-minus-start delays in the configured mode.

    `n_starts` records every start processed, whether or not it produced
    a count.
    """
    start_times = starts.times
    stop_times = stops.times
    _check_int64_range(start_times, config)
    if config.mode is Mode.ALL_STOPS:
        lo = np.searchsorted(stop_times, start_times + config.range_min_ps, "left")
        hi = np.searchsorted(stop_times, start_times + config.range_max_ps, "left")
        per_start = hi - lo
        total = int(per_start.sum())
        if total == 0:
            counts = np.zeros(config.n_bins, dtype=np.int64)
        else:
            offsets = np.cumsum(per_start) - per_start
            flat = np.repeat(lo - offsets, per_start) + np.arange(total)
            delays = stop_times[flat] - np.repeat(start_times, per_start)
            counts = _bin_delays(delays, config)
        return Histogram(config, counts, int(start_times.size))
    return Histogram(config, _first_stop_counts(start_times, stop_times, config),
                     int(start_times.size))


def _first_stop_counts(start_times, stop_times, config):
    """FIRST_STOP counts, without a loop over the starts.

    Each start, in order, takes the earliest unconsumed stop at or after
    start + range_min, if that stop is before start + range_max.  Call the
    first stop at or after start + range_min the start's candidate.  A
    start whose candidate is missing or not before start + range_max never
    counts, since any stop it could take is later still.  Later starts have
    candidates no earlier than its own, so it affects none of them, and
    such starts are dropped.  For the rest, with candidate c_k and e_k the
    first stop at or after s_k + range_max, every stop an earlier start
    consumed lies before e_k, so the scan pointer after start k is

        j_k = min(max(j_{k-1}, c_k) + 1, e_k),    j_{-1} = 0,

    and start k counts stop j_k - 1 unless j_k = max(j_{k-1}, c_k).  Each
    step clamps x + 1 into [c_k + 1, e_k]; clamps compose into clamps, so
    every j_k comes from a prefix scan by doubling.
    """
    n_stops = stop_times.size
    if n_stops == 0:
        return np.zeros(config.n_bins, dtype=np.int64)
    cand = np.searchsorted(stop_times, start_times + config.range_min_ps, "left")
    cand_time = stop_times[np.minimum(cand, n_stops - 1)]
    in_range = (cand < n_stops) & (cand_time < start_times + config.range_max_ps)
    s = start_times[in_range]
    cand = cand[in_range]
    # after the pass with a given step, entry k holds the clamps of starts
    # max(0, k - 2*step + 1) .. k composed, as x -> clip(x + their count, lo, hi)
    lo = cand + 1
    hi = np.searchsorted(stop_times, s + config.range_max_ps, "left")
    step = 1
    while step < s.size:
        lo[step:], hi[step:] = (np.clip(lo[:-step] + step, lo[step:], hi[step:]),
                                np.clip(hi[:-step] + step, lo[step:], hi[step:]))
        step *= 2
    j = np.clip(np.arange(1, s.size + 1), lo, hi)
    counted = j > np.maximum(np.concatenate(([0], j[:-1])), cand)
    return _bin_delays(stop_times[j[counted] - 1] - s[counted], config)


def reverse_start_stop(detector, clock, config, remap_period_ps=None):
    """Reverse start-stop correlation: detector tag starts, next clock tick stops.

    Delays are t_clock - t_detector >= 0; a detection exactly on a clock
    tick gives delay 0, and detections after the last tick produce no
    count.  With `remap_period_ps` set, each delay d is remapped to
    period - d before binning so the histogram reads as time after
    excitation.  The config's collection mode is irrelevant here (the
    next tick is by construction the first stop).  It is
    `next_tick_histogram` of the detector's times against the clock's, so
    beside the histogram it holds the delays of at most n_bins + 2^14
    detections.
    """
    return next_tick_histogram([detector.times], clock.times, config, remap_period_ps)


def next_tick_histogram(tag_blocks, ticks, config, remap_period_ps=None):
    """`reverse_start_stop` of the detections in `tag_blocks`, int64 arrays
    in any order and of any sizes, against the sorted clock `ticks`: an
    int64 array or a `sources.clock_lattice`.  `_next_tick` finds each
    detection's next tick, with no binary search on a lattice clock.
    Beside the histogram it holds the delays of at most n_bins + 2^14
    detections, binned at least n_bins at a time, as each `bincount`
    fills all n_bins bins.
    """
    if ticks.size == 0:
        raise ValueError("reverse_start_stop requires a nonempty clock stream")
    counts = np.zeros(config.n_bins, dtype=np.int64)
    pending, n_starts = [], 0
    for tags in tag_blocks:
        n_starts += tags.size
        for start in range(0, tags.size, _BLOCK):
            pending.append(_next_tick_delays(ticks, tags[start:start + _BLOCK],
                                             remap_period_ps))
            if sum(map(len, pending)) >= config.n_bins:
                counts += _bin_delays(np.concatenate(pending), config)
                pending = []
    if pending:
        counts += _bin_delays(np.concatenate(pending), config)
    return Histogram(config, counts, n_starts)


def _next_tick_delays(ticks, det, remap_period_ps):
    """The (remapped) delay from each detection in `det` to its next tick;
    a detection after the last tick has none."""
    det = det[det <= ticks[ticks.size - 1]]
    delays = _next_tick(ticks, det)
    delays -= det
    if remap_period_ps is not None:
        np.subtract(int(remap_period_ps), delays, out=delays)
    return delays


def _next_tick(ticks, det):
    """The first tick at or after each detection in `det`, none after the
    last tick, for sorted int64 `ticks` read only by index: an array or a
    lattice (`sources.clock_lattice`).  The guess i = ceil((det - t_0) /
    mean spacing), clipped into the clock, is kept where ticks[i-1] < det
    <= ticks[i] holds in int64; only the rest are searched, on a lattice
    clock those within rounding of a tick."""
    n = ticks.size
    first = ticks[0]
    span = int(ticks[n - 1]) - int(first)
    guess = np.subtract(det, first, dtype=np.float64)  # in float: cannot wrap
    guess *= (n - 1) / span if span else 0.0
    i = np.clip(np.ceil(guess, out=guess), 0, n - 1, out=guess).astype(np.int64)
    at = ticks[i]
    miss = np.flatnonzero((at < det) | (ticks[i - 1] >= det) & (i > 0))
    if miss.size:
        at[miss] = ticks[_search(ticks, det[miss])]
    return at


def _search(ticks, det):
    """np.searchsorted(ticks, det, "left"), by bisection on the count of
    ticks below each detection, reading `ticks` only by index."""
    below = np.zeros(det.size, dtype=np.int64)
    step = 1 << ticks.size.bit_length()
    while step:
        # the first `below + step` ticks (at most all) are all below det?
        j = np.minimum(below + step, ticks.size)
        np.copyto(below, j, where=ticks[j - 1] < det)
        step >>= 1
    return below


def merge_histograms(a, b):
    """Element-wise sum of two histograms with identical configs."""
    if a.config != b.config:
        raise ValueError(f"histogram config mismatch: {a.config} vs {b.config}")
    return Histogram(a.config, a.counts + b.counts, a.n_starts + b.n_starts)


HIST_CSV_HEADER = "bin_start_ps,count"


def write_histogram_csv(hist, path):
    write_csv_rows(path, HIST_CSV_HEADER,
                   zip(hist.bin_starts().tolist(), hist.counts.tolist()),
                   comment=f"n_starts={hist.n_starts} "
                           f"bin_width_ps={hist.config.bin_width_ps}")


def read_histogram_csv(path, mode=Mode.ALL_STOPS):
    """Read a histogram CSV.  The collection mode is not stored on disk;
    `mode` only fills in the reconstructed config."""
    header, rows = read_csv_rows(path, HIST_CSV_HEADER)
    try:
        n_starts = int(np.int64(header["n_starts"]))
        bin_width = int(np.int64(header["bin_width_ps"]))
    except KeyError:
        raise FormatError(
            f"{path}: missing '# n_starts=<N> bin_width_ps=<w>' comment") from None
    except (ValueError, OverflowError) as exc:
        raise FormatError(
            f"{path}: non-integer or out-of-range header value: {exc}") from exc
    if bin_width <= 0:
        raise FormatError(f"{path}: bin_width_ps must be > 0, got {bin_width}")
    if not len(rows):
        raise FormatError(f"{path}: histogram has no bins")
    starts = rows[:, 0].tolist()
    for prev, cur in zip(starts, starts[1:]):
        if cur != prev + bin_width:
            raise FormatError(
                f"{path}: bins not contiguous at bin_start_ps={cur} "
                f"(expected {prev + bin_width})"
            )
    try:
        config = HistogramConfig(bin_width, starts[0], starts[-1] + bin_width, mode)
        return Histogram(config, rows[:, 1], n_starts)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
