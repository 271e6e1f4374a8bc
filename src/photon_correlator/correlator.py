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
range_max is excluded.  In ALL_STOPS mode the counts of disjoint chunks
of the start stream add up to those of a single pass; in FIRST_STOP mode
they do not, as consumption couples starts across chunk boundaries.
`tac_histogram` takes the starts `rng._BLOCK` at a time and searches the
smaller of a block and the stops in its range in the larger: ALL_STOPS adds
up the blocks' counts, and FIRST_STOP carries its scan pointer across blocks.
All three correlators bin their delays through `_histogram`.

Reverse start-stop stops each detection on the next tick of the sync clock,
an int64 array or the pump's lattice (`clock_lattice`, `min_gap_ps` bounding
its spacing below): `_next_tick` guesses it and `_search` bisects the misses.
"""

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .rng import _BLOCK
from .sources import _pulse_times, _train_duration_ps, pulse_period_ps
from .timetags import read_csv_rows, write_csv_rows


# 2^24 bins of int64 counts take 128 MiB; a paper HBT window has 8004
MAX_BINS = 2**24


class Mode(enum.Enum):
    FIRST_STOP = "first_stop"
    ALL_STOPS = "all_stops"


def _as_ints(obj, *names, error=ValueError, where=""):
    """Store each named field of the frozen dataclass `obj` as an int, else raise `error`."""
    for name in names:
        try:  # a numpy int passes, a float does not
            object.__setattr__(obj, name, operator.index(getattr(obj, name)))
        except TypeError:
            raise error(f"{where}{name} must be an integer, "
                        f"got {getattr(obj, name)!r}") from None


@dataclass(frozen=True)
class HistogramConfig:
    bin_width_ps: int
    range_min_ps: int
    range_max_ps: int
    mode: Mode = Mode.ALL_STOPS

    def __post_init__(self):
        _as_ints(self, "bin_width_ps", "range_min_ps", "range_max_ps")
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
        """A [-H, +H) window, H the halfwidth rounded up to whole bins of whole ps."""
        try:  # ceil(x / w) = ceil(ceil(x) / w) for a whole w
            halfwidth, bin_width = math.ceil(halfwidth_ps), int(bin_width_ps)
        except OverflowError:  # an infinity; NaN raises ValueError itself
            raise ValueError("halfwidth_ps and bin_width_ps must be finite") from None
        if bin_width != bin_width_ps:
            raise ValueError(f"bin_width_ps must be a whole number of ps, got {bin_width_ps}")
        if bin_width <= 0:
            raise ValueError("bin_width_ps must be > 0")
        h = -(-halfwidth // bin_width) * bin_width
        return cls(bin_width, -h, h, mode)

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
        _as_ints(self, "n_starts")
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
    return np.bincount(idx.view(np.int64), minlength=config.n_bins)


def _histogram(config, blocks):
    """The histogram of the (number of starts, int64 delays) pairs `blocks` yields,
    binned at least n_bins delays at a time, as each `bincount` fills n_bins bins."""
    counts = np.zeros(config.n_bins, dtype=np.int64)
    pending, n_starts = [], 0
    for n, delays in blocks:
        n_starts += n
        pending.append(delays)
        if sum(map(len, pending)) >= config.n_bins:
            counts += _bin_delays(np.concatenate(pending), config)
            pending = []
    if pending:
        counts += _bin_delays(np.concatenate(pending), config)
    return Histogram(config, counts, n_starts)


def tac_histogram(starts, stops, config):
    """Histogram stop-minus-start delays in the configured mode.

    `n_starts` records every start processed, whether or not it produced
    a count.  Beside its inputs and output it holds one block's temporaries.
    """
    # start + range_max must not wrap; start + range_min cannot, as starts are >= 0
    if starts.times.size and int(starts.times[-1]) + config.range_max_ps > 2**63 - 1:
        raise ValueError(f"histogram range [{config.range_min_ps}, {config.range_max_ps}) ps "
                         f"overflows int64 for starts in [{int(starts.times[0])}, "
                         f"{int(starts.times[-1])}] ps")
    # searchsorted copies a strided array whole on every call
    stop_times = np.ascontiguousarray(stops.times)
    return _histogram(config, _tac_delays(starts.times, stop_times, config))


def _tac_delays(start_times, stop_times, config):
    """For each block of `_BLOCK` starts, their number and the delays they
    count, without a loop over the starts.  Start k is in range of stops
    c_k .. e_k - 1, the first at or after s_k + range_min and s_k +
    range_max, and stop j of the block's `window` of starts a_j .. b_j - 1;
    the smaller of block and window is searched in the larger, for c and e
    or for a and b.  ALL_STOPS counts every pair.

    In FIRST_STOP each start, in order, takes the earliest unconsumed stop
    in its range.  Call c_k the start's candidate.  A start with no stop
    in range (c_k = e_k) never counts, since any stop it could take is
    later still.  Later starts have candidates no earlier than its own, so
    it affects none of them, and such starts are dropped.  For the rest,
    every stop an earlier start consumed lies before e_k, so the scan
    pointer after start k is

        j_k = min(max(j_{k-1}, c_k) + 1, e_k),    j_{-1} = 0,

    and start k counts stop j_k - 1 unless j_k = max(j_{k-1}, c_k).  Each
    step clamps x + 1 into [c_k + 1, e_k]; clamps compose into clamps, so
    the j_k of a block's starts come from a prefix scan by doubling,
    applied to the pointer the block before left.  It stops once the
    clamps not yet composed over their prefix are constants.
    """
    pointer = 0
    for begin in range(0, start_times.size, _BLOCK):
        s = start_times[begin:begin + _BLOCK]
        keys, ends = s + config.range_min_ps, s + config.range_max_ps
        first, last = np.searchsorted(stop_times, (keys[0], ends[-1])).tolist()
        window = stop_times[first:last]
        if stops_more := window.size >= s.size:
            cand, hi = np.searchsorted(window, keys), np.searchsorted(window, ends)
        else:
            a, b = np.searchsorted(ends, window, "right"), np.searchsorted(keys, window, "right")
        if config.mode is Mode.ALL_STOPS:
            k, j = _pairs(cand, hi) if stops_more else _pairs(a, b)[::-1]
            yield s.size, window[j] - s[k]
            continue
        if stops_more:
            k = np.flatnonzero(cand < hi)
            cand, hi = cand[k], hi[k]
        else:
            # window stop j is the first stop in range of starts max(a_j, b_{j-1})
            # .. b_j - 1, and the last of a_j .. min(b_j, a_{j+1}) - 1
            cand, k = _pairs(np.maximum(a, np.append(0, b[:-1])), b)
            hi = np.repeat(np.arange(1, a.size + 1), np.minimum(b, np.append(a[1:], s.size)) - a)
        # after the pass with a given step, entry k holds the clamps of starts
        # max(0, k - 2*step + 1) .. k composed, as x -> clip(x + their count, lo, hi)
        lo, pointer, step = cand + 1, pointer - first, 1
        while step < lo.size and not np.array_equal(lo[step:], hi[step:]):
            lo[step:], hi[step:] = (
                np.minimum(np.maximum(lo[:-step] + step, lo[step:]), hi[step:]),
                np.minimum(np.maximum(hi[:-step] + step, lo[step:]), hi[step:]))
            step *= 2
        j = np.minimum(np.maximum(np.arange(pointer + 1, pointer + lo.size + 1), lo), hi)
        counted = j > np.maximum(np.concatenate(([pointer], j[:-1])), cand)
        pointer = first + (int(j[-1]) if j.size else pointer)
        yield s.size, window[j[counted] - 1] - s[k[counted]]


def _pairs(lo, hi):
    """i and k for each i and each k in lo_i .. hi_i - 1, in order."""
    count = hi - lo
    i = np.repeat(np.arange(count.size), count)
    return i, np.arange(i.size) + (lo - np.cumsum(count) + count)[i]


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
    in any order and of any sizes, against the sorted clock `ticks` (an
    int64 array or a `clock_lattice`) by one `_next_tick`.  Beside the
    histogram it holds the delays of at most n_bins + 2^14 detections,
    binned n_bins or more at a time, as each `bincount` fills n_bins bins.
    """
    if ticks.size == 0:
        raise ValueError("reverse_start_stop requires a nonempty clock stream")
    next_tick = _next_tick(ticks)

    def delay_blocks():
        for tags in tag_blocks:
            for begin in range(0, tags.size, _BLOCK):
                det = tags[begin:begin + _BLOCK]
                delays = next_tick(det)
                if remap_period_ps is not None:
                    np.subtract(int(remap_period_ps), delays, out=delays)
                yield det.size, delays

    return _histogram(config, delay_blocks())


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


def _next_tick(ticks):
    """The function from int64 detections `det` to each one's delay to the
    first tick at or after it, dropping those after the last tick, for the
    nonempty sorted int64 clock `ticks` read only by index, an array or a
    `clock_lattice`.  It reads the clock's ends and `gap`, a lower bound on
    the spacing of consecutive ticks, once: `min_gap_ps` on a lattice, 0 on
    an array and where the ticks span 2^63 ps or more.  The guess
    i = ceil((det - t_0) / mean spacing), clipped into the clock, is kept
    where 0 <= ticks[i] - det < gap, as then ticks[i-1] <= ticks[i] - gap <
    det; ticks[i] - det is the delay returned, so on a lattice this reads
    one tick a detection.  The rest are kept where ticks[i-1] < det <=
    ticks[i] holds in int64, and only those that fail it are searched, on a
    lattice clock those within rounding of a tick."""
    n = ticks.size
    first, last = ticks[np.array([0, n - 1])].tolist()
    span = last - first
    gap = getattr(ticks, "min_gap_ps", 0) if span < 2**63 else 0

    def next_tick(det):
        det = det[det <= last]
        guess = np.subtract(det, first, dtype=np.float64)  # in float: cannot wrap
        guess *= (n - 1) / span if span else 0.0
        i = np.clip(np.ceil(guess, out=guess), 0, n - 1, out=guess).astype(np.int64)
        delays = ticks[i]
        delays -= det
        # gap > 0 only where the span is under 2^63.  Then, as det <= last, a
        # delay wraps only if it is past 2^63 - 1, to below 0, so one unsigned
        # test finds 0 <= delay < gap
        rest = np.flatnonzero(delays.view(np.uint64) >= np.uint64(gap))
        i, d = i[rest], det[rest]
        at = delays[rest] + d  # ticks[i], as the int64 sum undoes the difference
        miss = rest[(at < d) | (ticks[i - 1] >= d) & (i > 0)]
        if miss.size:
            delays[miss] = ticks[_search(ticks, det[miss])] - det[miss]
        return delays

    return next_tick


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


HIST_CSV_HEADER = "bin_start_ps,count"


def write_histogram_csv(hist, path):
    write_csv_rows(path, HIST_CSV_HEADER,
                   zip(hist.bin_starts().tolist(), hist.counts.tolist()),
                   comment=f"n_starts={hist.n_starts} "
                           f"bin_width_ps={hist.config.bin_width_ps}")


def read_histogram_csv(path):
    """Read a histogram CSV.  The collection mode is not stored on disk, so
    the reconstructed config has the default, ALL_STOPS."""
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
        config = HistogramConfig(bin_width, starts[0], starts[-1] + bin_width)
        return Histogram(config, rows[:, 1], n_starts)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
