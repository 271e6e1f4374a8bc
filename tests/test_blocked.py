"""The TCSPC and HBT paths work in fixed-size blocks: their outputs, their
draws and their memory.

Each blocked stage, and the streamed TCSPC recipe as a whole, must return
exactly what the one-shot reference chain in `reference_oneshot.py`
returns, also at the block edges; the blocked TAC correlators must return
what the plain-Python oracles of `test_correlator.py` return.  That rests
on numpy's PCG64 generator drawing the same numbers however a draw is
split.  That is checked here too, so that a numpy release that breaks it
fails these tests instead of changing runs silently.  The memory gates
hold each stage to its output plus a fixed allowance, and the streamed
recipe to one bound at any run length.
"""

import warnings
from pathlib import Path
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_correlator import (
    DetectorModel,
    HistogramConfig,
    Mode,
    PoissonLaserModel,
    PulsedSourceModel,
    TagStream,
    parse_config_text,
    load_config,
    pipelines,
    pulse_period_ps,
    read_tags,
    reverse_start_stop,
    tac_histogram,
    write_tags,
)
from photon_correlator import correlator, sources
from photon_correlator.correlator import _Ticks, _next_tick, _search, clock_lattice
from photon_correlator.detectors import _record
from photon_correlator.pipelines import (detect, emit_clock_ticks, emit_dot_pulse_train,
                                         emit_laser_pulse_train)
from photon_correlator.rng import _BLOCK, derive_seed
from photon_correlator.sources import sample_blocks

from conftest import arm_blocks, sample_arms, traced_peak
from reference_oneshot import (
    reference_clock_ticks,
    reference_record,
    reference_reverse_start_stop,
    reference_sample_blocks,
)
from test_correlator import TAG_TIMES, brute_force_counts, first_stop_scan

REP_HZ = 82e6
SIZES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]
SOURCES = [
    *(PulsedSourceModel(REP_HZ, lifetime, dist)
      for dist in ((0.6, 0.4, 0.0), (0.0, 0.7, 0.3))
      for lifetime in (0.0, 370.0, 1e20)),
    # a fixed photon number: every pulse detects in one outcome, or none does
    *(PulsedSourceModel(REP_HZ, 370.0, dist)
      for dist in ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))),
    PoissonLaserModel(REP_HZ, 0.8),
]


def assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n_pulses", SIZES)
@pytest.mark.parametrize("source", SOURCES, ids=repr)
# one arm of probability 1 has one outcome, so none is drawn; [0.1] * 10
# sums to 0.9999999999999999, so a photon can still be lost; an arm of 0
# has outcomes of weight 0
@pytest.mark.parametrize("probabilities", [[1.0], [0.3, 0.5], [1.0, 0.0], [0.1] * 10,
                                           [0.3, 0.0, 0.5], [0.0, 1.0]])
def test_sample_blocks_equals_one_shot(n_pulses, source, probabilities):
    duration, arms = sample_arms(source, n_pulses, probabilities, seed=12)
    ref_duration, ref_arms = reference_sample_blocks(source, n_pulses, probabilities,
                                                     seed=12)
    assert duration == ref_duration
    assert_same_arrays(arms, ref_arms)


@pytest.mark.parametrize("n_pulses", [_BLOCK - 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("source", SOURCES[:-1], ids=repr)
# three arms that take photons, and three whose outcome weights sum past 1
@pytest.mark.parametrize("probabilities", [[0.2, 0.3, 0.4], [0.33, 0.56, 0.11]])
def test_three_dot_arms_equal_one_shot(n_pulses, source, probabilities):
    duration, arms = sample_arms(source, n_pulses, probabilities, seed=13)
    ref_duration, ref_arms = reference_sample_blocks(source, n_pulses, probabilities,
                                                     seed=13)
    assert duration == ref_duration
    assert_same_arrays(arms, ref_arms)


@pytest.mark.parametrize("n_signal", SIZES)
@pytest.mark.parametrize("dark_rate_hz", [0.0, 1e7])
@pytest.mark.parametrize("jitter_fwhm_ps", [0.0, 170.0])
@pytest.mark.parametrize("dead_time_ps", [0, 20_000])
def test_record_equals_one_shot(n_signal, dark_rate_hz, jitter_fwhm_ps, dead_time_ps):
    # without darks the tags end on the block edges; dark counts move them.
    # The signal comes in three blocks, as a recipe feeds each arm's blocks
    duration = 40 * n_signal + 1000
    signal = np.random.default_rng(n_signal).integers(0, duration, n_signal)
    model = DetectorModel(1.0, dark_rate_hz, jitter_fwhm_ps, dead_time_ps)
    got = _record(n_signal, np.array_split(signal.copy(), 3), model, duration,
                  np.random.default_rng(3), 1)
    assert np.array_equal(got.times,
                          reference_record(signal, model, duration,
                                           np.random.default_rng(3)))


def test_record_clamps_huge_jitter_like_one_shot():
    signal = np.arange(0, 10 * (_BLOCK + 1), 10)
    model = DetectorModel(1.0, 0.0, 1e30)
    got = _record(signal.size, [signal.copy()], model, 10 * signal.size,
                  np.random.default_rng(4), 1)
    expected = reference_record(signal, model, 10 * signal.size, np.random.default_rng(4))
    assert np.array_equal(got.times, expected)
    assert set(np.unique(got.times)) == {0, 10 * signal.size - 1}


@pytest.mark.parametrize("n_pulses", SIZES)
@pytest.mark.parametrize("offset_ps", [0, 6098, -25_000, 10**9])
def test_clock_ticks_equal_one_shot(n_pulses, offset_ps):
    clock = emit_clock_ticks(REP_HZ, n_pulses, offset_ps)
    assert np.array_equal(clock.times,
                          reference_clock_ticks(REP_HZ, n_pulses, offset_ps))


@pytest.mark.parametrize("n_detections", SIZES[1:])
@pytest.mark.parametrize("config", [HistogramConfig(32, 0, 12_192),
                                    HistogramConfig(1, -5, 2 * _BLOCK - 5)],
                         ids=["tcspc", "more_bins_than_a_block"])
@pytest.mark.parametrize("remap_period_ps", [None, 12_195])
def test_reverse_start_stop_equals_one_shot(n_detections, config, remap_period_ps):
    # detections run past the last tick, where they give no count
    rng = np.random.default_rng(n_detections)
    period = 1e12 / REP_HZ
    n_ticks = int(n_detections // 3) + 1
    duration = int(np.rint(n_ticks * period)) + 5_000_000
    clock = emit_clock_ticks(REP_HZ, n_ticks, 6098)
    det = TagStream(np.sort(rng.integers(0, duration, n_detections)), duration, 1)
    assert det.times[-1] > clock.times[-1]
    hist = reverse_start_stop(det, clock, config, remap_period_ps)
    assert np.array_equal(hist.counts,
                          reference_reverse_start_stop(det.times, clock.times, config,
                                                       remap_period_ps))
    assert hist.n_starts == n_detections


@pytest.mark.parametrize("n_pulses", SIZES[1:])  # a run of 0 pulses has no clock tick
@pytest.mark.parametrize("source", SOURCES, ids=repr)
@pytest.mark.parametrize("efficiency", [1.0, 0.3])  # q = 1 at p1 = 1, and q < 1
@pytest.mark.parametrize("dark_rate_hz", [0.0, 1e7])
@pytest.mark.parametrize("dead_time_ps", [0, 10_000])  # streamed, and concatenated
def test_streamed_tcspc_equals_one_shot_chain(n_pulses, source, efficiency,
                                              dark_rate_hz, dead_time_ps):
    model = DetectorModel(efficiency, dark_rate_hz, 170.0, dead_time_ps)
    cfg = replace(parse_config_text(TCSPC_CFG), n_pulses=n_pulses, source=source,
                  detectors={"DET": model})
    cfg = replace(cfg, correlator=pipelines._correlator_config(cfg, pipelines._tcspc_window))
    hist = pipelines._tcspc_histogram(cfg)

    duration, (signal,) = reference_sample_blocks(
        source, n_pulses, [efficiency], derive_seed(cfg.seed, "source"))
    tags = reference_record(signal, model, duration,
                            np.random.default_rng(derive_seed(cfg.seed, "detector.DET")))
    period = pulse_period_ps(REP_HZ)
    clock = reference_clock_ticks(REP_HZ, n_pulses, int(round(period / 2.0)))
    assert np.array_equal(hist.counts,
                          reference_reverse_start_stop(tags, clock, cfg.correlator,
                                                       int(round(period))))
    assert hist.n_starts == tags.size


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def sorted_ticks(values):
    return np.sort(np.array(values, dtype=np.int64))


def gapped_ticks(start, gaps):
    return start + np.cumsum(np.array(gaps, dtype=np.int64))


def top_window(rate, size, back):
    """A lattice window of `size` ticks ending `back` pulses before 2^63 ps,
    or, with a sub-ps period, before pulse 2^63 - 1."""
    first = min(int(2**63 / pulse_period_ps(rate)), INT64_MAX) - back - size
    return _Ticks(rate, 0, first, size)


CLOCKS = st.one_of(
    # lattices: 82 MHz, sub-ps periods (so repeated ticks) and 1e15 ps periods,
    # with offsets that drop leading ticks; as arrays and as lattices
    st.builds(lambda rate, n, offset, as_array: (
        emit_clock_ticks(rate, n, offset).times if as_array
        else clock_lattice(rate, n, offset)),
              st.sampled_from([REP_HZ, 1.5e12, 3e12, 1e-3]), st.integers(2, 4000),
              st.integers(-10**5, 10**6), st.booleans()),
    # lattice windows near 2^63 ps, where tick times round to 1024 ps
    st.builds(top_window, st.sampled_from([REP_HZ, 76e6]), st.integers(2, 4000),
              st.integers(1, 10**6)),
    # irregular, over the whole int64 range or crowded into a few values
    st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=1, max_size=300).map(
        sorted_ticks),
    st.lists(st.integers(-3, 3), min_size=1, max_size=300).map(sorted_ticks),
    # bursts of close ticks with wide gaps between them
    st.builds(gapped_ticks, st.integers(-10**12, 10**12),
              st.lists(st.one_of(st.integers(0, 3), st.integers(10**6, 10**12)),
                       min_size=1, max_size=300)),
    # up against the int64 maximum
    st.lists(st.integers(0, 10**6), min_size=1, max_size=300).map(
        lambda back: INT64_MAX - sorted_ticks(back)[::-1]),
    st.integers(INT64_MIN, INT64_MAX).map(lambda t: sorted_ticks([t])),
)


@st.composite
def clocks_and_detections(draw):
    """(ticks, the same ticks as an array, detections)"""
    ticks = draw(CLOCKS.filter(lambda ticks: ticks.size))
    array = ticks[np.arange(ticks.size)]
    first, last = int(array[0]), int(array[-1])
    near_tick = st.builds(lambda j, d: int(array[j]) + d,
                          st.integers(0, array.size - 1), st.integers(-2, 2))
    det = draw(st.lists(st.one_of(
        near_tick,  # on a tick and just either side of one
        st.integers(first - 10**6, last + 10**6),  # before, among and after the ticks
        st.sampled_from([first - 1, first, last, last + 1, INT64_MIN, INT64_MAX]),
    ), min_size=1, max_size=300))
    return ticks, array, np.clip(np.array(det, dtype=object), INT64_MIN,
                                 INT64_MAX).astype(np.int64)


@settings(max_examples=300, deadline=None)
@given(clocks_and_detections())
def test_next_tick_equals_searchsorted(clock_and_det):
    ticks, array, det = clock_and_det
    det = det[det <= array[-1]]  # after the last tick there is no next tick
    got = _next_tick(ticks)(det)
    assert got.dtype == np.int64
    # the delays, wrapping in int64 as `_next_tick` subtracts
    assert np.array_equal(got, array[np.searchsorted(array, det, "left")] - det)


@settings(max_examples=300, deadline=None)
@given(clocks_and_detections())
def test_search_equals_searchsorted(clock_and_det):
    ticks, array, det = clock_and_det
    got = _search(ticks, det)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.searchsorted(array, det, "left"))


@st.composite
def lattice_windows(draw):
    rate = draw(st.sampled_from([REP_HZ, 76e6, 1e9, 1.5e12, 1e-3]))
    size = draw(st.integers(2, 4000))
    top = top_window(rate, size, 0).first  # the window at back = 0 starts here
    back = draw(st.one_of(st.integers(1, 10**6), st.integers(1, top)))
    return top_window(rate, size, min(back, top))


@settings(max_examples=300, deadline=None)
@given(lattice_windows())
def test_lattice_spacing_bound_holds(window):
    """Every spacing of consecutive ticks is at least the lattice's bound,
    which `_next_tick` settles a detection by; the windows reach up to 2^63
    ps, where the float tick times are 1024 ps apart."""
    times = window[np.arange(window.size)]
    assert window.min_gap_ps >= 0
    assert np.diff(times).min() >= window.min_gap_ps


@pytest.mark.parametrize("rate", [REP_HZ, 76e6])
def test_lattice_spacing_bound_allows_for_rounding_near_2_63(rate):
    """Near 2^63 ps some spacings are below ceil(P) - 2, so that is no bound
    there; the bound is floor(P) - 2 at the start of the run, and floor(P)
    - 1 - 1024 near 2^63 ps."""
    period = pulse_period_ps(rate)
    window = top_window(rate, 4000, 1)
    assert np.diff(window[np.arange(window.size)]).min() < np.ceil(period) - 2
    assert window.min_gap_ps == np.floor(period) - 1 - 1024
    assert _Ticks(rate, 0, 0, 4000).min_gap_ps == np.floor(period) - 2


def test_streamed_recipe_reads_a_tick_a_detection_and_no_fixed_photon_number(
        monkeypatch):
    """On the streamed recipe (one photon a pulse, all detected) `_next_tick`
    reads about one lattice tick a detection, as 0 <= ticks[i] - det <
    `min_gap_ps` settles all but a few, and the clock's ends are read once;
    and the source stage draws no gap (stream 0 of `sources._stream`) and
    no outcome (stream 1), only one delay a photon (stream 2).  Reading
    ticks[i-1] for every detection, or drawing the gaps or the outcomes,
    fails here."""
    reads = []
    getitem = correlator._Ticks.__getitem__

    def counting(self, i):
        reads.append(np.size(i))
        return getitem(self, i)

    drawn = {}  # uniforms drawn from each stream of the source, by its jumps
    stream = sources._stream

    class Counted:
        def __init__(self, seed, jumps):
            self.rng, self.jumps = stream(seed, jumps), jumps
            drawn[jumps] = 0

        def random(self, size):
            drawn[self.jumps] += size
            return self.rng.random(size)

    monkeypatch.setattr(correlator._Ticks, "__getitem__", counting)
    monkeypatch.setattr(sources, "_stream", Counted)
    n_pulses = 2**17
    cfg = parse_config_text(TCSPC_CFG.replace(str(N_PULSES), str(n_pulses)))
    hist = pipelines.run_tcspc(cfg).histogram
    assert hist.total_counts > 0.99 * n_pulses
    n_blocks = n_pulses // _BLOCK + 1  # and the dark counts' block
    assert sum(reads) <= 1.01 * hist.n_starts + n_blocks
    assert drawn == {0: 0, 1: 0, 2: n_pulses}


def test_next_tick_searches_few_detections_on_the_recipe_clock(monkeypatch):
    """The TCSPC recipe's sync clock is a lattice, so `_next_tick` corrects
    the guess of under 1 % of the detections by a search, in the streamed
    recipe and on the clock as an array; a return to searching every
    detection fails here, although it changes no count."""
    searched = []
    search = correlator._search

    def counting(ticks, det):
        searched.append(det.size)
        return search(ticks, det)

    monkeypatch.setattr(correlator, "_search", counting)
    cfg = parse_config_text(TCSPC_CFG.replace(str(N_PULSES), str(2**17)))
    hist = pipelines.run_tcspc(cfg).histogram
    assert hist.total_counts > 0.99 * 2**17
    assert sum(searched) < 0.01 * hist.n_starts

    searched.clear()
    period = pulse_period_ps(REP_HZ)
    clock = emit_clock_ticks(REP_HZ, 2**17, offset_ps=int(round(period / 2.0)))
    photons = emit_dot_pulse_train(PulsedSourceModel(REP_HZ, 370.0, (0.0, 1.0, 0.0)),
                                   2**17, seed=3)
    det = detect(photons, DetectorModel(1.0, 100.0, 170.0), seed=4)
    config = HistogramConfig(32, 0, 12_192, Mode.FIRST_STOP)
    hist = reverse_start_stop(det, clock, config, int(round(period)))
    assert hist.total_counts > 0.99 * 2**17
    assert sum(searched) < 0.01 * len(det)


def test_reverse_start_stop_counts_a_detection_on_the_last_tick_only():
    # the detection on the last tick has delay 0; every later one no stop
    clock = TagStream(np.array([10, 20]), 10**6, 255)
    det = TagStream(np.arange(20, 21 + _BLOCK + 3), 10**6, 1)
    hist = reverse_start_stop(det, clock, HistogramConfig(1, 0, 100))
    assert hist.counts[0] == hist.total_counts == 1
    assert hist.n_starts == _BLOCK + 4


# ---------------------------------------------------------------------------
# the TAC correlators at the block edges


def edge_streams(n_starts):
    """(starts, stops, duration): starts about 40 ps apart, a tenth of them
    repeating the one before; few stops, as the brute force is O(n*m), most
    of them within 300 ps of the first start of a block, so that the pairs
    of a window of 600 ps straddle each block edge, and some repeated."""
    rng = np.random.default_rng(n_starts)
    starts = np.sort(rng.integers(0, 40 * n_starts, n_starts))
    repeated = rng.choice(np.arange(1, n_starts), n_starts // 10, replace=False)
    starts[repeated] = starts[repeated - 1]
    edges = starts[_BLOCK::_BLOCK]
    stops = np.concatenate([(edges[:, None] + rng.integers(-300, 300, (edges.size, 12)))
                            .ravel(), rng.integers(0, 40 * n_starts, 20)])
    stops = np.sort(np.concatenate([stops, stops[:5]]))
    return starts, stops, 40 * n_starts + 300


def strided(times, duration):
    """A stream whose times are every other element of an array."""
    pairs = np.empty((times.size, 2), dtype=np.int64)
    pairs[:, 0] = times
    return TagStream(pairs[:, 0], duration, 2)


@pytest.mark.parametrize("n_starts", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("mode", list(Mode))
def test_tac_histogram_equals_the_oracles_at_the_block_edges(n_starts, mode):
    """Both modes against the brute force, FIRST_STOP also against the scan,
    with a strided stop stream.  Each block edge has stops in range of
    starts on both sides of it, which FIRST_STOP's starts contend for."""
    starts, stops, duration = edge_streams(n_starts)
    stop_stream = strided(stops, duration)
    assert not stop_stream.times.flags.c_contiguous
    config = HistogramConfig(8, -200, 400, mode)
    hist = tac_histogram(TagStream(starts, duration, 1), stop_stream, config)
    expected = brute_force_counts(starts.tolist(), stops.tolist(), config)
    if mode is Mode.FIRST_STOP:
        assert expected == first_stop_scan(starts.tolist(), stops.tolist(), config)
    assert hist.counts.tolist() == expected
    assert hist.n_starts == n_starts and hist.total_counts > 0


TINY_BLOCKS = [1, 2, 3, 7]


@pytest.mark.parametrize("block", TINY_BLOCKS)
@settings(max_examples=150, deadline=None)
@given(starts=TAG_TIMES, stops=TAG_TIMES, mode=st.sampled_from(Mode),
       bin_width=st.integers(1, 5), range_min=st.integers(-30, 10),
       n_bins=st.integers(1, 12))
def test_tac_histogram_matches_brute_force_in_tiny_blocks(block, starts, stops, mode,
                                                          bin_width, range_min, n_bins):
    """`test_tac_histogram_matches_brute_force` with blocks of a few starts,
    so that tiny streams reach every block edge and every edge of a block's
    window of stops, and blocks with more stops in range than starts and
    with fewer, whose searches run the other way."""
    config = HistogramConfig(bin_width, range_min, range_min + n_bins * bin_width, mode)
    with mock.patch.object(correlator, "_BLOCK", block):
        hist = tac_histogram(TagStream(starts, 61, 1), TagStream(stops, 61, 2), config)
    assert hist.counts.tolist() == brute_force_counts(starts, stops, config)
    assert hist.n_starts == len(starts)


@pytest.mark.parametrize("block", TINY_BLOCKS)
@pytest.mark.parametrize("mode", list(Mode))
def test_tac_histogram_carries_across_shared_and_empty_windows(block, mode, monkeypatch):
    """Stop 25 is in range of start 10 and of start 20, which blocks of 1 or
    2 starts put in different blocks: FIRST_STOP start 10 takes it, as its
    earlier stop 15 went to start 0, so start 20 must find it consumed.
    Starts 1000 and 1010 have no stop in range: with blocks of 1 to 3 their
    block's window of stops is empty."""
    monkeypatch.setattr(correlator, "_BLOCK", block)
    starts, stops = [0, 10, 20, 30, 1000, 1010, 2000], [15, 25, 2005]
    config = HistogramConfig(1, 0, 20, mode)
    hist = tac_histogram(TagStream(starts, 3000, 1), TagStream(stops, 3000, 2), config)
    expected = brute_force_counts(starts, stops, config)
    assert hist.counts.tolist() == expected
    assert sum(expected) == (3 if mode is Mode.FIRST_STOP else 5)
    assert hist.n_starts == len(starts)


@pytest.mark.parametrize("mode", list(Mode))
def test_tac_histogram_bins_at_least_n_bins_delays_at_a_time(mode, monkeypatch):
    """40 blocks of starts over a range of 2^20 bins: each `bincount` fills
    all 2^20 bins, so it must not run once a block."""
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount",
                        lambda *args, **kwargs: calls.append(1) or bincount(*args, **kwargs))
    rng = np.random.default_rng(5)
    n_starts = 40 * _BLOCK
    duration = 10_000 * n_starts
    starts = np.sort(rng.integers(0, duration, n_starts))
    stops = np.sort(rng.integers(0, duration, duration // 250_000))
    config = HistogramConfig(1, 0, 2**20, mode)
    hist = tac_histogram(TagStream(starts, duration, 1), TagStream(stops, duration, 2),
                         config)
    assert hist.total_counts > 10_000
    assert len(calls) <= -(-hist.total_counts // config.n_bins) + 1


# ---------------------------------------------------------------------------
# the draw-splitting property the seeding contract rests on


def integers_below(high):
    return lambda g, k: g.integers(0, high, k)


@pytest.mark.parametrize("seed", range(5))
def test_pcg64_draws_do_not_depend_on_how_they_are_split(seed):
    """`random`, `normal` and `integers` drawn in pieces of any sizes equal
    one draw of the whole, and leave the generator where it leaves it, as
    the `poisson` draw after them shows: the block size is not part of the
    seeding contract.  `integers` draws the laser's pulse indices: numpy
    draws a range up to 2^32 from 32-bit halves of its 64-bit outputs, so
    an odd piece leaves a half for the next."""
    n = 3 * _BLOCK + 7
    cuts = np.sort(np.random.default_rng(seed).integers(0, n, 6)).tolist()
    # random pieces (some may be empty), and pieces of 1 and of 7, as blocks
    splits = (np.diff([0, *cuts, n]).tolist(), [1] * 7 + [n - 7],
              [7] * (n // 7) + [n % 7])
    for draw in (lambda g, k: g.random(k), lambda g, k: g.normal(0.0, 72.2, k),
                 *(integers_below(high) for high in (1, 3, 2**32, 2**32 + 1, 2**40))):
        for pieces in splits:
            whole, split = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(np.concatenate([draw(split, k) for k in pieces]),
                                  draw(whole, n))
            assert split.poisson(1e6, 3).tolist() == whole.poisson(1e6, 3).tolist()


@pytest.mark.parametrize("seed", range(5))
def test_dot_detections_do_not_depend_on_the_block_size(seed, monkeypatch):
    """Each kind of dot draw reads its own stream in the order its values are
    used, so any block size gives each arm the same detections in the same
    order, also with a block size that does not divide the run."""
    source = PulsedSourceModel(REP_HZ, 370.0, (0.2, 0.5, 0.3))
    n_pulses, probabilities = 1000, [0.3, 0.5]
    duration, expected = sample_arms(source, n_pulses, probabilities, seed)
    for block in (1, 7, n_pulses - 1, n_pulses, n_pulses + 1):
        monkeypatch.setattr(sources, "_BLOCK", block)
        got_duration, blocks = arm_blocks(source, n_pulses, probabilities, seed)
        assert got_duration == duration
        # a block of `block` detecting pulses puts at most two photons each in an arm
        assert all(times.size <= 2 * block for arm in blocks for times in arm)
        assert_same_arrays([np.concatenate(arm) for arm in blocks], expected)


@pytest.mark.parametrize("seed", range(5))
def test_laser_detections_do_not_depend_on_the_block_size(seed, monkeypatch):
    """The laser draws each arm's pulse indices a block at a time, arm after
    arm from one generator, so any block size gives each arm the same
    detections in the same order, also one that does not divide an arm's
    count, n here."""
    source = PoissonLaserModel(REP_HZ, 0.8)
    n_pulses, probabilities = 1000, [0.3, 0.5]
    duration, expected = sample_arms(source, n_pulses, probabilities, seed)
    n = expected[0].size
    for block in (1, 7, n - 1, n, n + 1):
        monkeypatch.setattr(sources, "_BLOCK", block)
        got_duration, blocks = arm_blocks(source, n_pulses, probabilities, seed)
        assert got_duration == duration
        assert [len(arm) for arm in blocks] == [-(-times.size // block)
                                               for times in expected]
        assert_same_arrays([np.concatenate(arm) for arm in blocks], expected)


# ---------------------------------------------------------------------------
# run length


@pytest.mark.parametrize("call", [
    lambda: sample_blocks(PoissonLaserModel(1e-3, 0.5), 20_000, [1.0], 1),
    lambda: sample_blocks(PulsedSourceModel(1e-3, 370.0, (0, 1, 0)), 20_000, [1.0], 1),
    lambda: emit_laser_pulse_train(PoissonLaserModel(1e-3, 0.5), 20_000, 1),
    lambda: emit_dot_pulse_train(PulsedSourceModel(1e-3, 370.0, (0, 1, 0)), 20_000, 1),
    lambda: emit_clock_ticks(1e-3, 20_000),
])
def test_a_run_past_int64_is_rejected_without_a_warning(call):
    # 20,000 pulses of 1e15 ps last 2e19 ps, past 2^63 ps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="2\\^63"):
            call()


@pytest.mark.parametrize("call", [
    lambda: sample_blocks(PoissonLaserModel(REP_HZ, 0.5), -1, [1.0], 1),
    lambda: sample_blocks(PulsedSourceModel(REP_HZ, 370.0, (0, 1, 0)), -1, [1.0], 1),
    lambda: emit_laser_pulse_train(PoissonLaserModel(REP_HZ, 0.5), -1, 1),
    lambda: emit_clock_ticks(REP_HZ, -1),
])
def test_a_negative_pulse_count_is_rejected(call):
    with pytest.raises(ValueError, match="-1 pulses"):
        call()


# ---------------------------------------------------------------------------
# memory gates

N_PULSES = 2**19
# block temporaries (a few float64 blocks of `_BLOCK`) and small fixed objects
ALLOWANCE = 3 * 2**20

TCSPC_CFG = f"""
[run]
seed = 31013
n_pulses = {N_PULSES}

[source]
type = dot
rep_rate_hz = 82e6
lifetime_ps = 370
p0 = 0
p1 = 1
p2 = 0

[detector.DET]
efficiency = 1.0
dark_rate_hz = 100
jitter_fwhm_ps = 170

[tcspc]
detector = DET
"""


@pytest.mark.parametrize("n_pulses", [N_PULSES, 4 * N_PULSES])
def test_run_tcspc_holds_a_fixed_amount(n_pulses):
    """One photon per pulse, all detected, and no dead time: each block of
    pulses is drawn, recorded and binned in turn, against the clock held as
    its lattice, so the peak is the same at any run length: the allowance,
    and no array as long as the run (8 bytes a pulse would be 4 MiB)."""
    cfg = parse_config_text(TCSPC_CFG.replace(str(N_PULSES), str(n_pulses)))
    pipelines.run_tcspc(parse_config_text(TCSPC_CFG.replace(str(N_PULSES), "1000")))
    peak, result = traced_peak(lambda: pipelines.run_tcspc(cfg))
    assert result.histogram.n_starts >= n_pulses
    assert peak <= ALLOWANCE


def size(blocks):
    return sum(times.size for times in blocks)


def test_sampled_arms_hold_their_output_and_little_per_photon():
    """The blocks of one arm, all held: 8 bytes of output a photon, and block
    temporaries."""
    source = PulsedSourceModel(REP_HZ, 370.0, (0.0, 1.0, 0.0))
    peak, (_, (blocks,)) = traced_peak(
        lambda: arm_blocks(source, N_PULSES, [1.0], seed=1))
    assert size(blocks) > 0.99 * N_PULSES
    assert peak <= 12 * N_PULSES + ALLOWANCE


def test_an_arm_that_takes_every_photon_keeps_no_fates():
    """With one arm of probability 1 every pulse detects in one outcome, so
    the sampler draws no gap and no outcome: 8 bytes of output a photon.  At
    2^22 photons a byte a photon is more than the allowance."""
    n = 2**22
    source = PulsedSourceModel(REP_HZ, 370.0, (0.0, 1.0, 0.0))
    peak, (_, (blocks,)) = traced_peak(lambda: arm_blocks(source, n, [1.0], seed=1))
    assert size(blocks) > 0.99 * n
    assert peak <= 10 * n + ALLOWANCE


def test_sampled_arms_hold_8_bytes_a_detected_photon():
    """A dim two-arm dot HBT: 4.2e5 photons, of which 3 % are detected.  Only
    the detecting pulses are drawn, a block at a time, so only the detected
    photons are held, 8 bytes each, not the 8-byte pulse time of every
    emitted photon (4 MB here, more than the allowance)."""
    n = 2**22
    source = PulsedSourceModel(REP_HZ, 370.0, (0.9, 0.1, 0.0))
    peak, (_, arms) = traced_peak(lambda: arm_blocks(source, n, [0.01, 0.02], seed=1))
    detected = sum(size(blocks) for blocks in arms)
    assert abs(detected - 0.03 * 0.1 * n) < 0.05 * 0.03 * 0.1 * n
    assert peak <= 8 * detected + ALLOWANCE


@pytest.mark.parametrize(("dead_time_ps", "kept"), [(10_000, 1.0), (30_000, 1 / 3)])
def test_dead_time_filter_holds_the_recorded_times(dead_time_ps, kept):
    """2e6 jittered tags 12.2 ns apart.  The filter works a block at a time,
    carrying the run's anchor and the time from which a late tag can be
    accepted, and keeps the accepted tags in place, so it holds only the
    recorded times (8 bytes a tag), also with 30 ns, where every tag but
    the first is late in one long run.  Beside them, 1 MiB for the block
    temporaries, the jitter block among them."""
    n = 2_000_000
    period = pulse_period_ps(REP_HZ)
    signal = np.rint(np.arange(n) * period).astype(np.int64)
    model = DetectorModel(1.0, 0.0, 170.0, dead_time_ps)
    peak, tags = traced_peak(lambda: _record(n, [signal], model, int(n * period),
                                             np.random.default_rng(2), 1))
    assert abs(len(tags) - kept * n) < 0.01 * n
    assert peak <= 8 * n + 2**20


def test_record_of_lazily_drawn_laser_blocks_holds_8_bytes_a_detection():
    """hbt_tac's APD (jitter, darks, 10 ns dead time) records the laser's
    lazily drawn blocks of detections into one array, without a list of the
    blocks or their concatenation: 8 bytes a detection drawn, whatever the
    dead time drops."""
    model = DetectorModel(0.38, 100.0, 550.0, 10_000)
    duration, arms = sample_blocks(PoissonLaserModel(REP_HZ, 0.5), 2**22, [0.19], 1)
    (n_max, blocks), = arms
    peak, tags = traced_peak(lambda: _record(n_max, blocks, model, duration,
                                             np.random.default_rng(2), 1))
    assert 0.9 * n_max < len(tags) < n_max
    assert peak <= 8 * n_max + ALLOWANCE
    # the array is shrunk in place to the kept tags, so the tags the dead
    # time drops (more than a block here) are freed, not held behind a view
    buffer = tags.times if tags.times.base is None else tags.times.base
    assert n_max - len(tags) > _BLOCK
    assert buffer.nbytes <= 8 * (len(tags) + _BLOCK)


DIM_DOT_TCSPC_CFG = """
[run]
seed = 1
n_pulses = 2097152

[source]
type = dot
rep_rate_hz = 82e6
lifetime_ps = 370
g2_target = 0.24
mean_n = 0.1

[detector.SSPD]
efficiency = 0.02
dark_rate_hz = 100
jitter_fwhm_ps = 170
dead_time_ps = 10000

[tcspc]
detector = SSPD
"""


def test_dot_tcspc_with_dead_time_holds_16_bytes_a_recorded_tag():
    """A dim dot through a detector with dead time: the sampler draws no
    count, so `_record` holds the arm's blocks to count them (8 bytes a tag)
    beside the array it fills (8 more).  A record sized for the most photons
    the pulses can hold is 2 x 2^21 x 8 bytes, 32 MiB, for 4.2e3 tags."""
    cfg = parse_config_text(DIM_DOT_TCSPC_CFG)
    cfg = replace(cfg, correlator=pipelines._correlator_config(cfg, pipelines._tcspc_window))
    pipelines._tcspc_histogram(replace(cfg, n_pulses=1000))
    peak, hist = traced_peak(lambda: pipelines._tcspc_histogram(cfg))
    assert hist.n_starts > 0.9 * 0.1 * 0.02 * cfg.n_pulses
    assert peak <= 16 * hist.n_starts + ALLOWANCE


@pytest.mark.parametrize("n_starts", [N_PULSES, 4 * N_PULSES])
@pytest.mark.parametrize("mode", list(Mode))
def test_tac_histogram_holds_a_fixed_amount_beside_its_streams(n_starts, mode):
    """The hardware-TAC HBT's window and about its rates, a stop for every
    20 starts: the starts are taken a block at a time, so beside its streams
    the correlator holds the allowance at any run length, and no index
    array as long as the run (8 bytes a start would be 4 MiB here)."""
    rng = np.random.default_rng(n_starts)
    duration = 24_390 * n_starts
    starts = TagStream(np.sort(rng.integers(0, duration, n_starts)), duration, 1)
    stops = TagStream(np.sort(rng.integers(0, duration, n_starts // 20)), duration, 2)
    config = HistogramConfig.symmetric(128_064, 32, mode)
    peak, hist = traced_peak(lambda: tac_histogram(starts, stops, config))
    assert hist.total_counts > 0.04 * n_starts
    assert peak <= ALLOWANCE


@pytest.mark.parametrize("mode", list(Mode))
def test_tac_histogram_holds_a_fixed_amount_beside_20_times_the_stops(mode):
    """The same window with the rates turned round, 20 stops to a start and
    about 2 stops in range of each: each block of starts has 20 blocks of
    stops in range of it, which it searches and does not copy, so the
    allowance holds here too (2.5 MiB a copy of such a window)."""
    n_starts = 2 * _BLOCK
    rng = np.random.default_rng(n_starts)
    duration = 2_560_000 * n_starts
    starts = TagStream(np.sort(rng.integers(0, duration, n_starts)), duration, 1)
    stops = TagStream(np.sort(rng.integers(0, duration, 20 * n_starts)), duration, 2)
    config = HistogramConfig.symmetric(128_064, 32, mode)
    peak, hist = traced_peak(lambda: tac_histogram(starts, stops, config))
    assert hist.total_counts > 0.5 * n_starts
    assert peak <= ALLOWANCE


def test_laser_arms_hold_8_bytes_a_detection():
    """The laser's pulse indices, drawn a block at a time, become pulse times,
    then detections, in place: 8 bytes a detection, all held, where a float
    copy and an int64 copy of an arm's 6e5 pulse indices are past the
    allowance."""
    n = 2**22
    peak, (_, arms) = traced_peak(lambda: arm_blocks(PoissonLaserModel(REP_HZ, 0.5), n,
                                                     [0.1, 0.3], seed=1))
    detected = sum(size(blocks) for blocks in arms)
    assert abs(detected - 0.2 * n) < 0.01 * 0.2 * n
    assert peak <= 8 * detected + ALLOWANCE


def test_ttag1_writer_holds_one_block_of_records(tmp_path):
    """2^20 tags, 9 MiB of records, written one block of records at a time."""
    stream = TagStream(np.arange(2**20) * 10, 10 * 2**20, 3)
    peak, _ = traced_peak(lambda: write_tags(stream, tmp_path / "tags.ttag"))
    assert peak <= ALLOWANCE
    assert (tmp_path / "tags.ttag").stat().st_size == 15 + 9 * 2**20


def test_csv_writer_holds_one_block_of_rows(tmp_path):
    """2^20 tags written as CSV a block of rows at a time: neither the file's
    14 MiB of text nor the 2^20 times as Python ints (40 MiB) is ever held.
    The text is that of one row at a time."""
    n = 2**20
    stream = TagStream(np.arange(n) * 10, 10 * n, 3)
    peak, _ = traced_peak(lambda: write_tags(stream, tmp_path / "tags.csv"))
    assert peak <= ALLOWANCE
    assert (tmp_path / "tags.csv").read_text() == (
        f"# duration_ps={10 * n}\nchannel,timestamp_ps\n"
        + "".join(f"3,{10 * i}\n" for i in range(n)))


def test_ttag1_reader_holds_the_times_and_one_block_of_records(tmp_path):
    """2^21 tags: the times the reader returns (8 bytes a tag), sized from
    the file length, and one block of records read at a time, not the
    file's 9 bytes a tag; the stream's order check, too, takes a block at a
    time."""
    n = 2**21
    path = tmp_path / "tags.ttag"
    write_tags(TagStream(np.arange(n) * 10, 10 * n, 3), path)
    peak, back = traced_peak(lambda: read_tags(path))
    assert back == TagStream(np.arange(n) * 10, 10 * n, 3)
    assert back.times.flags.c_contiguous
    assert peak <= 8 * n + ALLOWANCE


HBT_TAC_CFG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "hbt_tac.cfg"


def test_run_hbt_holds_its_tags_and_one_block():
    """hbt_tac.cfg at 2e6 pulses.  Each detector's detections are drawn a
    block at a time as it records them into one array, so the run holds the
    recorded tags of both detectors, 8 bytes each, and beside them the few
    start tags the dead time drops and one block's temporaries, within 1
    MiB: no list of blocks and no concatenation (8 more bytes a start tag).
    The correlator's block temporaries, 0.7 MiB, are the most of these."""
    cfg = replace(load_config(HBT_TAC_CFG), n_pulses=2_000_000)
    pipelines.run_hbt(replace(cfg, n_pulses=1000))
    peak, result = traced_peak(lambda: pipelines.run_hbt(cfg))
    n_tags = len(result.start_detections) + len(result.stop_detections)
    assert len(result.start_detections) > 150_000
    assert peak <= 8 * n_tags + 2**20
