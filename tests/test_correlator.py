import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from photon_correlator import (
    FormatError,
    Histogram,
    HistogramConfig,
    Mode,
    PulsedSourceModel,
    TagStream,
    DetectorModel,
    read_histogram_csv,
    reverse_start_stop,
    tac_histogram,
    write_histogram_csv,
)
from photon_correlator.correlator import MAX_BINS
from photon_correlator.pipelines import detect, emit_clock_ticks, emit_dot_pulse_train

from conftest import chunked_histogram, empty_stream, poisson_stream


def stream(times, duration=None, channel=0):
    times = np.asarray(times, dtype=np.int64)
    duration = duration or (int(times[-1]) + 1 if times.size else 1)
    return TagStream(times, duration, channel)


class TestHistogramConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="bin_width"):
            HistogramConfig(0, 0, 100)
        with pytest.raises(ValueError, match="range_max"):
            HistogramConfig(10, 100, 100)
        with pytest.raises(ValueError, match="divisible"):
            HistogramConfig(32, 0, 100)

    @pytest.mark.parametrize("lo, hi", [
        (-2**63 - 10, -2**63),
        (2**63 - 10, 2**63),
        (-2**63 - 10, 2**63 + 10),
    ])
    def test_range_must_fit_int64(self, lo, hi):
        with pytest.raises(ValueError, match=rf"range \[{lo}, {hi}\) ps leaves int64"):
            HistogramConfig(10, lo, hi)

    def test_range_at_the_int64_edges(self):
        low = HistogramConfig(10, -2**63, -2**63 + 20)
        assert low.bin_starts().tolist() == [-2**63, -2**63 + 10]
        high = HistogramConfig(1, 2**63 - 3, 2**63 - 1)
        assert high.bin_starts().tolist() == [2**63 - 3, 2**63 - 2]

    def test_bin_count_is_bounded(self):
        assert HistogramConfig(1, 0, MAX_BINS).n_bins == MAX_BINS
        with pytest.raises(ValueError, match=rf"\[0, {MAX_BINS + 1}\) ps holds "
                                             rf"{MAX_BINS + 1} bins, more than {MAX_BINS}"):
            HistogramConfig(1, 0, MAX_BINS + 1)

    def test_symmetric_rounds_up_to_bins(self):
        cfg = HistogramConfig.symmetric(48_780, 32)
        assert cfg.range_min_ps == -cfg.range_max_ps
        assert cfg.range_max_ps % 32 == 0
        assert cfg.range_max_ps >= 48_780
        assert cfg.range_max_ps - 48_780 < 32

    @pytest.mark.parametrize("halfwidth, expected", [
        (32.5, 64), (32, 32), (31.5, 32), (0.25, 32), (64.0, 64), (np.float64(96.001), 128)])
    def test_symmetric_rounds_the_exact_halfwidth_up(self, halfwidth, expected):
        """Not the halfwidth truncated first: 32.5 ps needs a second bin."""
        cfg = HistogramConfig.symmetric(halfwidth, 32)
        assert (cfg.range_min_ps, cfg.range_max_ps) == (-expected, expected)

    @pytest.mark.parametrize("bin_width", [2.5, 32.1, 1e-3, np.float64(31.5)])
    def test_symmetric_rejects_a_fractional_bin_width(self, bin_width):
        with pytest.raises(ValueError, match="bin_width_ps must be a whole number of ps"):
            HistogramConfig.symmetric(100, bin_width)

    def test_symmetric_takes_a_whole_float_bin_width(self):
        assert HistogramConfig.symmetric(100, 32.0) == HistogramConfig(32, -128, 128)

    def test_bins(self):
        cfg = HistogramConfig(100, -200, 200)
        assert cfg.n_bins == 4
        assert list(cfg.bin_starts()) == [-200, -100, 0, 100]
        assert list(cfg.bin_centers()) == [-150.0, -50.0, 50.0, 150.0]

    @pytest.mark.parametrize("args, field", [
        ((2.5, 0, 10), "bin_width_ps"),
        ((2, 0.0, 10), "range_min_ps"),
        ((2, 0, np.float64(10.0)), "range_max_ps"),
        ((2, "0", 10), "range_min_ps"),
    ])
    def test_takes_integer_fields_only(self, args, field):
        """A whole float is no int either: its n_bins would be a float."""
        with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
            HistogramConfig(*args)

    def test_takes_numpy_ints_as_ints(self):
        cfg = HistogramConfig(np.int64(2), np.int32(-4), np.uint8(10), Mode.FIRST_STOP)
        assert cfg == HistogramConfig(2, -4, 10, Mode.FIRST_STOP)
        assert {type(cfg.bin_width_ps), type(cfg.range_min_ps), type(cfg.range_max_ps),
                type(cfg.n_bins)} == {int}


class TestTacHistogram:
    def test_no_stops(self):
        cfg = HistogramConfig(100, 0, 10_000, Mode.FIRST_STOP)
        hist = tac_histogram(stream([0, 50, 99]), stream([], duration=100), cfg)
        assert hist.total_counts == 0
        assert hist.n_starts == 3

    @pytest.mark.parametrize("mode", [Mode.FIRST_STOP, Mode.ALL_STOPS])
    def test_fixed_delay(self, mode):
        cfg = HistogramConfig(100, 0, 10_000, mode)
        starts = stream([0, 10**6])
        stops = stream([500, 10**6 + 500])
        hist = tac_histogram(starts, stops, cfg)
        assert hist.total_counts == 2
        assert hist.counts[5] == 2  # bin [500, 600)

    def test_first_stop_consumes(self):
        cfg = HistogramConfig(1, 0, 20, Mode.FIRST_STOP)
        hist = tac_histogram(stream([0, 10]), stream([5], duration=30), cfg)
        assert hist.total_counts == 1
        assert hist.counts[5] == 1

    def test_first_stop_takes_earliest(self):
        cfg = HistogramConfig(1, 0, 20, Mode.FIRST_STOP)
        hist = tac_histogram(stream([0]), stream([3, 7], duration=30), cfg)
        assert hist.counts[3] == 1
        assert hist.total_counts == 1

    def test_first_stop_overlapping_conversions(self):
        # the second start is processed even though the first conversion's
        # stop arrives after it (no converter dead time)
        cfg = HistogramConfig(1, 0, 20, Mode.FIRST_STOP)
        hist = tac_histogram(stream([0, 2]), stream([5, 6], duration=30), cfg)
        assert hist.counts[5] == 1  # start 0 -> stop 5
        assert hist.counts[4] == 1  # start 2 -> stop 6
        assert hist.total_counts == 2

    def test_first_stop_negative_delays(self):
        cfg = HistogramConfig(1, -10, 10, Mode.FIRST_STOP)
        hist = tac_histogram(stream([20]), stream([15], duration=30), cfg)
        assert hist.counts[5] == 1  # delay -5 -> bin index 5

    def test_first_stop_skips_stops_below_window(self):
        cfg = HistogramConfig(1, -10, 10, Mode.FIRST_STOP)
        hist = tac_histogram(stream([20, 21]), stream([5, 15], duration=30), cfg)
        assert hist.total_counts == 1  # stop 5 permanently ignored
        assert hist.counts[5] == 1

    def test_all_stops_counts_every_pair(self):
        cfg = HistogramConfig(1, 0, 20, Mode.ALL_STOPS)
        hist = tac_histogram(stream([0, 2]), stream([5, 6], duration=30), cfg)
        assert hist.total_counts == 4

    def test_range_max_excluded(self):
        cfg = HistogramConfig(10, 0, 100, Mode.ALL_STOPS)
        hist = tac_histogram(stream([0]), stream([100], duration=200), cfg)
        assert hist.total_counts == 0
        hist = tac_histogram(stream([0]), stream([99], duration=200), cfg)
        assert hist.counts[9] == 1

    def test_first_stop_counts_bounded_by_starts(self, rng):
        for _ in range(20):
            starts = poisson_stream(rng, 2e8, 10**7)
            stops = poisson_stream(rng, 3e8, 10**7)
            cfg = HistogramConfig(50, -1000, 1000, Mode.FIRST_STOP)
            hist = tac_histogram(starts, stops, cfg)
            assert hist.total_counts <= hist.n_starts

    def test_all_stops_flat_background(self, rng):
        # uncorrelated Poisson starts/stops: flat histogram with per-bin
        # mean n_starts * r2 * bin_width (Poisson chi-square at 1%)
        duration = 10**10
        margin = 60_000
        r2_hz = 1e6
        starts = poisson_stream(rng, 2e6, duration, t_min=margin,
                                t_max=duration - margin)
        stops = poisson_stream(rng, r2_hz, duration)
        cfg = HistogramConfig(1000, -50_000, 50_000, Mode.ALL_STOPS)
        hist = tac_histogram(starts, stops, cfg)
        mean = hist.n_starts * r2_hz * cfg.bin_width_ps * 1e-12
        stat = float(np.sum((hist.counts - mean) ** 2 / mean))
        assert chi2.sf(stat, cfg.n_bins) > 0.01


class TestReverseStartStop:
    def test_tag_on_clock_tick_gives_zero_delay(self):
        cfg = HistogramConfig(10, 0, 1000, Mode.FIRST_STOP)
        det = stream([500], duration=10_000)
        clock = stream([0, 500, 1000], duration=10_000, channel=255)
        hist = reverse_start_stop(det, clock, cfg)
        assert hist.counts[0] == 1

    def test_tag_before_tick(self):
        cfg = HistogramConfig(10, 0, 10_000, Mode.FIRST_STOP)
        det = stream([9_000], duration=100_000)
        clock = stream([0, 10_000], duration=100_000)
        hist = reverse_start_stop(det, clock, cfg)
        assert hist.counts[100] == 1  # delay 1000 ps

    def test_remap_reads_time_after_excitation(self):
        cfg = HistogramConfig(10, 0, 10_000, Mode.FIRST_STOP)
        det = stream([9_000], duration=100_000)
        clock = stream([0, 10_000], duration=100_000)
        hist = reverse_start_stop(det, clock, cfg, remap_period_ps=10_000)
        assert hist.counts[900] == 1  # 9000 ps after its pulse

    def test_empty_clock(self):
        cfg = HistogramConfig(10, 0, 100, Mode.FIRST_STOP)
        with pytest.raises(ValueError, match="clock"):
            reverse_start_stop(stream([5], duration=10), empty_stream(10), cfg)

    def test_detector_tag_after_last_tick_uncounted(self):
        cfg = HistogramConfig(10, 0, 1000, Mode.FIRST_STOP)
        det = stream([900], duration=10_000)
        clock = stream([500], duration=10_000)
        hist = reverse_start_stop(det, clock, cfg)
        assert hist.total_counts == 0
        assert hist.n_starts == 1

    def test_delays_exponential_against_oracle(self):
        # jitterless TCSPC: recovered time-after-excitation must follow
        # Exponential(370); discrete KS at the 1% level on ~1e5 samples
        rep = 1e8  # integer 10 ns period keeps clock arithmetic exact
        period = 10_000
        model = PulsedSourceModel(rep, 370.0, (0.9, 0.1, 0.0))
        photons = emit_dot_pulse_train(model, 1_000_000, seed=13)
        det = detect(photons, DetectorModel(1.0, 0.0, 0.0, 0), seed=14)
        clock = emit_clock_ticks(rep, 1_000_000)
        idx = np.searchsorted(clock.times, det.times, side="left")
        ok = idx < len(clock)
        delays = clock.times[idx[ok]] - det.times[ok]
        after_excitation = (period - delays) % period
        n = after_excitation.size
        assert n > 90_000
        ks = np.arange(0, after_excitation.max() + 1)
        ecdf = np.searchsorted(np.sort(after_excitation), ks, side="right") / n
        model_cdf = 1.0 - np.exp(-(ks + 0.5) / 370.0)
        assert np.max(np.abs(ecdf - model_cdf)) < 1.628 / math.sqrt(n)


def brute_force_counts(start_times, stop_times, config):
    """O(n*m) reference for both collection modes, in plain Python."""
    lo, hi, width = config.range_min_ps, config.range_max_ps, config.bin_width_ps
    counts = [0] * config.n_bins
    if config.mode is Mode.ALL_STOPS:
        for s in start_times:
            for t in stop_times:
                if lo <= t - s < hi:
                    counts[(t - s - lo) // width] += 1
        return counts
    consumed = [False] * len(stop_times)
    for s in sorted(start_times):
        # the earliest unconsumed stop at or after s + lo counts if it is
        # before s + hi
        free = [j for j, t in enumerate(stop_times) if not consumed[j] and t >= s + lo]
        if free:
            j = min(free, key=lambda j: stop_times[j])
            if stop_times[j] < s + hi:
                consumed[j] = True
                counts[(stop_times[j] - s - lo) // width] += 1
    return counts


TAG_TIMES = st.lists(st.integers(0, 60), max_size=40).map(sorted)


@settings(max_examples=300, deadline=None)
@given(starts=TAG_TIMES, stops=TAG_TIMES, mode=st.sampled_from(Mode),
       bin_width=st.integers(1, 5), range_min=st.integers(-30, 10),
       n_bins=st.integers(1, 12))
def test_tac_histogram_matches_brute_force(starts, stops, mode, bin_width,
                                           range_min, n_bins):
    config = HistogramConfig(bin_width, range_min, range_min + n_bins * bin_width,
                             mode)
    hist = tac_histogram(stream(starts, 61), stream(stops, 61), config)
    assert hist.counts.tolist() == brute_force_counts(starts, stops, config)
    assert hist.n_starts == len(starts)


def first_stop_scan(start_times, stop_times, config):
    """FIRST_STOP in one forward pass of a stop pointer over every start, in
    plain Python: a stop below start + range_min can serve no later start
    either, so the pointer only advances."""
    counts = [0] * config.n_bins
    lo, hi, width = config.range_min_ps, config.range_max_ps, config.bin_width_ps
    j = 0
    for s in start_times:
        while j < len(stop_times) and stop_times[j] < s + lo:
            j += 1
        if j < len(stop_times) and stop_times[j] - s < hi:
            counts[(stop_times[j] - s - lo) // width] += 1
            j += 1
    return counts


def with_duplicates(rng, times, share):
    """`times` plus repeats of a random `share` of them, sorted."""
    repeats = rng.choice(times, int(share * times.size))
    return np.sort(np.concatenate([times, repeats]))


@pytest.mark.parametrize("n_starts, n_stops, range_min, range_max", [
    (300_000, 15_000, -128_064, 128_064),  # dense starts, sparse stops
    (15_000, 300_000, -128_064, 128_064),  # sparse starts, dense stops
    (200_000, 200_000, -400_000, -100_000),  # both dense, a negative range
], ids=["dense-starts", "dense-stops", "negative-range"])
def test_first_stop_matches_scan_at_scale(n_starts, n_stops, range_min, range_max):
    # the dense-starts case has the rates of the hardware-TAC HBT: ~8 MHz of
    # APD starts and ~0.4 MHz of stops
    rng = np.random.default_rng(n_starts + n_stops)
    duration = 4 * 10**10
    start_times = with_duplicates(rng, np.sort(rng.integers(0, duration, n_starts)), 0.01)
    stop_times = with_duplicates(rng, np.sort(rng.integers(0, duration, n_stops)), 0.01)
    config = HistogramConfig(32, range_min, range_max, Mode.FIRST_STOP)
    hist = tac_histogram(stream(start_times, duration), stream(stop_times, duration),
                         config)
    expected = first_stop_scan(start_times.tolist(), stop_times.tolist(), config)
    assert hist.total_counts > 1000
    assert hist.counts.tolist() == expected


@pytest.mark.parametrize("mode", list(Mode))
def test_range_beyond_int64_is_rejected(mode):
    # last start + range_max above int64; a range_min below int64 is a
    # HistogramConfig error (TestHistogramConfig.test_range_must_fit_int64)
    config = HistogramConfig(2**63 - 1, 0, 2**63 - 1, mode)
    with pytest.raises(ValueError, match=r"range \[.*\) ps overflows int64"):
        tac_histogram(stream([5, 10]), stream([7]), config)


@pytest.mark.parametrize("mode", list(Mode))
def test_range_up_to_int64_max_is_accepted(mode):
    config = HistogramConfig(1, 2**63 - 12, 2**63 - 11, mode)
    hist = tac_histogram(stream([5, 10]), stream([7]), config)
    assert hist.total_counts == 0 and hist.n_starts == 2


# 65535 bins over [-2^63, 2^63 - 1): delay - range_min reaches 2^64 - 2
WHOLE_INT64 = HistogramConfig((2**64 - 1) // 65535, -2**63, 2**63 - 1)


def whole_int64_bin(delay):
    return (delay + 2**63) // WHOLE_INT64.bin_width_ps


@pytest.mark.parametrize("mode", list(Mode))
def test_range_wider_than_2_63_bins_every_delay(mode):
    config = HistogramConfig(WHOLE_INT64.bin_width_ps, -2**63, 2**63 - 1, mode)
    hist = tac_histogram(stream([0]), stream([7]), config)
    assert hist.total_counts == hist.counts[whole_int64_bin(7)] == 1


def test_reverse_start_stop_range_wider_than_2_63():
    hist = reverse_start_stop(stream([0, 3]), stream([7], 100), WHOLE_INT64)
    assert hist.total_counts == hist.counts[whole_int64_bin(7)] == 2


def test_chunked_equals_single_pass(rng):
    starts = poisson_stream(rng, 5e7, 10**8)
    stops = poisson_stream(rng, 8e7, 10**8)
    cfg = HistogramConfig(64, -6400, 6400, Mode.ALL_STOPS)
    single = tac_histogram(starts, stops, cfg)
    for n_chunks in (1, 3, 16):
        chunked = chunked_histogram(starts, stops, cfg, n_chunks)
        assert np.array_equal(chunked.counts, single.counts)
        assert chunked.n_starts == single.n_starts


@pytest.mark.parametrize("seed", range(5))
def test_coates_corrected_first_stop_matches_all_stops(seed):
    """Coates (J. Phys. E 1, 878, 1968): FIRST_STOP records each start's
    first stop only, so bin i sees only the starts with no stop in bins
    j < i, and the stops per start in bin i are estimated by
    lambda_i = -ln(1 - C_i / (N - sum_{j<i} C_j)).  ALL_STOPS counts every
    stop, so A_i / N estimates the same lambda_i.
    """
    rng = np.random.default_rng(seed)
    n, spacing, bin_width, n_bins = 20_000, 1_000_000, 10_000, 20
    duration = n * spacing
    # 1 us apart, so 200 ns windows never overlap: each start sees its
    # first stop in window; 1e7 stops/s is 0.1 per bin, 2 per window
    starts = TagStream(np.arange(n, dtype=np.int64) * spacing, duration, 1)
    stops = poisson_stream(rng, 1e7, duration, channel=2)
    first = tac_histogram(starts, stops,
                          HistogramConfig(bin_width, 0, n_bins * bin_width,
                                          Mode.FIRST_STOP)).counts
    every = tac_histogram(starts, stops,
                          HistogramConfig(bin_width, 0, n_bins * bin_width,
                                          Mode.ALL_STOPS)).counts

    # uncorrected pile-up: FIRST_STOP decays as exp(-0.1 i), ALL_STOPS is flat
    assert first[-1] / first[0] == pytest.approx(math.exp(-1.9), abs=0.05)
    assert every[-1] / every[0] == pytest.approx(1.0, abs=0.15)

    at_risk = n - np.concatenate([[0], np.cumsum(first)[:-1]])
    p = first / at_risk
    coates = -np.log1p(-p)
    var_coates = p / ((1 - p) * at_risk)  # delta method on the binomial p
    z = (coates - every / n) / np.sqrt(var_coates + every / n**2)
    assert np.abs(z).max() < 5
    assert abs(coates.sum() - 2.0) < 5 * math.sqrt(var_coates.sum())


class TestHistogramCsv:
    def test_round_trip(self, rng, tmp_path):
        starts = poisson_stream(rng, 1e7, 10**8)
        stops = poisson_stream(rng, 1e7, 10**8)
        cfg = HistogramConfig(100, -5000, 5000, Mode.ALL_STOPS)
        hist = tac_histogram(starts, stops, cfg)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path)
        back = read_histogram_csv(path)
        assert back.config == hist.config
        assert back.n_starts == hist.n_starts
        assert np.array_equal(back.counts, hist.counts)

    def test_missing_comment(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("bin_start_ps,count\n0,1\n")
        with pytest.raises(FormatError, match="n_starts"):
            read_histogram_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# n_starts=1 bin_width_ps=10\nfoo,bar\n0,1\n")
        with pytest.raises(FormatError, match="header"):
            read_histogram_csv(path)

    def test_non_contiguous_bins(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# n_starts=1 bin_width_ps=10\nbin_start_ps,count\n0,1\n20,2\n")
        with pytest.raises(FormatError, match="contiguous"):
            read_histogram_csv(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# n_starts=1 bin_width_ps=10\nbin_start_ps,count\n0,-1\n")
        with pytest.raises(FormatError, match="nonnegative"):
            read_histogram_csv(path)

    @pytest.mark.parametrize("comment, match", [
        ("# n_starts=10 bin_width_ps=0", "bin_width_ps must be > 0"),
        ("# n_starts=10 bin_width_ps=-10", "bin_width_ps must be > 0"),
        ("# n_starts=ten bin_width_ps=10", "non-integer"),
        ("# n_starts=10 bin_width_ps=1.5", "non-integer"),
        ("# n_starts= bin_width_ps=10", "non-integer"),
        ("# n_starts=-5 bin_width_ps=10", "n_starts must be >= 0"),
        ("# n_starts=10 bin_width_ps=99999999999999999999", "out-of-range"),
        ("# n_starts=99999999999999999999 bin_width_ps=10", "out-of-range"),
    ])
    @pytest.mark.parametrize("n_rows", [1, 2])
    def test_bad_comment_values(self, tmp_path, comment, match, n_rows):
        path = tmp_path / "h.csv"
        rows = "".join(f"{10 * i},1\n" for i in range(n_rows))
        path.write_text(f"{comment}\nbin_start_ps,count\n{rows}")
        with pytest.raises(FormatError, match=match):
            read_histogram_csv(path)

    def test_count_above_int64(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# n_starts=1 bin_width_ps=10\nbin_start_ps,count\n"
                        "0,1\n10,99999999999999999999\n")
        with pytest.raises(FormatError, match=r"h\.csv:4: value outside int64"):
            read_histogram_csv(path)

    def test_last_bin_past_int64(self, tmp_path):
        path = tmp_path / "h.csv"
        last = 2**63 - 5  # a valid bin start whose bin ends past int64
        path.write_text(f"# n_starts=1 bin_width_ps=10\nbin_start_ps,count\n"
                        f"{last - 10},1\n{last},2\n")
        with pytest.raises(FormatError, match=r"h\.csv: range .* leaves int64"):
            read_histogram_csv(path)

    def test_zero_starts_accepted(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("# n_starts=0 bin_width_ps=10\nbin_start_ps,count\n0,0\n")
        assert read_histogram_csv(path).n_starts == 0


def test_histogram_rejects_counts_of_the_wrong_length():
    with pytest.raises(ValueError, match="counts length 3 does not match config"):
        Histogram(HistogramConfig(10, 0, 40), [1, 2, 3], 1)


def test_histogram_rejects_negative_n_starts():
    cfg = HistogramConfig(10, 0, 20)
    with pytest.raises(ValueError, match="n_starts"):
        Histogram(cfg, np.zeros(2, np.int64), -5)
    assert Histogram(cfg, np.zeros(2, np.int64), 0).n_starts == 0


@pytest.mark.parametrize("n_starts", [3.0, np.float64(3.0), "3", None])
def test_histogram_rejects_non_integer_n_starts(n_starts):
    with pytest.raises(ValueError, match="n_starts must be an integer, got"):
        Histogram(HistogramConfig(10, 0, 20), np.zeros(2, np.int64), n_starts)


def test_histogram_with_numpy_int_n_starts_round_trips(tmp_path):
    hist = Histogram(HistogramConfig(10, 0, 20), np.array([1, 2]), np.int64(3))
    assert type(hist.n_starts) is int
    write_histogram_csv(hist, tmp_path / "h.csv")
    assert (tmp_path / "h.csv").read_text().startswith("# n_starts=3 bin_width_ps=10\n")
    assert read_histogram_csv(tmp_path / "h.csv").n_starts == 3
