import numpy as np
import pytest

from photon_correlator import (
    FormatError,
    TagStream,
    filter_channel,
    merge_streams,
    read_tags,
    write_tags,
)

from conftest import random_stream


def pairs(stream):
    return list(zip(stream.channels.tolist(), stream.times.tolist()))


def test_stream_rejects_unsorted_and_names_index():
    with pytest.raises(ValueError, match="index 2"):
        TagStream.from_pairs([(0, 10), (0, 20), (0, 15)], duration_ps=100)


def test_stream_rejects_equal_time_channel_inversion():
    with pytest.raises(ValueError, match="not sorted"):
        TagStream.from_pairs([(1, 10), (0, 10)], duration_ps=100)
    # ascending channel at equal time is fine
    s = TagStream.from_pairs([(0, 10), (1, 10)], duration_ps=100)
    assert len(s) == 2


def test_stream_rejects_out_of_window_tags():
    with pytest.raises(ValueError, match=">= duration"):
        TagStream.from_pairs([(0, 100)], duration_ps=100)
    with pytest.raises(ValueError, match="< 0"):
        TagStream(np.array([0], np.uint8), np.array([-1], np.int64), 100)


def test_stream_rejects_bad_channel():
    with pytest.raises(ValueError, match="channel"):
        TagStream.from_pairs([(300, 10)], duration_ps=100)


def test_merge_empty_streams():
    merged = merge_streams([TagStream.empty(50), TagStream.empty(50)])
    assert len(merged) == 0
    assert merged.duration_ps == 50


def test_merge_channel_tie_break():
    a = TagStream.from_pairs([(0, 5)], 10)
    b = TagStream.from_pairs([(1, 5)], 10)
    merged = merge_streams([b, a])
    assert pairs(merged) == [(0, 5), (1, 5)]


def test_merge_matches_concat_sort_oracle(rng):
    streams = [random_stream(rng, 10_000, 10**9) for _ in range(2)]
    merged = merge_streams(streams)
    oracle = sorted(
        [(int(t), int(c)) for s in streams for c, t in zip(s.channels, s.times)]
    )
    assert [(int(t), int(c)) for c, t in zip(merged.channels, merged.times)] == oracle


def test_merge_associative_commutative(rng):
    a, b, c = (random_stream(rng, 500, 10**6) for _ in range(3))
    ab_c = merge_streams([merge_streams([a, b]), c])
    a_bc = merge_streams([a, merge_streams([b, c])])
    cba = merge_streams([c, b, a])
    assert ab_c == a_bc == cba


def test_merge_duration_mismatch():
    with pytest.raises(ValueError, match="duration mismatch"):
        merge_streams([TagStream.empty(10), TagStream.empty(20)])
    with pytest.raises(ValueError, match="at least one"):
        merge_streams([])


def test_filter_channel_basic():
    s = TagStream.from_pairs([(0, 1), (1, 2), (0, 3)], 10)
    f = filter_channel(s, 0)
    assert pairs(f) == [(0, 1), (0, 3)]
    assert len(filter_channel(TagStream.empty(5), 0)) == 0


def test_filter_channel_partition_counts(rng):
    s = random_stream(rng, 5000, 10**7, n_channels=4)
    total = sum(len(filter_channel(s, c)) for c in range(4))
    assert total == len(s)


def test_binary_round_trip_random(rng, tmp_path):
    s = random_stream(rng, 100_000, 10**10)
    path = tmp_path / "tags.ttag"
    write_tags(s, path)
    assert read_tags(path) == s


def test_binary_round_trip_empty(tmp_path):
    s = TagStream.empty(12345)
    path = tmp_path / "empty.ttag"
    write_tags(s, path)
    back = read_tags(path)
    assert back == s
    assert back.duration_ps == 12345


def test_csv_round_trip(rng, tmp_path):
    s = random_stream(rng, 1000, 10**8)
    path = tmp_path / "tags.csv"
    write_tags(s, path)
    assert read_tags(path) == s


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.ttag"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(FormatError, match="bad magic"):
        read_tags(path)


def test_binary_bad_version(tmp_path):
    path = tmp_path / "bad.ttag"
    path.write_bytes(b"TTAG" + (9).to_bytes(2, "little") + bytes(9))
    with pytest.raises(FormatError, match="version"):
        read_tags(path)


def test_binary_truncated_record(rng, tmp_path):
    s = random_stream(rng, 10, 1000)
    path = tmp_path / "trunc.ttag"
    write_tags(s, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(FormatError, match="truncated record"):
        read_tags(path)


def test_binary_unsorted_content(tmp_path):
    good = TagStream.from_pairs([(0, 10), (0, 20)], 100)
    path = tmp_path / "unsorted.ttag"
    write_tags(good, path)
    raw = bytearray(path.read_bytes())
    # swap the two 9-byte records
    raw[15:24], raw[24:33] = raw[24:33], raw[15:24]
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="not sorted"):
        read_tags(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,chan\n1,2\n")
    with pytest.raises(FormatError, match="header"):
        read_tags(path)


def test_csv_without_duration_comment(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("channel,timestamp_ps\n0,5\n1,9\n")
    s = read_tags(path)
    assert s.duration_ps == 10
    assert len(s) == 2


def test_round_trip_many_random_streams(tmp_path):
    rng = np.random.default_rng(5)
    for i in range(50):
        s = random_stream(rng, int(rng.integers(0, 300)), int(rng.integers(1, 10**6)))
        path = tmp_path / f"s{i}.ttag"
        write_tags(s, path)
        assert read_tags(path) == s


def test_subset_by_mask_and_slice(rng):
    s = random_stream(rng, 1000, 10**6)
    mask = s.channels != 1
    assert s.subset(mask) == TagStream(s.channels[mask], s.times[mask], 10**6)
    assert s.subset(slice(100, 200)) == TagStream(s.channels[100:200],
                                                  s.times[100:200], 10**6)
    assert len(s.subset(slice(0, 0))) == 0


def test_single_channel_stream_checks_the_window():
    s = TagStream.single_channel(np.array([0, 4, 4, 9]), 10, 7)
    assert pairs(s) == [(7, 0), (7, 4), (7, 4), (7, 9)]
    with pytest.raises(ValueError, match="duration_ps=10"):
        TagStream.single_channel(np.array([3, 10]), 10, 7)
    with pytest.raises(ValueError, match="< 0"):
        TagStream.single_channel(np.array([-1, 3]), 10, 7)


def test_arrays_are_read_only(rng):
    s = random_stream(rng, 10, 1000)
    with pytest.raises(ValueError):
        s.times[0] = 0


def test_stream_takes_ownership_of_its_arrays():
    channels = np.zeros(3, np.uint8)
    times = np.array([1, 2, 3], np.int64)
    s = TagStream(channels, times, 10)
    # no copy: the stream keeps the given arrays and freezes them
    assert np.shares_memory(s.channels, channels)
    assert np.shares_memory(s.times, times)
    assert not channels.flags.writeable and not times.flags.writeable
    with pytest.raises(ValueError):
        times[0] = 0


def test_stream_rejects_out_of_range_channel_array():
    # a channel above 255 must not wrap (300 would become 44 as uint8)
    with pytest.raises(ValueError, match="channel outside"):
        TagStream(np.array([300]), [1], 10)
    with pytest.raises(ValueError, match="channel outside"):
        TagStream(np.array([-1]), [1], 10)


def test_csv_channel_out_of_range(tmp_path):
    path = tmp_path / "tags.csv"
    path.write_text("channel,timestamp_ps\n300,1\n")
    with pytest.raises(FormatError, match="channel outside"):
        read_tags(path)


def test_csv_timestamp_above_int64(tmp_path):
    path = tmp_path / "tags.csv"
    path.write_text("channel,timestamp_ps\n0,1\n\n0,99999999999999999999\n")
    with pytest.raises(FormatError, match=r"tags\.csv:4: value outside int64"):
        read_tags(path)


@pytest.mark.parametrize("duration, match", [
    ("soon", "soon"),
    ("-1", "duration_ps must be in"),
    ("99999999999999999999", "duration_ps must be in"),
])
def test_csv_bad_duration_comment(tmp_path, duration, match):
    path = tmp_path / "tags.csv"
    path.write_text(f"# duration_ps={duration}\nchannel,timestamp_ps\n")
    with pytest.raises(FormatError, match=match):
        read_tags(path)


def test_binary_rejects_more_channels_than_the_count_byte_holds(tmp_path):
    stream = TagStream(np.arange(256, dtype=np.uint8), np.arange(256), 1000)
    with pytest.raises(ValueError, match="one byte.*at most 255"):
        write_tags(stream, tmp_path / "c.ttag")
    # 255 channels still fit
    write_tags(TagStream(np.arange(255, dtype=np.uint8), np.arange(255), 1000),
               tmp_path / "ok.ttag")
    assert len(read_tags(tmp_path / "ok.ttag")) == 255
