import os

import numpy as np
import pytest

from photon_correlator import FormatError, TagStream, read_tags, write_tags

from conftest import empty_stream, random_stream


def ttag1_bytes(duration_ps, count_byte, records):
    """A TTAG1 file built by hand from (channel, t) records."""
    body = np.array(records, dtype=[("channel", "u1"), ("t", "<i8")]).tobytes()
    return (b"TTAG" + (1).to_bytes(2, "little") + duration_ps.to_bytes(8, "little")
            + bytes([count_byte]) + body)


def test_stream_rejects_unsorted_and_names_index():
    with pytest.raises(ValueError, match="index 2"):
        TagStream([10, 20, 15], 100, 0)


def test_stream_rejects_out_of_window_tags():
    with pytest.raises(ValueError, match=">= duration"):
        TagStream([100], 100, 0)
    with pytest.raises(ValueError, match="< 0"):
        TagStream(np.array([-1], np.int64), 100, 0)


@pytest.mark.parametrize("channel", [256, 300, -1])
def test_stream_rejects_out_of_range_channel(channel):
    # a channel above 255 must not wrap (300 would become 44 as uint8)
    with pytest.raises(ValueError, match="channel outside"):
        TagStream([1], 10, channel)
    TagStream([1], 10, 255)


@pytest.mark.parametrize("duration", [12.9, 12.0, float("inf"), float("nan"), "12"])
def test_stream_rejects_a_duration_that_is_not_an_integer(duration):
    # a float window is refused, not truncated to whole picoseconds
    with pytest.raises(ValueError, match="duration_ps and channel must be integers"):
        TagStream([1, 2], duration, 0)


def test_stream_rejects_two_dimensional_times():
    with pytest.raises(ValueError, match="1-d array"):
        TagStream(np.zeros((2, 2), np.int64), 100, 0)


def test_stream_repr_names_its_size_window_and_channel():
    assert repr(TagStream([1, 2, 3], 100, 7)) == "TagStream(3 tags, duration_ps=100, channel=7)"


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "tags.bin"
    with pytest.raises(ValueError, match="unknown timetag format 'hdf5'"):
        write_tags(TagStream([1], 10, 0), path, format="hdf5")
    with pytest.raises(ValueError, match="unknown timetag format 'hdf5'"):
        read_tags(path, format="hdf5")


def test_stream_takes_numpy_integers():
    stream = TagStream([1, 2], np.int64(13), np.uint8(3))
    assert type(stream.duration_ps) is int and type(stream.channel) is int
    assert stream == TagStream([1, 2], 13, 3)


def test_binary_round_trip_random(rng, tmp_path):
    s = random_stream(rng, 100_000, 10**10, channel=200)
    path = tmp_path / "tags.ttag"
    write_tags(s, path)
    assert read_tags(path) == s


def test_binary_round_trip_empty(tmp_path):
    s = empty_stream(12345)
    path = tmp_path / "empty.ttag"
    write_tags(s, path)
    back = read_tags(path)
    assert back == s
    assert back.duration_ps == 12345
    assert path.read_bytes()[14] == 0


@pytest.mark.parametrize("n_tags", [2**14 - 1, 2**14, 2**14 + 1])
def test_binary_round_trip_at_the_block_edges(tmp_path, n_tags):
    # the writer fills one block of 2^14 records at a time
    s = random_stream(np.random.default_rng(n_tags), n_tags, 10**10, channel=9)
    path = tmp_path / "tags.ttag"
    write_tags(s, path)
    assert path.read_bytes() == ttag1_bytes(10**10, 1, [(9, t) for t in s.times])
    back = read_tags(path)
    assert back == s and back.times.flags.c_contiguous


@pytest.mark.parametrize("n_tags", [2**14 - 1, 2**14, 2**14 + 1])
@pytest.mark.parametrize("cut", [1, 8])
def test_binary_truncated_body_at_the_block_edges(tmp_path, n_tags, cut):
    path = tmp_path / "trunc.ttag"
    write_tags(TagStream(np.arange(n_tags), n_tags, 2), path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(FormatError, match="truncated record"):
        read_tags(path)


@pytest.mark.parametrize("n_second", [1, 3])
def test_binary_second_channel_first_in_block_2_is_a_format_error(tmp_path, n_second):
    # the reader checks a block of 2^14 records at a time: block 2 is all on
    # another channel, or starts with one record on it
    records = ([(4, t) for t in range(2**14)]
               + [(5, 2**14 + t) for t in range(n_second)] + [(4, 2**15)] * (n_second == 1))
    path = tmp_path / "two.ttag"
    path.write_bytes(ttag1_bytes(2**16, 1, records))
    with pytest.raises(FormatError, match=r"two\.ttag: tags on more than one channel"):
        read_tags(path)


@pytest.mark.parametrize("index", [1, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 6])
def test_stream_names_the_first_unsorted_index_at_the_block_edges(index):
    # the order is checked a block of 2^14 tags at a time, each block against
    # the tag before it; a second violation later must not be named instead
    times = np.arange(3 * 2**14 + 7) * 10
    times[index] = times[index - 1] - 1
    times[-1] = 0
    with pytest.raises(ValueError, match=f"violation at index {index} "):
        TagStream(times, 10**6, 0)


def test_csv_round_trip(rng, tmp_path):
    s = random_stream(rng, 1000, 10**8, channel=3)
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


def test_binary_file_that_shrinks_while_read(tmp_path, monkeypatch):
    # fstat sees one record more than the file holds when it is read
    path = tmp_path / "t.ttag"
    write_tags(TagStream([1, 2, 3], 10, 0), path)
    fstat = os.fstat

    def grown(fd):
        st = fstat(fd)
        return os.stat_result((*st[:6], st.st_size + 9, *st[7:]))

    monkeypatch.setattr(os, "fstat", grown)
    with pytest.raises(FormatError, match="the file shrank"):
        read_tags(path)


def test_binary_unsorted_content(tmp_path):
    good = TagStream([10, 20], 100, 0)
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
    path.write_text("channel,timestamp_ps\n1,5\n1,9\n")
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


def test_stream_keeps_equal_times_and_checks_the_window():
    s = TagStream(np.array([0, 4, 4, 9]), 10, 7)
    assert s.times.tolist() == [0, 4, 4, 9] and s.channel == 7
    with pytest.raises(ValueError, match="duration_ps=10"):
        TagStream(np.array([3, 10]), 10, 7)
    with pytest.raises(ValueError, match="< 0"):
        TagStream(np.array([-1, 3]), 10, 7)


def test_streams_on_different_channels_differ():
    assert TagStream([1, 2], 10, 1) != TagStream([1, 2], 10, 2)


def test_arrays_are_read_only(rng):
    s = random_stream(rng, 10, 1000)
    with pytest.raises(ValueError):
        s.times[0] = 0


def test_stream_takes_ownership_of_its_array():
    times = np.array([1, 2, 3], np.int64)
    s = TagStream(times, 10, 0)
    # no copy: the stream keeps the given array and freezes it
    assert np.shares_memory(s.times, times)
    assert not times.flags.writeable
    with pytest.raises(ValueError):
        times[0] = 0


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


def test_binary_file_holds_the_stream_channel(tmp_path):
    path = tmp_path / "c.ttag"
    write_tags(TagStream([3, 8], 10, 5), path)
    assert path.read_bytes() == ttag1_bytes(10, 1, [(5, 3), (5, 8)])


def test_binary_two_channels_is_a_format_error(tmp_path):
    path = tmp_path / "two.ttag"
    path.write_bytes(ttag1_bytes(100, 2, [(1, 10), (2, 20)]))
    with pytest.raises(FormatError, match=r"two\.ttag: tags on more than one channel"):
        read_tags(path)


def test_csv_two_channels_is_a_format_error(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("channel,timestamp_ps\n0,5\n1,9\n")
    with pytest.raises(FormatError, match=r"two\.csv: tags on more than one channel"):
        read_tags(path)


@pytest.mark.parametrize("count_byte, records", [
    (0, [(4, 10)]),
    (2, [(4, 10), (4, 20)]),
    (1, []),
])
def test_binary_count_byte_must_match_records(tmp_path, count_byte, records):
    path = tmp_path / "count.ttag"
    path.write_bytes(ttag1_bytes(100, count_byte, records))
    with pytest.raises(FormatError, match=r"count\.ttag: header says"):
        read_tags(path)


@pytest.mark.parametrize("name, content", [
    ("empty.ttag", ttag1_bytes(50, 0, [])),
    ("empty.csv", b"# duration_ps=50\nchannel,timestamp_ps\n"),
])
def test_empty_file_reads_as_channel_zero(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    assert read_tags(path) == TagStream([], 50, 0)


@pytest.mark.parametrize("suffix", [".ttag", ".csv"])
def test_empty_stream_channel_is_not_stored(tmp_path, suffix):
    # only records carry the channel, so an empty stream comes back on 0
    path = tmp_path / f"empty{suffix}"
    write_tags(TagStream([], 50, 9), path)
    assert read_tags(path) == TagStream([], 50, 0)
