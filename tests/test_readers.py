"""The CSV layout every text reader shares, and reader robustness.

All five on-disk readers (timetag CSV and TTAG1, histogram, DE sweep,
bias curve) must either return a usable object or raise FormatError,
whatever bytes the file holds.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from photon_correlator import (
    FormatError,
    read_bias_curve,
    read_de_sweep,
    read_histogram_csv,
    read_tags,
    write_tags,
)
from photon_correlator.timetags import read_csv_rows, write_csv_rows


def _write_back(stream, path):
    write_tags(stream, path.with_name("back.ttag"))


def _bin_centers(hist, path):
    hist.bin_centers()


# reader, and a use of what it returns that must not fail either
READERS = [
    ("tags.csv", read_tags, _write_back),
    ("tags.ttag", read_tags, _write_back),
    ("hist.csv", read_histogram_csv, _bin_centers),
    ("sweep.csv", read_de_sweep, lambda points, path: None),
    ("bias.csv", read_bias_curve, lambda curve, path: None),
]

# fragments that reach past the header and magic checks into the parsers
TOKENS = [
    b"channel,timestamp_ps", b"bin_start_ps,count", b"mu,rate_hz",
    b"bias_fraction,efficiency,dark_rate_hz", b"#", b" duration_ps=",
    b" n_starts=", b" bin_width_ps=", b"0", b"1", b"10", b"255", b"256", b"-1",
    b"0.5", b"nan", b"inf", b"1e999", b"9223372036854775807",
    b"99999999999999999999", b",", b" ", b"=", b"\n", b"\r\n", b"\r", b"\xff",
    b"\xc3", b"\x00",
]

CONTENT = st.one_of(
    st.binary(max_size=120),
    st.lists(st.sampled_from(TOKENS), max_size=40).map(b"".join),
    st.binary(max_size=60).map(lambda b: b"TTAG\x01\x00" + b),
)


@pytest.mark.parametrize("name, reader, use", READERS, ids=[r[0] for r in READERS])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=CONTENT)
def test_reader_returns_or_raises_format_error(tmp_path, name, reader, use, data):
    path = tmp_path / name
    path.write_bytes(data)
    try:
        result = reader(path)
    except FormatError:
        return
    use(result, path)


@pytest.mark.parametrize("name, reader, header", [
    ("tags.csv", read_tags, "channel,timestamp_ps"),
    ("hist.csv", read_histogram_csv, "bin_start_ps,count"),
    ("sweep.csv", read_de_sweep, "mu,rate_hz"),
    ("bias.csv", read_bias_curve, "bias_fraction,efficiency,dark_rate_hz"),
])
def test_non_utf8_byte_is_format_error(tmp_path, name, reader, header):
    path = tmp_path / name
    path.write_bytes(b"# n_starts=1 bin_width_ps=10\n" + header.encode()
                     + b"\n0,1\xff\n")
    with pytest.raises(FormatError, match=r":3: .*utf-8"):
        reader(path)


def test_shared_layout(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\n# a=1 b=x=y note\n\n a , b \n1,2\n\n#c=3\n-4,5\n")
    meta, rows = read_csv_rows(path, "a,b")
    assert meta == {"a": "1", "b": "x=y", "c": "3"}
    assert rows.dtype == np.int64
    assert rows.tolist() == [[1, 2], [-4, 5]]
    meta, rows = read_csv_rows(path, "a,b", lambda fields: tuple(fields))
    assert rows == [("1", "2"), ("-4", "5")]


def test_field_count_comes_from_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n1,2\n")
    with pytest.raises(FormatError, match=r":3: expected 3 fields, got 2"):
        read_csv_rows(path, "a,b,c")


def test_missing_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# only=comments\n\n")
    with pytest.raises(FormatError, match="missing 'a,b' header"):
        read_csv_rows(path, "a,b")


def test_parse_row_errors_name_the_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n1,x\n")
    with pytest.raises(FormatError, match=r"t\.csv:3: "):
        read_csv_rows(path, "a,b")


def test_writer_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv_rows(path, "a,b", [(1, 0.5), (-2, 1e-300)], comment="k=v")
    assert path.read_text() == "# k=v\na,b\n1,0.5\n-2,1e-300\n"
    meta, rows = read_csv_rows(path, "a,b",
                               lambda fields: (int(fields[0]), float(fields[1])))
    assert meta == {"k": "v"}
    assert rows == [(1, 0.5), (-2, 1e-300)]


@pytest.mark.parametrize("name, reader, text, view", [
    ("hist.csv", read_histogram_csv,
     "# n_starts=7 bin_width_ps=10\nbin_start_ps,count\n-10,3\n0,5\n",
     lambda h: (h.config, h.counts.tolist(), h.n_starts)),
    ("sweep.csv", read_de_sweep, "mu,rate_hz\n0.01,12.5\n1,830\n", list),
], ids=["hist.csv", "sweep.csv"])
def test_byte_order_mark_is_skipped(tmp_path, name, reader, text, view):
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert view(reader(marked)) == view(reader(plain))
