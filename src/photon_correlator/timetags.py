"""Timestamped detection events and their on-disk formats.

Every timing quantity in the package is carried as an integer number of
picoseconds (no floating-point timestamps anywhere), so multi-second runs
at tens of MHz never accumulate rounding drift.  A stream is one
detector's (or the sync photodiode's) tags: sorted times on one channel,
as each feeds its own TAC input.

A timetag file likewise holds one channel.  Two interchange formats are
supported:

* Binary "TTAG1": magic ``TTAG``, u16 version (=1), i64 duration_ps,
  u8 channel count (1, or 0 for a file without tags), then 9-byte records
  (u8 channel, i64 t), all little-endian, records sorted.
* Text: CSV with header ``channel,timestamp_ps``.  Our writer prepends a
  ``# duration_ps=<N>`` comment so the observation window survives a
  round trip; readers accept files without it and fall back to
  (last tag + 1).

Readers reject a file whose tags span more than one channel; a file
without tags reads as channel 0.  TTAG1 is written and read one block of
2^14 records at a time; the reader sizes the times from the file length.

`read_csv_rows` and `write_csv_rows` hold the CSV layout that every text
format of the package (also histograms, DE sweeps, bias curves) shares.
"""

import itertools
import operator
import os
import struct

import numpy as np

from .errors import FormatError
from .rng import _BLOCK

TTAG_MAGIC = b"TTAG"
TTAG_VERSION = 1
CHANNEL_MAX = 255

_HEADER = struct.Struct("<HqB")  # after the magic: version, duration, channel count
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("t", "<i8")])
_CSV_ROWS = 2**10  # tens of KiB of text: formatting more at once is slower


class TagStream:
    """One channel's time tags over a fixed observation window: a sorted,
    read-only int64 array of times, the window length and the channel.

    Every stream is built here, and every stream is checked: times must be
    non-decreasing and lie in [0, duration_ps).  The stream takes ownership
    of the array it is given: an int64 input is not copied but made
    read-only in place, so the caller can no longer write to it.
    """

    __slots__ = ("times", "duration_ps", "channel")

    def __init__(self, times, duration_ps, channel):
        times = np.asarray(times, dtype=np.int64)
        try:  # a numpy int passes, a float does not
            duration_ps, channel = operator.index(duration_ps), operator.index(channel)
        except TypeError:
            raise ValueError(f"duration_ps and channel must be integers, got "
                             f"{duration_ps!r} and {channel!r}") from None
        if times.ndim != 1:
            raise ValueError("times must be a 1-d array")
        if not 0 <= channel <= CHANNEL_MAX:
            raise ValueError(f"channel outside [0, {CHANNEL_MAX}]: {channel}")
        for start in range(0, times.size, _BLOCK):  # a block's mask at a time
            block = times[start:start + _BLOCK + 1]  # and the next block's first
            unsorted = block[1:] < block[:-1]
            if unsorted.any():
                idx = start + int(np.argmax(unsorted)) + 1
                raise ValueError(f"tags not sorted: violation at index {idx} "
                                 f"(t={int(times[idx])})")
        if times.size:
            if times[0] < 0:
                raise ValueError(f"tag time {times[0]} < 0")
            if times[-1] >= duration_ps:
                raise ValueError(f"tag time {times[-1]} >= duration_ps={duration_ps}")
        if not 0 <= duration_ps < 2**63:
            raise ValueError(f"duration_ps must be in [0, 2^63), got {duration_ps}")
        times.setflags(write=False)
        self.times = times
        self.duration_ps = duration_ps
        self.channel = channel

    def __len__(self):
        return int(self.times.size)

    def __eq__(self, other):
        if not isinstance(other, TagStream):
            return NotImplemented
        return ((self.duration_ps, self.channel) == (other.duration_ps, other.channel)
                and np.array_equal(self.times, other.times))

    def __repr__(self):
        return (f"TagStream({len(self)} tags, duration_ps={self.duration_ps}, "
                f"channel={self.channel})")


def write_tags(stream, path, format=None):
    """Write a stream to `path` in TTAG1 binary (default) or CSV format.

    `format` is "binary", "csv", or None to infer from the file suffix
    (".csv" selects text, anything else binary).
    """
    (_write_csv if _is_csv(path, format) else _write_binary)(stream, path)


def read_tags(path, format=None):
    """Read a stream from `path` (same format selection as `write_tags`)."""
    return (_read_csv if _is_csv(path, format) else _read_binary)(path)


def _is_csv(path, format):
    fmt = format or ("csv" if str(path).lower().endswith(".csv") else "binary")
    if fmt not in ("binary", "csv"):
        raise ValueError(f"unknown timetag format {format!r}")
    return fmt == "csv"


def _write_binary(stream, path):
    records = np.empty(min(len(stream), _BLOCK), dtype=_RECORD_DTYPE)
    records["channel"] = stream.channel
    with open(path, "wb") as fh:
        fh.write(TTAG_MAGIC + _HEADER.pack(TTAG_VERSION, stream.duration_ps,
                                           min(len(stream), 1)))
        for start in range(0, len(stream), _BLOCK):
            block = records[:len(stream) - start]
            block["t"] = stream.times[start:start + _BLOCK]
            fh.write(block)  # through the buffer protocol: no copy


def _read_binary(path):
    with open(path, "rb") as fh:
        head = fh.read(15)
        if len(head) < 15:
            raise FormatError(f"{path}: truncated TTAG1 header ({len(head)} bytes)")
        if head[:4] != TTAG_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}, expected {TTAG_MAGIC!r}")
        version, duration, n_channels = _HEADER.unpack_from(head, len(TTAG_MAGIC))
        if version != TTAG_VERSION:
            raise FormatError(f"{path}: unsupported TTAG version {version}")
        n_bytes = os.fstat(fh.fileno()).st_size - 15
        if n_bytes % _RECORD_DTYPE.itemsize:
            raise FormatError(f"{path}: truncated record ({n_bytes} bytes is not a "
                              f"multiple of 9)")
        times = np.empty(n_bytes // _RECORD_DTYPE.itemsize, dtype=np.int64)
        records = np.empty(min(times.size, _BLOCK), dtype=_RECORD_DTYPE)
        channel = 0
        for start in range(0, times.size, _BLOCK):
            block = records[:times.size - start]
            if fh.readinto(block) != block.nbytes:  # through the buffer protocol
                raise FormatError(f"{path}: truncated record (the file shrank)")
            channel = _file_channel(path, block["channel"], channel if start else None)
            times[start:start + block.size] = block["t"]
    if n_channels != min(times.size, 1):
        raise FormatError(f"{path}: header says {n_channels} channels, "
                          f"records hold {min(times.size, 1)}")
    try:
        return TagStream(times, duration, channel)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _file_channel(path, channels, first=None):
    """The one channel all tags of a file carry: those of `channels`, after
    any tags on channel `first`; 0 for a file without tags."""
    if not channels.size:
        return 0
    first = channels[0] if first is None else first
    if (channels != first).any():
        raise FormatError(f"{path}: tags on more than one channel; "
                          f"a timetag file holds one channel")
    return int(first)


CSV_HEADER = "channel,timestamp_ps"


def _write_csv(stream, path):
    times = itertools.chain.from_iterable(stream.times[begin:begin + _BLOCK].tolist()
                                          for begin in range(0, len(stream), _BLOCK))
    write_csv_rows(path, CSV_HEADER, zip(itertools.repeat(stream.channel), times),
                   comment=f"duration_ps={stream.duration_ps}")


def _read_csv(path):
    meta, rows = read_csv_rows(path, CSV_HEADER)
    channel = _file_channel(path, rows[:, 0])
    default = int(rows[-1, 1]) + 1 if len(rows) else 0
    try:
        duration = int(meta.get("duration_ps", default))
        return TagStream(rows[:, 1], duration, channel)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_csv_rows(path, header, rows, comment=None):
    """Write `rows` (tuples of ints or floats, as many as `header` has fields)
    as CSV under `header`, after a ``# comment`` line if given, `_CSV_ROWS` rows a write."""
    line, rows = ",".join(["%s"] * (header.count(",") + 1)) + "\n", iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        while block := list(itertools.islice(rows, _CSV_ROWS)):
            fh.write(line * len(block) % tuple(itertools.chain.from_iterable(block)))


def read_csv_rows(path, header, parse_row=None):
    """Read a CSV file in the layout all text formats share.

    The file is UTF-8.  Blank lines are skipped; ``#`` lines are comments
    whose ``key=value`` tokens are collected into `meta`.  The first other
    line must equal `header` (spaces ignored), and every later line must
    have as many comma-separated fields as the header.  Each row becomes
    ``parse_row(fields)``; without `parse_row` all fields are integers and
    the rows come back as an (n, n_fields) int64 array.  Any malformed
    line or value raises FormatError naming the path and line.

    Returns (meta, rows).
    """
    n_fields = header.count(",") + 1
    meta, cells, linenos = {}, [], []
    header_seen = False
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                if line.startswith("#"):
                    meta.update(t.split("=", 1) for t in line[1:].split() if "=" in t)
                    continue
                if not header_seen:
                    if line.replace(" ", "") != header:
                        raise ValueError(f"expected header {header!r}, got {line!r}")
                    header_seen = True
                    continue
                fields = line.split(",")
                if len(fields) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            cells.extend(fields)
            linenos.append(lineno)
    if not header_seen:
        raise FormatError(f"{path}: missing {header!r} header")
    # convert all rows at once; only a failure goes row by row to name the line
    parse = parse_row or (lambda fields: np.array(fields, dtype=np.int64))
    try:
        if parse_row is None:
            return meta, parse(cells).reshape(-1, n_fields)
        return meta, [parse(cells[i:i + n_fields])
                      for i in range(0, len(cells), n_fields)]
    except (ValueError, OverflowError):
        for i, lineno in enumerate(linenos):
            try:
                parse(cells[i * n_fields:(i + 1) * n_fields])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            except OverflowError as exc:
                raise FormatError(f"{path}:{lineno}: value outside int64") from exc
        raise
