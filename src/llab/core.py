"""Latency trace data model and serialization.

A trace is an ordered sequence of probe samples taken at a nominal send
interval. Delay fields are integer nanoseconds so file round-trips are
exact. Lost probes keep their row (seq and send time with every delay
absent) so the sample position always reflects the send schedule; period
alignment downstream depends on that.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import _num
from ._num import finite_median_count, frozen, map_blocks, map_workers
from .defaults import DEFAULT_DT_NS, DIRECTIONS
from .errors import DuplicateSeq, EmptyTrace, MalformedRow

#: Slack allowed before a round trip is flagged as shorter than the sum of
#: its one-way parts (separate probe paths may disagree by clock noise).
DELAY_SPLIT_EPSILON_NS = 1_000_000

CSV_HEADER = "seq,t_send_ns,ul_ns,dl_ns,rtt_ns,lost"

#: Sentinel for an absent delay in columnar storage.
ABSENT = -1

#: The largest value of the int64 columns every parsed field is stored in.
_INT64_MAX = int(np.iinfo(np.int64).max)

#: Period quality labels used by ground truth and classification.
GOOD = "Good"
DEGRADED = "Degraded"
#: A period is Good when at least this share of its latencies meets the target.
MEET_FRACTION_GOOD = 0.99

#: Share of delivered rows on which a delay direction must be present for
#: the trace to count as carrying that direction.
DIRECTION_COVERAGE = 0.99

#: The columns of a :class:`Trace`, in CSV order, with their dtypes.
COLUMNS = {"seq": np.uint64, "t_send": np.int64, "ul": np.int64, "dl": np.int64,
           "rtt": np.int64, "lost": np.bool_}


@dataclass(frozen=True, eq=False)
class Trace:
    """Ordered probe samples at a nominal send interval.

    Storage is columnar: int64 nanosecond arrays with ``ABSENT`` (-1)
    standing for a missing measurement, which keeps multi-hour traces cheap
    to scan. Arrays are read-only; treat a Trace as a value.
    """

    seq: np.ndarray
    t_send: np.ndarray
    ul: np.ndarray
    dl: np.ndarray
    rtt: np.ndarray
    lost: np.ndarray
    dt_nominal: int

    def __post_init__(self) -> None:
        for name, dtype in COLUMNS.items():
            object.__setattr__(self, name, frozen(getattr(self, name), dtype))
        n = len(self.seq)
        if any(len(getattr(self, name)) != n for name in COLUMNS):
            raise ValueError("column lengths differ")
        if self.dt_nominal <= 0:
            raise ValueError("dt_nominal must be positive")
        seq = self.seq  # as stored: no copy, nothing to wrap
        increasing = bool(np.all(seq[1:] > seq[:-1]))  # then its last value is its largest
        if n and int(seq[-1] if increasing else seq.max()) > _INT64_MAX:  # parsed seq is int64
            raise ValueError(f"seq must lie in [0, 2**63 - 1], got {int(seq.max())}")
        if not increasing:  # a duplicate anywhere is named before any decrease
            same = seq[1:] == seq[:-1]
            if same.any():
                raise DuplicateSeq(f"duplicate seq {int(seq[int(np.argmax(same))])}")
            raise ValueError("seq must be strictly increasing")
        if np.any(self.t_send[1:] < self.t_send[:-1]):  # a diff could wrap
            raise ValueError("t_send must be non-decreasing")
        if n and self.t_send[0] < 0:  # the least send time, as the column does not decrease
            raise ValueError("negative t_send")
        lost = np.flatnonzero(self.lost)
        for name in DIRECTIONS:
            col = getattr(self, name)
            if n and int(col.min()) < ABSENT:
                raise ValueError(f"negative {name} delay")
            if np.any(col[lost] != ABSENT):
                raise ValueError("lost samples must have absent delays")

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.dt_nominal == other.dt_nominal
            and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in COLUMNS)
        )

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.seq)

    def delay_ms(self, column: str) -> np.ndarray:
        """Delay series in float milliseconds, NaN where absent or lost, filled
        a block at a time by ``map_blocks``: no full-size temporary is made."""
        if column not in DIRECTIONS:
            raise ValueError(f"unknown column {column!r}")
        raw = getattr(self, column)
        out = np.empty(raw.shape)

        def fill(a, b, buf):
            np.divide(raw[a:b], 1e6, out=out[a:b])
            np.copyto(out[a:b], np.nan, where=np.equal(raw[a:b], ABSENT, out=buf[0]))

        map_blocks(fill, raw.size, bool)
        return out

    @property
    def n_lost(self) -> int:
        return int(np.count_nonzero(self.lost))

    @property
    def loss_fraction(self) -> float:
        return self.n_lost / len(self) if len(self) else 0.0


# -- parsing ---------------------------------------------------------------

#: Bytes of CSV read at a time by :func:`parse_trace`, and most bytes of a row
#: before its line end (:func:`write_trace` writes at most 101). Each read, up
#: to its last line end, is decoded on its own, and a longer line is refused
#: before it is read whole, so the parse holds the columns and one read's text.
_PARSE_CHUNK_BYTES, _ROW_MAX_BYTES = 1 << 20, 128

#: Rows of a chunk formatted by :func:`write_trace` (at most), rows of all
#: the chunks in flight together, and chunks in flight (at most): with more
#: workers than _WRITE_FLIGHT_ROWS // _WRITE_CHUNK_ROWS the chunks shrink,
#: down to 8,192 rows, so that the writer holds as much at any CPU count. On 2
#: CPUs the README's 307,500 rows took 75 ms (median of 15) in 16,384-row
#: chunks, 60 ms in 32,768-row ones and 61 ms in 65,536-row ones, and the
#: peak RSS of perfbench's readme_chain (75.8 MB with a one-CPU writer) rose
#: by 1.4, 1.9 and 3.9 MB.
_WRITE_CHUNK_ROWS, _WRITE_FLIGHT_ROWS, _WRITE_MOST_CHUNKS = 32_768, 65_536, 8

#: Lines of a full chunk's line matrix transposed and compacted at a time (a
#: shrunk chunk's blocks shrink alike), so that what a worker allocates itself
#: is a block's transpose and mask (about 120 KB each for a synth trace).
_WRITE_BLOCK_LINES = 2048


def parse_trace(data: bytes | BinaryIO) -> Trace:
    """Parse a CSV trace (header ``CSV_HEADER``) from bytes or a binary
    file, such as a pipe, read from its current position to its end.

    The format is what :func:`write_trace` writes: the header, then one row
    a line, each of ASCII digits and commas ending in ``\\n`` or ``\\r\\n``
    (the last line may lack its line end). A row is six fields that fit
    int64 in at most ``_ROW_MAX_BYTES`` bytes, with ``t_send_ns`` present, a
    delay empty when absent, ``lost`` ``0`` or ``1`` and no delay on a lost
    row. Rows may arrive unordered; they are sorted by seq. The nominal
    interval is the median inter-send gap.

    The source is read once, 1 MB at a time, and each read is decoded in C
    by ``np.loadtxt`` (:func:`_plain_rows`) straight into the trace's
    columns. A read that is not all rows is refused at its first line that
    is not one (:func:`_bad_line`).

    :raises MalformedRow: a line is not in the format (1-based line number).
    :raises DuplicateSeq: two rows share a sequence number.
    :raises EmptyTrace: the stream holds no data rows.
    """
    cols = _read_columns(io.BytesIO(data) if isinstance(data, bytes) else data)
    cols["seq"] = cols["seq"].view(np.uint64)
    for col in cols.values():
        col.flags.writeable = False  # so that Trace keeps it instead of copying
    return Trace(**cols, dt_nominal=nominal_dt_ns(cols["t_send"]))


def nominal_dt_ns(t_send: np.ndarray) -> int:
    """The median inter-send gap in ns, rounded half to even and at least 1;
    ``DEFAULT_DT_NS`` for a single send. Exact at any gap size: the int64
    difference wraps for sends more than 2**63 ns apart, but every gap of a
    non-decreasing column lies in [0, 2**64 - 1], so read as uint64 the
    wrapped value is exact."""
    if len(t_send) < 2:
        return DEFAULT_DT_NS
    gaps = np.diff(t_send).view(np.uint64)  # a fresh array: partitioned in place
    m = len(gaps) // 2
    if len(gaps) % 2:
        gaps.partition(m)
        return max(1, int(gaps[m]))
    gaps.partition((m - 1, m))
    lo, hi = gaps[m - 1:m + 1].tolist()
    half, odd = divmod(lo + hi, 2)
    return max(1, half + (odd & half & 1))


def _read_columns(f: BinaryIO) -> dict[str, np.ndarray]:
    """The columns of the CSV trace in the binary file ``f``, in seq order
    (seq as int64, lost as bool), read in one pass. The columns grow in
    place, at least doubling, as rows arrive, and are cut at the end to the
    rows found; no view of a column exists until then."""
    exact = CSV_HEADER.encode("ascii")
    header = f.readline(len(exact) + 2)  # a longer first line is no header either
    if not header:
        raise EmptyTrace("empty stream")
    if header not in (exact + b"\n", exact + b"\r\n", exact):  # the last line may lack its end
        raise MalformedRow(1, f"header must be {CSV_HEADER!r}")
    cols = {name: np.empty(0, np.bool_ if name == "lost" else np.int64) for name in COLUMNS}
    row, carry = 0, b""
    # at the end, a line end for a last line that lacks one
    while buf := f.read(_PARSE_CHUNK_BYTES) or (carry and b"\n"):
        text = carry + buf
        cut = text.rfind(b"\n") + 1  # a partial last line waits for the next read
        chunk, carry = text[:cut], text[cut:]
        if chunk:
            a = _plain_rows(chunk)
            if a is None:  # every line before this chunk holds a row
                raise _bad_line(chunk, 2 + row)
            k = len(a)
            for i, col in enumerate(cols.values()):
                if row + k > len(col):
                    # numpy zero-fills what a writeable array grows by, which
                    # would make every page of the spare rows resident
                    col.flags.writeable = False
                    col.resize(max(2 * len(col), row + k), refcheck=False)
                    col.flags.writeable = True
                col[row:row + k] = a[:, i]
            row += k
        if len(carry) > _ROW_MAX_BYTES + 1:  # its last byte may be the "\r" of a "\r\n"
            raise _bad_line(carry[:_ROW_MAX_BYTES + 2] + b"\n", 2 + row)
    if row == 0:
        raise EmptyTrace("no data rows")
    for col in cols.values():
        col.resize(row, refcheck=False)
    return _sorted_by_seq(cols)


def _sorted_by_seq(cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The columns in seq order (stable); a :class:`MalformedRow` when
    t_send_ns then decreases, at the line of the row, as row i is line 2 + i."""
    seq = cols["seq"]
    order = None
    if np.any(seq[1:] < seq[:-1]):
        order = np.argsort(seq, kind="stable")
        cols = {name: col[order] for name, col in cols.items()}
    down = cols["t_send"][1:] < cols["t_send"][:-1]
    if not down.any():
        return cols
    bad = int(np.argmax(down)) + 1
    raise MalformedRow(2 + (bad if order is None else int(order[bad])),
                       "t_send_ns decreases with seq")


def _plain_rows(chunk: bytes) -> np.ndarray | None:
    """The (rows, 6) int64 fields of the whole lines ``chunk`` when every
    one is a row in the format of :func:`parse_trace`; else None.

    That is digits and commas only, ending in ``,0`` or ``,1`` and ``\\n``,
    with a non-empty ``t_send_ns``, six fields that fit int64, no delay on a
    lost row and at most ``_ROW_MAX_BYTES`` bytes before the line end. The
    checks and the empty fields are found with numpy, as a search of
    ``bytes`` for a pattern longer than one byte scans at about 1 GB/s. CRLF
    line ends are read as ``\\n``, which keeps every line's number. Each
    check is of one line alone, so a run of lines is refused exactly when one
    of them would be refused by itself.
    """
    if b"\r" in chunk:  # a bare or doubled "\r" is left, and fails the checks
        chunk = chunk.replace(b"\r\n", b"\n")
    if chunk.translate(None, b"0123456789,\n"):
        return None
    b = np.frombuffer(chunk, np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    # every line ends in ",0" or ",1", which also pins lost to 0 or 1; as the
    # chunk ends in "\n", a line too short for this reads a "\n" and fails
    if (np.any(b[ends - 1] - np.uint8(ord("0")) > 1) or np.any(b[ends - 2] != ord(","))
            or np.diff(ends, prepend=-1).max() > _ROW_MAX_BYTES + 1):
        return None
    # an empty field, a comma after a comma, is ABSENT: "-1" goes before it
    empty = np.flatnonzero((b[1:] == ord(",")) & (b[:-1] == ord(","))) + 1
    cuts = [0, *empty.tolist(), len(chunk)]
    text = b"-1".join([chunk[i:j] for i, j in zip(cuts, cuts[1:])])
    try:
        a = np.loadtxt(io.BytesIO(text), delimiter=",", dtype=np.int64,
                       comments=None, ndmin=2)
    except (ValueError, OverflowError):
        return None
    if a.shape != (len(ends), 6):
        return None
    delayed = (a[:, 2:5] != ABSENT).any(axis=1)
    if np.any(a[:, 1] == ABSENT) or np.any(delayed & (a[:, 5] == 1)):
        return None
    return a


def _bad_line(chunk: bytes, line: int) -> MalformedRow:
    """The error for the first line of ``chunk``, line ``line`` of the file,
    that is not a row, when :func:`_plain_rows` refuses ``chunk``: found by
    halving the lines that hold it, with :func:`_plain_rows` as the judge,
    which costs about one more decode of the chunk."""
    cuts = np.r_[0, np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + 1]
    # line k is chunk[cuts[k]:cuts[k + 1]], and a refused line lies in [first, last]
    first, last = 0, len(cuts) - 2
    while first < last:
        mid = (first + last) // 2
        if _plain_rows(chunk[cuts[first]:cuts[mid + 1]]) is None:
            last = mid
        else:
            first = mid + 1
    text = chunk[cuts[first]:cuts[first + 1] - 1].removesuffix(b"\r")
    return MalformedRow(line + first, f"not a trace row: {text[:80]!r}")


# -- writing ---------------------------------------------------------------


def write_trace(trace: Trace, f: BinaryIO) -> None:
    """Write a trace as CSV to the binary file ``f``; inverse of
    :func:`parse_trace` on the data fields.

    Each chunk of rows is formatted in numpy as a matrix of line bytes (see
    :func:`_line_matrix`). The chunks are formatted on every CPU, one chunk a
    worker (``map_workers``), and the calling thread writes them in order as
    they are ready; a trace of one chunk is written by the calling thread
    alone. The chunks in flight hold ``_WRITE_FLIGHT_ROWS`` rows at most,
    whatever the CPU count. The bytes are those of formatting each field
    with ``str``, at any chunk size and CPU count.

    :raises EmptyTrace: the trace holds no samples.
    """
    if len(trace) == 0:
        raise EmptyTrace("refusing to write a trace with no samples")
    f.write(CSV_HEADER.encode("ascii") + b"\n")
    most = min(_num.WORKERS, _WRITE_MOST_CHUNKS)
    full = min(_WRITE_CHUNK_ROWS, max(1, _WRITE_FLIGHT_ROWS // most))
    rows, block = min(len(trace), full), _WRITE_BLOCK_LINES * full // _WRITE_CHUNK_ROWS
    line = sum(_field_widths(trace, slice(None))) + 7  # bytes of the longest line

    def scratch():
        # a chunk's line matrix and text. Each matrix row is a cache line
        # longer than a chunk, as with a power-of-two row stride the
        # transpose's column reads share a few cache sets and run ~6x slower.
        return np.empty((line, rows + 64), np.uint8), np.empty(line * rows, np.uint8)

    chunk = lambda a, bufs: _chunk_text(trace, slice(a, a + rows), block, *bufs)
    starts = range(0, len(trace), rows)
    with contextlib.closing(map_workers(chunk, starts, most, scratch)) as chunks:
        for text in chunks:
            f.write(text)


def _chunk_text(trace: Trace, s: slice, block: int, matrix: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """The CSV text of rows ``s``, at the start of ``out``: their line matrix
    (made in ``matrix``) read line by line, ``block`` lines at a time, with
    the bytes it leaves out dropped."""
    lines = _line_matrix(trace, s, matrix)
    end = 0
    for b in range(0, lines.shape[1], block):
        # one line per row, so that the kept bytes come out in order
        rows = np.ascontiguousarray(lines[:, b:b + block].T)
        text = rows[rows != 0]
        out[end:end + text.size] = text
        end += text.size
    return out[:end]


def _field_widths(trace: Trace, s: slice) -> list[int]:
    """The digits of each field's largest value among rows ``s``: seq,
    t_send, then each direction's delay, 0 where every delay is absent."""
    tops = [int(getattr(trace, name)[s].max()) for name in ("seq", "t_send", *DIRECTIONS)]
    return [len(str(top)) if top >= 0 else 0 for top in tops]  # an absent delay is -1


def _line_matrix(trace: Trace, s: slice, matrix: np.ndarray) -> np.ndarray:
    """The CSV lines of rows ``s`` as a (byte, line) uint8 matrix, made in the
    top left corner of ``matrix``, with a 0 for each byte that a line leaves
    out.

    Every line is laid out alike: each field a right-aligned block of digits
    as wide as the field's widest value among the rows, then commas, the
    ``lost`` digit and ``\\n``. Leading zeros and absent delays are 0.
    """
    widths = _field_widths(trace, s)
    cols = [getattr(trace, name)[s] for name in ("seq", "t_send", *DIRECTIONS)]
    # the digits, five commas, lost and the newline
    lines = matrix[:sum(widths) + 7, :len(cols[0])]
    r = 0
    for i, (v, w) in enumerate(zip(cols, widths)):
        if i < 2:  # seq and t_send: never absent, never negative
            mag, present = v.astype(np.uint64), True
        else:  # an absent delay as 0, and not shown
            mag, present = np.maximum(v, 0).view(np.uint64), v != ABSENT
        _put_digits(mag, present, lines[r:r + w])
        lines[r + w] = ord(",")
        r += w + 1
    lines[r] = trace.lost[s] + ord("0")
    lines[r + 1] = ord("\n")
    return lines


def _put_digits(mag: np.ndarray, present: np.ndarray | bool, block: np.ndarray) -> None:
    """Write the decimal digits of the uint64 ``mag``, which it overwrites, as
    ASCII into the rows of ``block``, right-aligned, and 0 above them; a value
    where ``present`` is False gets 0 throughout (its ``mag`` must be 0)."""
    m, q, more = mag, np.empty_like(mag), np.empty(mag.shape, bool)
    ten = np.uint64(10)
    for j in range(len(block)):
        np.floor_divide(m, ten, out=q)
        # m - 10 * q is the digit; its low byte is exact, so take it in uint8
        digit = m.astype(np.uint8) + np.uint8(ord("0")) - q.astype(np.uint8) * np.uint8(10)
        # the units digit is shown for every present value, a higher one while m > 0
        np.multiply(digit, np.greater(m, 0, out=more) if j else present, out=block[-1 - j])
        m, q = q, m


# -- validation -------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Data-quality summary of a trace; computing it never raises."""

    n_samples: int
    n_lost: int
    loss_fraction: float
    delay_split_checked: int
    delay_split_violations: int
    delay_split_violation_fraction: float
    intersend_median_ns: float
    intersend_mad_ns: float
    direction_flags_consistent: bool


def validate_trace(trace: Trace) -> ValidationReport:
    """Report loss, send-interval jitter, and round-trip consistency.

    A sample with all three delays present violates the path relation when
    ``rtt < ul + dl - DELAY_SPLIT_EPSILON_NS``; one-way paths of a round
    trip cannot sum to more than the round trip beyond clock noise.

    ``direction_flags_consistent`` holds when no delay direction is present
    on between 1% and 99% (``DIRECTION_COVERAGE``) of the delivered rows:
    each direction is carried by nearly all of them or by nearly none.
    """
    n = len(trace)

    def counts(a, b, buf):
        """Of rows a to b: those with all three delays, their delay-split
        violations, and those that carry each direction."""
        total, has, present = buf
        ul, dl, rtt = cols = [getattr(trace, name)[a:b] for name in DIRECTIONS]
        present.fill(True)
        carried = []
        for col in cols:
            present &= np.not_equal(col, ABSENT, out=has)
            carried.append(int(np.count_nonzero(has)))
        # rows with an absent delay compare garbage here, and present masks them
        np.subtract(np.add(ul, dl, out=total), DELAY_SPLIT_EPSILON_NS, out=total)
        np.logical_and(np.less(rtt, total, out=has), present, out=has)
        return int(np.count_nonzero(present)), int(np.count_nonzero(has)), *carried

    rows = map_blocks(counts, n, np.int64, bool, bool) or [(0,) * 5]
    checked, viol, *carried = map(sum, zip(*rows))
    if n > 1:  # the medians rank the send gaps, read modulo 2**64 as nominal_dt_ns does
        med, _ = finite_median_count(trace.t_send)
        mad, _ = finite_median_count(trace.t_send, center=med)
    else:
        med, mad = 0.0, 0.0
    n_alive = n - trace.n_lost  # a lost row carries no delay, as Trace checks
    consistent = not n_alive or all(max(k, n_alive - k) / n_alive >= DIRECTION_COVERAGE
                                    for k in carried)
    return ValidationReport(
        n_samples=n,
        n_lost=trace.n_lost,
        loss_fraction=trace.loss_fraction,
        delay_split_checked=checked,
        delay_split_violations=viol,
        delay_split_violation_fraction=viol / checked if checked else 0.0,
        intersend_median_ns=med,
        intersend_mad_ns=mad,
        direction_flags_consistent=consistent,
    )
