"""Latency trace data model and serialization.

A trace is an ordered sequence of probe samples taken at a nominal send
interval. Delay fields are integer nanoseconds so file round-trips are
exact. Lost probes keep their row (seq and send time with every delay
absent) so the sample position always reflects the send schedule; period
alignment downstream depends on that.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from ._num import SELECT_BLOCK, finite_median_count, frozen
from .errors import DuplicateSeq, EmptyTrace, MalformedRow

#: Slack allowed before a round trip is flagged as shorter than the sum of
#: its one-way parts (separate probe paths may disagree by clock noise).
DELAY_SPLIT_EPSILON_NS = 1_000_000

CSV_HEADER = "seq,t_send_ns,ul_ns,dl_ns,rtt_ns,lost"

DIRECTIONS = ("ul", "dl", "rtt")

#: Sentinel for an absent delay in columnar storage.
ABSENT = -1

#: Range of the int64 columns every parsed field is stored in.
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)

#: The 500 Hz probe schedule, 2 ms: the default send interval of
#: ``probe-client`` and bin width of ``synth``, the bin width of the default
#: period length, and the nominal interval of a trace too short to infer one.
DEFAULT_DT_NS = 2_000_000

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
        ``SELECT_BLOCK`` rows at a time: no full-size temporary is made."""
        if column not in DIRECTIONS:
            raise ValueError(f"unknown column {column!r}")
        raw = getattr(self, column)
        out = np.empty(raw.shape)
        for a in range(0, raw.size, SELECT_BLOCK):
            ns, ms = raw[a:a + SELECT_BLOCK], out[a:a + SELECT_BLOCK]
            np.divide(ns, 1e6, out=ms)
            np.copyto(ms, np.nan, where=ns == ABSENT)
        return out

    @property
    def n_lost(self) -> int:
        return int(np.count_nonzero(self.lost))

    @property
    def loss_fraction(self) -> float:
        return self.n_lost / len(self) if len(self) else 0.0


# -- parsing ---------------------------------------------------------------

#: Bytes of CSV read at a time by :func:`parse_trace`; each read, up to its
#: last line end, is decoded on its own, so the parse holds the columns and
#: one read's text, never the whole file.
_PARSE_CHUNK_BYTES = 1 << 20

#: A field's integer: ASCII digits, an optional sign and ASCII whitespace
#: around them. ``int`` alone also reads ``1_000``, the digits of other
#: scripts and Unicode spaces such as the no-break space.
_INT_FIELD = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)

#: Rows formatted at a time by :func:`write_trace`.
_WRITE_CHUNK_ROWS = 65_536


def parse_trace(data: bytes | BinaryIO) -> Trace:
    """Parse a CSV trace (header ``CSV_HEADER``) from bytes or a binary
    file, such as a pipe, read from its current position to its end.

    Rows may arrive unordered; they are sorted by seq. The nominal interval
    is the median inter-send gap. Lines end in ``\\n`` or ``\\r\\n``; blank
    lines are skipped.

    The source is read once, 1 MB at a time, straight into the trace's
    columns. A read whose lines are spelled as ``synth`` and ``probe`` write
    them (plain digits, commas and ``\\n`` or ``\\r\\n``) is decoded in C by
    ``np.loadtxt``; any other read, with blank lines, spaces, ``+5`` or a
    negative ``t_send_ns``, say, goes through an exact line parser at
    Python speed, which also reports every invalid line.

    :raises MalformedRow: a row failed to parse (1-based line number).
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
    header = f.readline()
    if not header:
        raise EmptyTrace("empty stream")
    if _decoded(header, 1).strip() != CSV_HEADER:
        raise MalformedRow(1, f"header must be {CSV_HEADER!r}")
    cols = {name: np.empty(0, np.bool_ if name == "lost" else np.int64) for name in COLUMNS}
    row, carry, blanks = 0, b"", []
    # at the end, a line end for a last line that lacks one
    while buf := f.read(_PARSE_CHUNK_BYTES) or (carry and b"\n"):
        text = carry + buf
        cut = text.rfind(b"\n") + 1  # a partial last line waits for the next read
        chunk, carry = text[:cut], text[cut:]
        if chunk:
            a = _plain_rows(chunk)
            if a is None:  # every line before this chunk holds a row or is blank
                a = _line_rows(chunk, 2 + row + len(blanks), blanks)
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
    if row == 0:
        raise EmptyTrace("no data rows")
    for col in cols.values():
        col.resize(row, refcheck=False)
    return _sorted_by_seq(cols, blanks)


def _sorted_by_seq(cols: dict[str, np.ndarray], blanks: list[int]) -> dict[str, np.ndarray]:
    """The columns in seq order (stable); a :class:`MalformedRow` when
    t_send_ns then decreases, at the line of the row found from ``blanks``,
    the file's blank lines, as every other line from 2 on holds a row."""
    seq = cols["seq"]
    order = None
    if np.any(seq[1:] < seq[:-1]):
        order = np.argsort(seq, kind="stable")
        cols = {name: col[order] for name, col in cols.items()}
    down = cols["t_send"][1:] < cols["t_send"][:-1]
    if not down.any():
        return cols
    bad = int(np.argmax(down)) + 1
    line = 2 + (bad if order is None else int(order[bad]))
    for b in blanks:
        line += b <= line
    raise MalformedRow(line, "t_send_ns decreases with seq")


def _plain_rows(chunk: bytes) -> np.ndarray | None:
    """The (rows, 6) int64 fields of the whole lines ``chunk`` when every
    one is plain; else None, and :func:`_line_rows` decodes the chunk.

    Plain means digits and commas only, ending in ``,0`` or ``,1`` and
    ``\\n``, with a non-empty ``t_send_ns``, six fields that fit int64 and
    no delay on a lost row. The checks and the empty fields are found with
    numpy, as a search of ``bytes`` for a pattern longer than one byte
    scans at about 1 GB/s. CRLF line ends are read as ``\\n``, which keeps
    every line's number.
    """
    if b"\r" in chunk:  # a bare or doubled "\r" is left, and fails the checks
        chunk = chunk.replace(b"\r\n", b"\n")
    if chunk.translate(None, b"0123456789,\n"):
        return None
    b = np.frombuffer(chunk, np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    # every line ends in ",0" or ",1", which also pins lost to 0 or 1; as the
    # chunk ends in "\n", a line too short for this reads a "\n" and fails
    if np.any(b[ends - 1] - np.uint8(ord("0")) > 1) or np.any(b[ends - 2] != ord(",")):
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


def _decoded(raw: bytes, line: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedRow(line, "not UTF-8") from None


def _int_field(raw: str, line: int, name: str) -> int:
    if _INT_FIELD.fullmatch(raw):
        try:
            return int(raw)
        except ValueError:  # more digits than int converts
            pass
    raise MalformedRow(line, f"{name} is not an integer: {raw!r}")


def _row_field(raw: str, line: int, name: str) -> int:
    if raw == "":
        return ABSENT
    v = _int_field(raw, line, name)
    if v < 0:
        raise MalformedRow(line, f"{name} is negative")
    if v > _INT64_MAX:
        raise MalformedRow(line, f"{name} does not fit in 64 bits")
    return v


def _line_rows(chunk: bytes, line: int, blanks: list[int]) -> np.ndarray:
    """The (rows, 6) int64 fields of the whole lines ``chunk``, the first of
    them line ``line`` of the file, parsed one line at a time: any valid
    spelling parses, and the first invalid line raises :class:`MalformedRow`
    with its number. The numbers of blank lines are appended to ``blanks``.
    """
    rows = []
    for lineno, raw in enumerate(chunk.split(b"\n")[:-1], start=line):
        text = _decoded(raw.removesuffix(b"\r"), lineno)
        if not text.strip():
            blanks.append(lineno)
            continue
        parts = text.split(",")
        if len(parts) != 6:
            raise MalformedRow(lineno, f"expected 6 fields, got {len(parts)}")
        seq = _int_field(parts[0], lineno, "seq")
        t_send = _int_field(parts[1], lineno, "t_send_ns")
        if seq < 0:
            raise MalformedRow(lineno, "seq is negative")
        if seq > _INT64_MAX or not _INT64_MIN <= t_send <= _INT64_MAX:
            raise MalformedRow(lineno, "seq/t_send_ns do not fit in 64 bits")
        delays = [_row_field(parts[i], lineno, name)
                  for i, name in ((2, "ul_ns"), (3, "dl_ns"), (4, "rtt_ns"))]
        if parts[5] not in ("0", "1"):
            raise MalformedRow(lineno, f"lost must be 0 or 1, got {parts[5]!r}")
        lost = int(parts[5])
        if lost and any(v != ABSENT for v in delays):
            raise MalformedRow(lineno, "lost sample carries delay values")
        rows.append([seq, t_send, *delays, lost])
    return np.array(rows, dtype=np.int64).reshape(-1, 6)


# -- writing ---------------------------------------------------------------


def write_trace(trace: Trace, f: BinaryIO) -> None:
    """Write a trace as CSV to the binary file ``f``; inverse of
    :func:`parse_trace` on the data fields.

    Each chunk of rows is formatted in numpy as a matrix of line bytes (see
    :func:`_line_matrix`) and written before the next is made; the chunk's
    text is that matrix, line by line, with the bytes it leaves out dropped.
    The bytes are those of formatting each field with ``str``.

    :raises EmptyTrace: the trace holds no samples.
    """
    if len(trace) == 0:
        raise EmptyTrace("refusing to write a trace with no samples")
    f.write(CSV_HEADER.encode("ascii") + b"\n")
    for a in range(0, len(trace), _WRITE_CHUNK_ROWS):
        # one line per matrix row, so that the kept bytes come out in order
        lines = np.ascontiguousarray(_line_matrix(trace, slice(a, a + _WRITE_CHUNK_ROWS)).T)
        f.write(lines[lines != 0])
        del lines  # before the next chunk's matrix is built


#: 10**1 .. 10**19; a uint64 ``m`` has ``searchsorted(_POW10, m, "right") + 1``
#: decimal digits.
_POW10 = np.array([10**i for i in range(1, 20)], dtype=np.uint64)


def _line_matrix(trace: Trace, s: slice) -> np.ndarray:
    """The CSV lines of rows ``s`` as a (byte, line) uint8 matrix, with a 0
    for each byte that a line leaves out.

    Every line is laid out alike: each field a right-aligned block of digits
    as wide as the field's widest value among the rows, a ``-`` before
    ``t_send_ns``, then commas, the ``lost`` digit and ``\\n``. Leading zeros,
    absent delays and the ``-`` of non-negative send times are 0.
    """
    t = trace.t_send[s]
    neg = t < 0
    # |t_send| as ~t + 1 in uint64, where -2**63 has the exact magnitude 2**63
    mags = [trace.seq[s], np.where(neg, (~t).view(np.uint64) + np.uint64(1), t.view(np.uint64))]
    counts = [_digit_counts(m) for m in mags]
    for name in DIRECTIONS:
        v = getattr(trace, name)[s]
        mags.append(v.view(np.uint64))
        counts.append(np.where(v == ABSENT, 0, _digit_counts(mags[-1])))
    widths = [int(c.max()) for c in counts]
    # the digits, a sign, five commas, lost and the newline; each row a cache
    # line longer than the chunk, as with a power-of-two row stride the
    # transpose's column reads share a few cache sets and run ~6x slower
    lines = np.empty((sum(widths) + 8, len(t) + 64), np.uint8)[:, :len(t)]
    r = 0
    for i, (m, c, w) in enumerate(zip(mags, counts, widths)):
        if i == 1:  # the sign of t_send_ns
            np.multiply(neg, np.uint8(ord("-")), out=lines[r])
            r += 1
        _put_digits(m, c, lines[r:r + w])
        lines[r + w] = ord(",")
        r += w + 1
    lines[r] = trace.lost[s] + ord("0")
    lines[r + 1] = ord("\n")
    return lines


def _digit_counts(mag: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each uint64, 0 having one."""
    return np.searchsorted(_POW10, mag, side="right") + 1


def _put_digits(mag: np.ndarray, counts: np.ndarray, block: np.ndarray) -> None:
    """Write the ``counts`` low decimal digits of ``mag`` as ASCII into the
    rows of ``block``, right-aligned, and 0 above them."""
    m, q = mag.copy(), np.empty_like(mag)
    ten = np.uint64(10)
    for j in range(len(block)):
        np.floor_divide(m, ten, out=q)
        # m - 10 * q is the digit; its low byte is exact, so take it in uint8
        digit = m.astype(np.uint8) + np.uint8(ord("0")) - q.astype(np.uint8) * np.uint8(10)
        np.multiply(digit, counts > j, out=block[-1 - j])
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
    present = (trace.ul != ABSENT) & (trace.dl != ABSENT) & (trace.rtt != ABSENT)
    checked = int(np.count_nonzero(present))
    # rows with an absent delay compare garbage here, and present masks them
    viol = int(np.count_nonzero(
        present & (trace.rtt < trace.ul + trace.dl - DELAY_SPLIT_EPSILON_NS)))
    if n > 1:  # the medians rank the send gaps, read modulo 2**64 as nominal_dt_ns does
        med, _ = finite_median_count(trace.t_send)
        mad, _ = finite_median_count(trace.t_send, center=med)
    else:
        med, mad = 0.0, 0.0

    alive = ~trace.lost
    n_alive = int(np.count_nonzero(alive))
    consistent = True
    if n_alive:
        for name in DIRECTIONS:
            n_has = int(np.count_nonzero((getattr(trace, name) != ABSENT) & alive))
            flag = n_has / n_alive >= DIRECTION_COVERAGE
            if (n_has if flag else n_alive - n_has) / n_alive < DIRECTION_COVERAGE:
                consistent = False
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
