"""Latency trace data model and serialization.

A trace is an ordered sequence of probe samples taken at a nominal send
interval. Delay fields are integer nanoseconds so file round-trips are
exact. Lost probes keep their row (seq and send time with every delay
absent) so the sample position always reflects the send schedule; period
alignment downstream depends on that.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from ._num import finite_median_count, frozen
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
        if n and int(self.seq.max()) > _INT64_MAX:  # parsed seq is int64
            raise ValueError(f"seq must lie in [0, 2**63 - 1], got {int(self.seq.max())}")
        if n > 1:
            same = self.seq[1:] == self.seq[:-1]  # as stored: no copy, nothing to wrap
            if same.any():
                raise DuplicateSeq(f"duplicate seq {int(self.seq[int(np.argmax(same))])}")
            if np.any(self.seq[1:] < self.seq[:-1]):
                raise ValueError("seq must be strictly increasing")
            if np.any(self.t_send[1:] < self.t_send[:-1]):  # a diff could wrap
                raise ValueError("t_send must be non-decreasing")
        for name in DIRECTIONS:
            col = getattr(self, name)
            if n and int(col.min()) < ABSENT:
                raise ValueError(f"negative {name} delay")
            if n and np.any(col[self.lost] != ABSENT):
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

    def __getitem__(self, i: slice) -> "Trace":
        """The rows in a slice, as a trace; integer indexing is not supported."""
        if not isinstance(i, slice):
            raise TypeError("a Trace is indexed by slices only; read its columns instead")
        return Trace(
            self.seq[i], self.t_send[i], self.ul[i], self.dl[i],
            self.rtt[i], self.lost[i], self.dt_nominal,
        )

    def delay_ms(self, column: str) -> np.ndarray:
        """Delay series in float milliseconds, NaN where absent or lost."""
        if column not in DIRECTIONS:
            raise ValueError(f"unknown column {column!r}")
        raw = getattr(self, column)
        out = raw.astype(np.float64)
        out[raw == ABSENT] = np.nan
        out /= 1e6
        return out

    @property
    def n_lost(self) -> int:
        return int(np.count_nonzero(self.lost))

    @property
    def loss_fraction(self) -> float:
        return self.n_lost / len(self) if len(self) else 0.0


# -- parsing ---------------------------------------------------------------

#: Bytes of CSV handed to ``np.loadtxt`` at a time; chunking keeps the parse
#: peak near the int64 result instead of a copy of the whole text.
_PARSE_CHUNK_BYTES = 1 << 20

#: Rows formatted at a time by :func:`write_trace`.
_WRITE_CHUNK_ROWS = 65_536


def parse_trace(data: bytes | str, dt_nominal_ns: int | None = None) -> Trace:
    """Parse a CSV trace (header ``CSV_HEADER``).

    Rows may arrive unordered; they are sorted by seq. The nominal interval
    is the median inter-send gap unless given explicitly.

    Files as ``synth`` and ``probe`` write them (plain digits, commas and
    ``\\n``) are read in C by ``np.loadtxt``. Any other valid spelling, such
    as CRLF line ends, spaces, ``+5`` or a negative ``t_send_ns``, parses to
    the same trace through an exact line parser, at Python speed; so does
    every invalid file, which that parser reports with its line number.

    :raises MalformedRow: a row failed to parse (1-based line number).
    :raises DuplicateSeq: two rows share a sequence number.
    :raises EmptyTrace: the stream holds no data rows.
    """
    rows = _parse_fast(data)
    if rows is not None:
        rows = _sorted_by_seq(rows)
    if rows is None:
        rows = _sorted_by_seq(_parse_lines(data))
    if dt_nominal_ns is None:
        dt_nominal_ns = nominal_dt_ns(rows[:, 1])
    return Trace(
        rows[:, 0].view(np.uint64), rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4],
        rows[:, 5].astype(bool), dt_nominal_ns,
    )


def _send_gaps(t_send: np.ndarray) -> np.ndarray:
    """Gaps between neighbouring sends of a non-decreasing int64 column.

    The int64 difference wraps for sends more than 2**63 ns apart; every gap
    lies in [0, 2**64 - 1], so read as uint64 the wrapped value is exact.
    """
    return np.diff(t_send).view(np.uint64)


def nominal_dt_ns(t_send: np.ndarray) -> int:
    """The median inter-send gap in ns, rounded half to even and at least 1;
    ``DEFAULT_DT_NS`` for a single send. Exact at any gap size."""
    if len(t_send) < 2:
        return DEFAULT_DT_NS
    gaps = _send_gaps(t_send)
    m = len(gaps) // 2
    if len(gaps) % 2:
        return max(1, int(np.partition(gaps, m)[m]))
    lo, hi = np.partition(gaps, (m - 1, m))[m - 1:m + 1].tolist()
    half, odd = divmod(lo + hi, 2)
    return max(1, half + (odd & half & 1))


def _sorted_by_seq(rows: np.ndarray) -> np.ndarray | None:
    """The rows in seq order (stable); None when t_send_ns then decreases.

    Rows from the line parser carry their line number in a seventh column;
    for them a decrease is a :class:`MalformedRow` at that line instead.
    """
    if np.any(rows[1:, 0] < rows[:-1, 0]):
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
    bad_t = np.flatnonzero(rows[1:, 1] < rows[:-1, 1])
    if not bad_t.size:
        return rows
    if rows.shape[1] == 7:
        raise MalformedRow(int(rows[bad_t[0] + 1, 6]), "t_send_ns decreases with seq")
    return None


def _parse_fast(data: bytes | str) -> np.ndarray | None:
    """The (rows, 6) int64 columns of a plainly spelled CSV trace, or None.

    Plain means the exact header, then rows of digits and commas only, each
    ending in ``,0`` or ``,1`` and ``\\n``. None defers to the line parser,
    which is the only source of error messages: it is returned for every
    other spelling, for a field outside int64, a wrong field count, an empty
    ``seq``/``t_send_ns`` and a lost row with a delay.
    """
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode("ascii")
    head = CSV_HEADER.encode("ascii") + b"\n"
    if not data.startswith(head):
        return None
    n = data.count(b"\n") - 1 + (not data.endswith(b"\n"))
    if n == 0:
        return None
    out = np.empty((n, 6), dtype=np.int64)
    pos, row = len(head), 0
    while pos < len(data):
        end = data.find(b"\n", pos + _PARSE_CHUNK_BYTES) + 1 or len(data)
        chunk = data[pos:end]
        pos = end
        if not chunk.endswith(b"\n"):
            chunk += b"\n"
        k = chunk.count(b"\n")
        # every line ending in ",0" or ",1" also pins lost to 0 or 1
        if chunk.translate(None, b"0123456789,\n") or \
                chunk.count(b",0\n") + chunk.count(b",1\n") != k:
            return None
        # an empty delay field is ABSENT; two passes cover runs of empties
        chunk = chunk.replace(b",,", b",-1,").replace(b",,", b",-1,")
        try:
            a = np.loadtxt(io.BytesIO(chunk), delimiter=",", dtype=np.int64,
                           comments=None, ndmin=2)
        except (ValueError, OverflowError):
            return None
        if a.shape != (k, 6):
            return None
        out[row:row + k] = a
        row += k
    delayed = (out[:, 2:5] != ABSENT).any(axis=1)
    if np.any(out[:, 1] == ABSENT) or np.any(delayed & (out[:, 5] == 1)):
        return None
    return out


def _parse_lines(data: bytes | str) -> np.ndarray:
    """The (rows, 7) int64 columns of any CSV trace: the six fields and the
    line number of each row."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedRow(0, f"stream is not UTF-8: {e}") from None
    else:
        text = data
    rows = _parse_csv(text)
    if not rows:
        raise EmptyTrace("no data rows")
    return np.array(rows, dtype=np.int64)


def _row_field(raw: str, line: int, name: str) -> int:
    if raw == "":
        return ABSENT
    try:
        v = int(raw)
    except ValueError:
        raise MalformedRow(line, f"{name} is not an integer: {raw!r}") from None
    if v < 0:
        raise MalformedRow(line, f"{name} is negative")
    if v > _INT64_MAX:
        raise MalformedRow(line, f"{name} does not fit in 64 bits")
    return v


def _parse_csv(text: str) -> list[list[int]]:
    lines = text.splitlines()
    if not lines:
        raise EmptyTrace("empty stream")
    if lines[0].strip() != CSV_HEADER:
        raise MalformedRow(1, f"header must be {CSV_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise MalformedRow(lineno, f"expected 6 fields, got {len(parts)}")
        try:
            seq = int(parts[0])
            t_send = int(parts[1])
        except ValueError:
            raise MalformedRow(lineno, "seq/t_send_ns are not integers") from None
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
        rows.append([seq, t_send, *delays, lost, lineno])
    return rows


# -- writing ---------------------------------------------------------------


def write_trace(trace: Trace) -> bytes:
    """Serialize a trace as CSV; inverse of :func:`parse_trace` on the data fields.

    Each chunk of rows is formatted in numpy as a matrix of line bytes (see
    :func:`_line_matrix`); the chunk's text is that matrix, line by line,
    with the bytes it leaves out dropped. The bytes are those of formatting
    each field with ``str``.

    :raises EmptyTrace: the trace holds no samples.
    """
    if len(trace) == 0:
        raise EmptyTrace("refusing to write a trace with no samples")
    out = [CSV_HEADER.encode("ascii") + b"\n"]
    for a in range(0, len(trace), _WRITE_CHUNK_ROWS):
        # one line per matrix row, so that the kept bytes come out in order
        lines = np.ascontiguousarray(_line_matrix(trace, slice(a, a + _WRITE_CHUNK_ROWS)).T)
        out.append(lines[lines != 0].tobytes())
        del lines  # before the next chunk's matrix is built
    return b"".join(out)


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
    if n > 1:
        gaps = _send_gaps(trace.t_send)
        med, _ = finite_median_count(gaps)
        mad, _ = finite_median_count(gaps, center=med)
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
