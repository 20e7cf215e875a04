"""Trace model, CSV parsing and round-trips, and the validation report."""

import dataclasses
import hashlib
import io
import os
import re
import tempfile
import threading
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llab import _num, core
from llab._num import SELECT_BLOCK, frozen
from llab.core import (
    ABSENT,
    COLUMNS,
    CSV_HEADER,
    DELAY_SPLIT_EPSILON_NS,
    Trace,
    parse_trace,
    validate_trace,
    write_trace,
)
from llab.errors import DuplicateSeq, EmptyTrace, LlabError, MalformedRow
from llab.synth import SynthConfig, generate


def make_trace(rows, dt=2_000_000):
    """rows: (seq, t_send, ul, dl, rtt, lost) with None for absent delays."""
    cols = np.array([[ABSENT if v is None else v for v in r] for r in rows],
                    dtype=np.int64).reshape(-1, 6)
    seq, t_send, ul, dl, rtt, lost = cols.T
    return Trace(seq.astype(np.uint64), t_send, ul, dl, rtt, lost.astype(bool), dt)


class TestSample:
    """Per-row invariants, enforced when a Trace is built."""

    def test_lost_with_delays_rejected(self):
        with pytest.raises(ValueError):
            make_trace([(0, 0, 5, None, None, 1)])

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            make_trace([(0, 0, None, None, ABSENT - 1, 0)])


def trace_columns(cols):
    """``cols`` as Trace arguments: seq uint64, lost bool, the rest int64."""
    return {k: np.array(v, dtype=COLUMNS[k] if k in ("seq", "lost") else np.int64)
            for k, v in cols.items()}


def former_checks(cols, dt):
    """The error class and message of the checks a Trace made before each
    was read in fewer passes, or None: max, duplicates, order, delays."""
    seq, t_send, lost = cols["seq"], cols["t_send"], cols["lost"]
    n = len(seq)
    if any(len(cols[k]) != n for k in COLUMNS):
        return ValueError, "column lengths differ"
    if dt <= 0:
        return ValueError, "dt_nominal must be positive"
    if n and int(seq.max()) > 2**63 - 1:
        return ValueError, f"seq must lie in [0, 2**63 - 1], got {int(seq.max())}"
    if n > 1:
        same = seq[1:] == seq[:-1]
        if same.any():
            return DuplicateSeq, f"duplicate seq {int(seq[int(np.argmax(same))])}"
        if np.any(seq[1:] < seq[:-1]):
            return ValueError, "seq must be strictly increasing"
        if np.any(t_send[1:] < t_send[:-1]):
            return ValueError, "t_send must be non-decreasing"
    if n and int(t_send.min()) < 0:
        return ValueError, "negative t_send"
    for name in ("ul", "dl", "rtt"):
        if n and int(cols[name].min()) < ABSENT:
            return ValueError, f"negative {name} delay"
        if n and np.any(cols[name][lost] != ABSENT):
            return ValueError, "lost samples must have absent delays"
    return None


@st.composite
def checked_columns(draw):
    """Up to 6 rows: seq from a few values around 2**63 (so repeats, drops
    and values past int64 are common), t_send that sometimes falls or is
    negative, delays
    that are sometimes negative or present on a lost row, and now and then
    one column a row short."""
    n = draw(st.integers(0, 6))

    def rows(values):
        return st.lists(st.sampled_from(values), min_size=n, max_size=n)

    cols = {"seq": draw(st.one_of(st.just(list(range(n))),
                                  rows([0, 1, 2, 3, 2**63 - 1, 2**63, 2**64 - 1]))),
            "t_send": draw(st.one_of(st.just(list(range(n))), rows([-1, 0, 5, 10]))),
            "lost": draw(rows([False, False, True]))}
    for name in ("ul", "dl", "rtt"):
        cols[name] = draw(rows([ABSENT, ABSENT, 0, 4, ABSENT - 1]))
    if n and draw(st.integers(0, 9)) == 0:
        short = draw(st.sampled_from(sorted(COLUMNS)))
        cols[short] = cols[short][:-1]
    return trace_columns(cols)


def whole_column_delay_ms(trace, column):
    """The delay series as it was taken whole: cast, NaN where ABSENT, then divided."""
    raw = getattr(trace, column)
    out = raw.astype(np.float64)
    out[raw == ABSENT] = np.nan
    out /= 1e6
    return out


class TestTrace:
    def test_duplicate_seq(self):
        with pytest.raises(DuplicateSeq):
            make_trace([(0, 0, 1, 1, 2, 0), (0, 10, 1, 1, 2, 0)])

    def test_seq_must_increase(self):
        with pytest.raises(ValueError):
            make_trace([(5, 0, 1, 1, 2, 0), (3, 10, 1, 1, 2, 0)])

    def test_duplicate_after_a_decrease_is_still_a_duplicate(self):
        # duplicates are looked for across the whole column before any decrease
        with pytest.raises(DuplicateSeq, match="duplicate seq 3$"):
            make_trace([(5, 0, 1, 1, 2, 0), (3, 10, 1, 1, 2, 0), (3, 20, 1, 1, 2, 0)])

    def test_seq_up_to_int64_max_does_not_wrap(self):
        top = 2**63 - 1
        tr = make_trace([(0, 0, 1, 1, 2, 0), (top - 1, 10, 1, 1, 2, 0), (top, 20, 1, 1, 2, 0)])
        assert int(tr.seq[-1]) == top
        with pytest.raises(ValueError, match="strictly increasing"):
            make_trace([(top, 0, 1, 1, 2, 0), (0, 10, 1, 1, 2, 0)])
        with pytest.raises(DuplicateSeq, match=f"duplicate seq {top}$"):
            make_trace([(0, 0, 1, 1, 2, 0), (top, 10, 1, 1, 2, 0), (top, 20, 1, 1, 2, 0)])

    def test_t_send_must_not_decrease(self):
        with pytest.raises(ValueError):
            make_trace([(0, 10, 1, 1, 2, 0), (1, 5, 1, 1, 2, 0)])

    def test_lost_row_keeps_position(self):
        tr = make_trace([(0, 0, 1, 1, 2, 0), (1, 10, None, None, None, 1),
                         (2, 20, 1, 1, 2, 0)])
        assert len(tr) == 3
        assert tr.lost[1] and tr.ul[1] == ABSENT
        assert tr.n_lost == 1 and tr.loss_fraction == pytest.approx(1 / 3)

    def test_delay_ms_nan_for_absent(self):
        tr = make_trace([(0, 0, 3_000_000, None, None, 0),
                         (1, 10, None, None, None, 1)])
        ul = tr.delay_ms("ul")
        assert ul[0] == 3.0 and np.isnan(ul[1])
        assert np.isnan(tr.delay_ms("dl")).all()

    def test_a_trace_equals_no_other_type(self):
        tr = make_trace([(0, 0, 1, 1, 2, 0)])
        assert tr == make_trace([(0, 0, 1, 1, 2, 0)])
        assert (tr == 5) is False and tr != "0,0,1,1,2,0"

    def test_delay_ms_of_an_unknown_column(self):
        tr = make_trace([(0, 0, 1, 1, 2, 0)])
        with pytest.raises(ValueError, match="^unknown column 'bogus'$"):
            tr.delay_ms("bogus")

    def test_columns_read_only(self):
        tr = make_trace([(0, 0, 1, 1, 2, 0), (1, 10, 1, 1, 2, 0)])
        with pytest.raises(ValueError):
            tr.ul[0] = 7

    @pytest.mark.parametrize("seq", [[0, 2**63], [2**63 - 1, 2**63], [2**63]])
    def test_seq_beyond_int64_rejected(self, seq):
        n = len(seq)
        with pytest.raises(ValueError, match=r"seq must lie in \[0, 2\*\*63 - 1\]"):
            Trace(np.array(seq, dtype=np.uint64), np.arange(n), np.ones(n, np.int64),
                  np.ones(n, np.int64), np.full(n, 2), np.zeros(n, bool), 1)

    @pytest.mark.parametrize("cols, dt, error, message", [
        (dict(seq=[0, 1], t_send=[0]), 1, ValueError, "column lengths differ"),
        ({}, 0, ValueError, "dt_nominal must be positive"),
        (dict(seq=[3, 2**63, 2**63]), 1, ValueError, "seq must lie in [0, 2**63 - 1], got 2**63"),
        (dict(seq=[0, 1, 2**63]), 1, ValueError, "seq must lie in [0, 2**63 - 1], got 2**63"),
        (dict(seq=[5, 3, 3]), 1, DuplicateSeq, "duplicate seq 3"),
        (dict(seq=[1, 1, 0]), 1, DuplicateSeq, "duplicate seq 1"),
        (dict(seq=[0, 2, 1]), 1, ValueError, "seq must be strictly increasing"),
        (dict(t_send=[0, 5, 4]), 1, ValueError, "t_send must be non-decreasing"),
        (dict(ul=[0, -2, 0]), 1, ValueError, "negative ul delay"),
        (dict(dl=[0, -2, 0], ul=[ABSENT, 1, 1], lost=[1, 0, 0]), 1, ValueError,
         "negative dl delay"),
        (dict(rtt=[-3, 0, 0]), 1, ValueError, "negative rtt delay"),
        (dict(ul=[ABSENT, 1, 1], dl=[ABSENT, 1, 1], rtt=[ABSENT, 1, 1], lost=[0, 1, 0]), 1,
         ValueError, "lost samples must have absent delays"),
        (dict(ul=[1, ABSENT, 1], rtt=[ABSENT, ABSENT, 1], lost=[0, 1, 1]), 1, ValueError,
         "lost samples must have absent delays"),
        (dict(t_send=[-1, 0, 1]), 1, ValueError, "negative t_send"),
    ])
    def test_each_check_raises_its_error(self, cols, dt, error, message):
        # three rows with every delay present, each column replaced as given
        full = dict(seq=[0, 1, 2], t_send=[0, 1, 2], ul=[1, 1, 1], dl=[1, 1, 1], rtt=[2, 2, 2],
                    lost=[0, 0, 0]) | cols
        message = message.replace("got 2**63", f"got {2**63}")
        args = trace_columns(full)
        with pytest.raises(error) as ei:
            Trace(**args, dt_nominal=dt)
        assert type(ei.value) is error and str(ei.value) == message
        assert former_checks(args, dt) == (error, message)

    @settings(max_examples=400, deadline=None)
    @given(cols=checked_columns(), dt=st.sampled_from([1, 1, 1, 0]))
    def test_checks_raise_what_the_former_checks_raised(self, cols, dt):
        try:
            Trace(**cols, dt_nominal=dt)
            got = None
        except (ValueError, DuplicateSeq) as e:
            got = type(e), str(e)
        assert got == former_checks(cols, dt)

    @pytest.mark.parametrize("n", [SELECT_BLOCK - 1, SELECT_BLOCK, SELECT_BLOCK + 1,
                                   2 * SELECT_BLOCK + 1])
    def test_delay_ms_equals_the_whole_column_division(self, n):
        # ABSENT on the first and the last row of every block, and the last row
        rng = np.random.default_rng(n)
        ends = np.r_[0:n:SELECT_BLOCK, SELECT_BLOCK - 1:n:SELECT_BLOCK, n - 1]
        ul = rng.integers(0, 10**13, n)
        ul[ends] = ABSENT
        lost = np.zeros(n, bool)
        lost[ends[::2]] = True
        tr = Trace(np.arange(n, dtype=np.uint64), np.arange(n), ul, np.where(lost, ABSENT, 7),
                   np.where(lost, ABSENT, ul), lost, 1)
        for column in ("ul", "dl", "rtt"):
            got, want = tr.delay_ms(column), whole_column_delay_ms(tr, column)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), block=st.integers(1, 5))
    def test_delay_ms_at_any_block_size(self, data, block):
        n = data.draw(st.integers(0, 12))
        ul = np.array(data.draw(st.lists(st.sampled_from([ABSENT, 0, 1, 3, 999_999, 10**15]),
                                         min_size=n, max_size=n)), dtype=np.int64)
        tr = Trace(np.arange(n, dtype=np.uint64), np.arange(n), ul, ul, ul, np.zeros(n, bool), 1)
        with mock.patch.object(_num, "SELECT_BLOCK", block):
            got = tr.delay_ms("ul")
        assert got.tobytes() == whole_column_delay_ms(tr, "ul").tobytes()

    def test_delay_ms_allocates_its_output_and_a_block(self):
        # a block's cast and ABSENT mask; the whole-column form also made one
        # bool per row, 1/8 of the output
        block, n = 1024, 64 * 1024 + 1
        tr = Trace(np.arange(n, dtype=np.uint64), np.arange(n), np.arange(n), np.arange(n),
                   np.arange(n), np.zeros(n, bool), 1)
        with mock.patch.object(_num, "SELECT_BLOCK", block):
            out, peak = traced_peak(tr.delay_ms, "ul")
        assert peak <= out.nbytes + 2 * 8 * block


FIELD_TEXT = st.one_of(
    st.sampled_from(["", "x", "+", "_", "-", "-1", "9223372036854775807",
                     "9223372036854775808", "-9223372036854775809",
                     "99999999999999999999"]),
    st.integers(-2**70, 2**70).map(str),
    st.text(alphabet="0123456789+-_x ", max_size=25),
)


@st.composite
def adversarial_rows(draw):
    """A valid data row with up to two fields replaced by FIELD_TEXT, and
    sometimes one field too few or too many."""
    row = [str(draw(st.integers(0, 9))), str(draw(st.integers(0, 10**9))), "30", "20", "55", "0"]
    for i in draw(st.sets(st.integers(0, 5), max_size=2)):
        row[i] = draw(FIELD_TEXT)
    n = draw(st.sampled_from([6] * 8 + [5, 7]))
    return ",".join((row + ["0"])[:n])


class TestParsing:
    def test_csv_example_row(self):
        text = CSV_HEADER + "\n0,100,30,20,55,0\n"
        tr = parse_trace(text.encode())
        assert (tr.ul[0], tr.dl[0], tr.rtt[0]) == (30, 20, 55)
        assert not tr.lost[0]

    def test_empty_delay_fields_are_absent(self):
        text = CSV_HEADER + "\n0,100,30,,,0\n"
        tr = parse_trace(text.encode())
        assert (tr.ul[0], tr.dl[0], tr.rtt[0]) == (30, ABSENT, ABSENT)

    def test_bad_header(self):
        with pytest.raises(MalformedRow) as ei:
            parse_trace(b"a,b,c\n1,2,3\n")
        assert ei.value.line == 1

    @pytest.mark.parametrize("header", [CSV_HEADER + " \n", " " + CSV_HEADER + "\n",
                                        CSV_HEADER + "\r\r\n", CSV_HEADER + "\t\n",
                                        CSV_HEADER, CSV_HEADER.upper() + "\n"])
    def test_the_header_is_exact(self, header):
        with pytest.raises(MalformedRow, match=f"^line 1: header must be {CSV_HEADER!r}$"):
            parse_trace((header + "0,100,1,1,2,0\n").encode())
        for eol in ("\n", "\r\n"):
            assert len(parse_trace((CSV_HEADER + eol + "0,100,1,1,2,0\n").encode())) == 1
        with pytest.raises(EmptyTrace, match="^no data rows$"):  # a last line may lack its end
            parse_trace(CSV_HEADER.encode())

    def test_a_first_line_without_an_end_is_refused_in_bounded_memory(self):
        class Sevens(io.RawIOBase):
            """A stream, as from a pipe, of 16 MiB of b"7" and no line end."""
            left = 16 << 20

            def readable(self):
                return True

            def readinto(self, b):
                n = min(len(b), self.left)
                b[:n], self.left = b"7" * n, self.left - n
                return n

        # only as many bytes as the header and its line end are read as the header
        tracemalloc.start()
        try:
            with pytest.raises(MalformedRow, match=f"^line 1: header must be {CSV_HEADER!r}$"):
                parse_trace(io.BufferedReader(Sevens()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_malformed_row_reports_line(self):
        text = CSV_HEADER + "\n0,100,30,20,55,0\n1,200,oops,20,55,0\n"
        with pytest.raises(MalformedRow) as ei:
            parse_trace(text.encode())
        assert ei.value.line == 3

    @pytest.mark.parametrize("row", [
        "1,200,99999999999999999999,20,55,0",  # ul_ns above 2**63 - 1
        "-1,50,30,20,55,0",  # would wrap to seq 2**64 - 1
        "9223372036854775808,200,30,20,55,0",
        "1,-9223372036854775809,30,20,55,0",
        "1,-9223372036854775808,30,20,55,0",  # t_send falls by more than 2**63
    ])
    def test_out_of_range_fields_report_line(self, row):
        with pytest.raises(MalformedRow) as ei:
            parse_trace((CSV_HEADER + "\n0,100,30,20,55,0\n" + row + "\n").encode())
        assert ei.value.line == 3

    def test_t_send_spanning_the_int64_range_parses(self):
        tr = parse_trace((CSV_HEADER + "\n0,0,1,1,2,0\n1,9223372036854775807,1,1,2,0\n").encode())
        assert tr.t_send.tolist() == [0, 2**63 - 1]
        assert tr.dt_nominal == 2**63 - 1
        assert validate_trace(tr).intersend_median_ns == float(2**63 - 1)
        # a send time is never negative, so the widest gap is that one
        with pytest.raises(MalformedRow, match="^line 2: not a trace row: b'0,-9223"):
            parse_trace((CSV_HEADER + "\n0,-9223372036854775808,1,1,2,0"
                         "\n1,9223372036854775807,1,1,2,0\n").encode())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(adversarial_rows(), min_size=1, max_size=3))
    @example(["0,100,99999999999999999999,20,55,0"])
    def test_adversarial_fields_parse_or_raise_llab_errors(self, rows):
        text = CSV_HEADER + "".join("\n" + r for r in rows) + "\n"
        try:
            assert isinstance(parse_trace(text.encode()), Trace)
        except LlabError:
            pass

    @pytest.mark.parametrize("chunk_bytes", [1, 40, core._PARSE_CHUNK_BYTES])
    @pytest.mark.parametrize("body, line", [
        ("\n2,300,1,1,2,0\n \n0,100,1,1,2,0\n1,400,1,1,2,0\n", 3),
        ("0,100,1,1,2,0\n\n\r\n1,50,1,1,2,0\n2,60,1,1,2,0", 5),
    ])
    def test_t_send_decreasing_with_seq_reports_its_line(self, body, line, chunk_bytes):
        # a blank line is not a row, and is refused at its line; with the
        # blank lines gone, the decrease is named at the line of its row in
        # file order, after sorting by seq
        lines = (CSV_HEADER + "\n" + body).split("\n")
        blank = [i + 1 for i, text in enumerate(lines[:-1]) if not text.strip()]
        with mock.patch.object(core, "_PARSE_CHUNK_BYTES", chunk_bytes):
            with pytest.raises(MalformedRow, match="not a trace row") as ei:
                parse_trace("\n".join(lines).encode())
            assert ei.value.line == blank[0]
            with pytest.raises(MalformedRow, match="t_send_ns decreases with seq") as ei:
                kept = [t for i, t in enumerate(lines, 1) if i not in blank]
                parse_trace("\n".join(kept).encode())
        assert ei.value.line == line - sum(b < line for b in blank)

    def test_a_bare_carriage_return_does_not_end_a_line(self):
        with pytest.raises(MalformedRow) as ei:
            parse_trace((CSV_HEADER + "\n0,100,1,1,2,0\r1,200,1,1,2,0\n").encode())
        assert str(ei.value) == "line 2: not a trace row: b'0,100,1,1,2,0\\r1,200,1,1,2,0'"

    @pytest.mark.parametrize("chunk_bytes", [1, 40, core._PARSE_CHUNK_BYTES])
    @pytest.mark.parametrize("data, line, reason", [
        (b"seq,t_send_ns\xff,ul_ns,dl_ns,rtt_ns,lost\n0,100,1,1,2,0\n", 1,
         f"header must be {CSV_HEADER!r}"),
        (CSV_HEADER.encode() + b"\n0,100,1,1,2,0\n1,200,1,\xff1,2,0\n2,300,1,1,2,0\n", 3,
         "not a trace row: b'1,200,1,\\xff1,2,0'"),
        (CSV_HEADER.encode() + b"\r\n0,100,1,1,2,0\r\n1,200,1,1,2,0\xc3\r\n", 3,
         "not a trace row: b'1,200,1,1,2,0\\xc3'"),
    ], ids=["header", "plain", "crlf"])
    def test_a_byte_that_is_not_utf8_is_reported_at_its_line(self, data, line, reason,
                                                             chunk_bytes):
        with mock.patch.object(core, "_PARSE_CHUNK_BYTES", chunk_bytes), \
                pytest.raises(MalformedRow) as ei:
            parse_trace(data)
        assert (ei.value.line, ei.value.reason) == (line, reason)

    @pytest.mark.parametrize("chunk_bytes", [1, 7, core._PARSE_CHUNK_BYTES])
    @pytest.mark.parametrize("row, reason", [
        ("1,1_000,5,5,10,0", "not a trace row: b'1,1_000,5,5,10,0'"),
        ("1,200,\u0665,5,10,0", "not a trace row: b'1,200,\\xd9\\xa5,5,10,0'"),
        ("1,200,5,\u00a05,10,0", "not a trace row: b'1,200,5,\\xc2\\xa05,10,0'"),
    ], ids=["underscore", "arabic-indic-digit", "no-break-space"])
    def test_a_field_is_ascii_digits(self, row, reason, chunk_bytes):
        text = CSV_HEADER + "\n0,100,5,5,10,0\n" + row + "\n2,300,5,5,10,0\n"
        with mock.patch.object(core, "_PARSE_CHUNK_BYTES", chunk_bytes), \
                pytest.raises(MalformedRow) as ei:
            parse_trace(text.encode())
        assert (ei.value.line, ei.value.reason) == (3, reason)

    @pytest.mark.parametrize("chunk_bytes", [1, 7, core._PARSE_CHUNK_BYTES])
    def test_ascii_space_and_sign_around_a_field_parse(self, chunk_bytes):
        # a field is ASCII digits alone, so the line is refused
        text = CSV_HEADER + "\n 0,+100, 5,+5 ,\t10,0\n"
        with mock.patch.object(core, "_PARSE_CHUNK_BYTES", chunk_bytes), \
                pytest.raises(MalformedRow) as ei:
            parse_trace(text.encode())
        assert str(ei.value) == "line 2: not a trace row: b' 0,+100, 5,+5 ,\\t10,0'"

    def test_lost_with_delays_is_malformed(self):
        text = CSV_HEADER + "\n0,100,30,20,55,1\n"
        with pytest.raises(MalformedRow):
            parse_trace(text.encode())

    def test_empty_stream(self):
        with pytest.raises(EmptyTrace, match="^no data rows$"):
            parse_trace((CSV_HEADER + "\n").encode())
        with pytest.raises(EmptyTrace, match="^empty stream$"):
            parse_trace(b"")

    def test_rows_sorted_by_seq(self):
        text = CSV_HEADER + "\n2,300,1,1,2,0\n0,100,1,1,2,0\n1,200,1,1,2,0\n"
        tr = parse_trace(text.encode())
        assert list(tr.seq) == [0, 1, 2]

    def test_duplicate_seq_across_rows(self):
        text = CSV_HEADER + "\n0,100,1,1,2,0\n0,200,1,1,2,0\n"
        with pytest.raises(DuplicateSeq):
            parse_trace(text.encode())

    def test_dt_nominal_from_median_gap(self):
        text = CSV_HEADER + "".join(f"\n{i},{i * 500},1,1,2,0" for i in range(9))
        tr = parse_trace((text + "\n").encode())
        assert tr.dt_nominal == 500

    @pytest.mark.parametrize("n", [2_000_000, 2_000_001])
    def test_nominal_interval_partitions_its_gaps_in_place(self, n):
        # every read of a trace file takes it; odd and even gap counts
        gaps = np.random.default_rng(4).integers(1_999_000, 2_001_001, n - 1)
        t_send = np.r_[0, np.cumsum(gaps)]
        dt, peak = traced_peak(core.nominal_dt_ns, t_send)
        assert peak <= 1.25 * gaps.nbytes
        gaps.sort()
        lo, hi = gaps[(gaps.size - 1) // 2], gaps[gaps.size // 2]
        assert dt == round((int(lo) + int(hi)) / 2)  # round: half to even


ODD_FIELD = st.one_of(FIELD_TEXT, st.sampled_from(["\r", "5\r", "\x0c", "\x0c7", "00", "01"]))


@st.composite
def spelled_rows(draw):
    """A data row, often plain and valid, with up to two fields respelled by
    ODD_FIELD, and sometimes one field too few or too many."""
    lost = draw(st.sampled_from("01"))
    delays = draw(st.one_of(
        st.just(["", "", ""]),
        st.lists(st.one_of(st.just(""), st.integers(0, 10**12).map(str)),
                 min_size=3, max_size=3),
    ))
    row = [str(draw(st.integers(0, 5))), str(draw(st.integers(0, 10**9))), *delays, lost]
    for i in draw(st.sets(st.integers(0, 5), max_size=2)):
        row[i] = draw(ODD_FIELD)
    n = draw(st.sampled_from([6] * 8 + [5, 7]))
    return ",".join((row + ["0"])[:n])


def parse_outcome(data):
    """parse_trace's trace, or the class, message and line of what it raised."""
    try:
        return parse_trace(data)
    except LlabError as e:
        return type(e), str(e), getattr(e, "line", None)


def spelled_csv(rows, eol, trailing):
    return (CSV_HEADER + eol + eol.join(rows) + (eol if trailing else "")).encode()


#: Read sizes of parse_trace: a byte, a few dozen (rows straddle reads), the default.
CHUNK_BYTES = st.sampled_from([1, 7, 24, 40, core._PARSE_CHUNK_BYTES])


@st.composite
def mixed_csv(draw):
    """A plain file, with seq sometimes unordered and t_send_ns then
    sometimes decreasing, and one line respelled: CRLF, which is a row, or
    blank or ``+5``, which are not."""
    seqs = draw(st.lists(st.integers(0, 20), min_size=1, max_size=12, unique=True))
    lines = [f"{s},{10 * s + draw(st.integers(0, 15))},30,,55,0" for s in seqs]
    odd = draw(st.sampled_from(["crlf", "blank", "plus"]))
    i = draw(st.integers(0, len(lines) - (odd != "blank")))
    if odd == "blank":
        lines.insert(i, draw(st.sampled_from(["", " "])))
    else:
        lines[i] = lines[i] + "\r" if odd == "crlf" else "+" + lines[i]
    return (CSV_HEADER + "\n" + "\n".join(lines) + "\n").encode()


#: A row of the trace format, its line end aside: seq and t_send_ns digits,
#: each delay digits or empty, and lost 0 or 1; and its most bytes.
ROW = re.compile(rb"([0-9]+),([0-9]+),([0-9]*),([0-9]*),([0-9]*),([01])")
ROW_MAX_BYTES = 128


def reference_rows(chunk):
    """The (rows, 6) int64 fields of the whole lines ``chunk``, read one line
    at a time, or the index of its first line that is not a row."""
    rows = []
    for i, line in enumerate(chunk.split(b"\n")[:-1]):
        line = line.removesuffix(b"\r")
        m = ROW.fullmatch(line) if len(line) <= ROW_MAX_BYTES else None
        fields = [int(v) if v else ABSENT for v in m.groups()] if m else []
        if not m or max(fields) > INT64_MAX or (fields[5] and fields[2:5] != [ABSENT] * 3):
            return i
        rows.append(fields)
    return np.array(rows, dtype=np.int64).reshape(-1, 6)


class TestFastPath:
    """The loadtxt decoder returns what a per-line reference returns, or
    refuses the read, which is then refused at its first line that is not a row."""

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(
        st.builds(spelled_csv, st.lists(spelled_rows(), min_size=1, max_size=4),
                  st.sampled_from(["\n", "\n", "\r\n"]), st.booleans()),
        mixed_csv(),
    ), CHUNK_BYTES)
    # a lost field of two digits that ends in 0 or 1
    @example(spelled_csv(["0,1,2,3,4,01"], "\n", True), core._PARSE_CHUNK_BYTES)
    @example(spelled_csv(["0,1,,,,10"], "\n", False), 24)
    # "\r\r\n": one "\r" is left in the lost field, which the line decoder refuses
    @example(spelled_csv(["0,1,2,3,4,0\r"], "\r\n", True), core._PARSE_CHUNK_BYTES)
    def test_fast_path_agrees_with_line_parser(self, data, chunk_bytes):
        """Every read, and every run of lines the line finder tries, that the
        loadtxt decoder takes decodes to the reference's rows, and every one
        it refuses holds a line that the reference refuses; a file with such
        a line (one CRLF, blank or ``+5`` line among plain ones, say) is
        refused at the first of them, and any other makes the reference's
        rows, sorted by seq, or an error that is not about a line's spelling."""
        plain_rows = core._plain_rows

        def checked(chunk):
            a, expected = plain_rows(chunk), reference_rows(chunk)
            if a is None:
                assert isinstance(expected, int), chunk
            else:
                np.testing.assert_array_equal(a, expected)
            return a

        with mock.patch.object(core, "_PARSE_CHUNK_BYTES", chunk_bytes), \
                mock.patch.object(core, "_plain_rows", checked):
            outcome = parse_outcome(data)
        body = data.split(b"\n", 1)[1]
        expected = reference_rows(body if body.endswith(b"\n") or not body else body + b"\n")
        if isinstance(expected, int):
            assert outcome[0] is MalformedRow and outcome[2] == 2 + expected, outcome
            assert outcome[1].startswith(f"line {outcome[2]}: not a trace row: ")
        elif isinstance(outcome, Trace):
            got = np.column_stack([getattr(outcome, k).astype(np.int64) for k in COLUMNS])
            np.testing.assert_array_equal(got, expected[np.argsort(expected[:, 0])])
        else:
            assert "not a trace row" not in outcome[1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(spelled_rows(), min_size=1, max_size=6),
           st.sampled_from(["\n", "\n", "\r\n"]), st.booleans(), CHUNK_BYTES)
    def test_file_parses_as_its_bytes_do(self, rows, eol, trailing, chunk_bytes):
        """Unordered seq, a last line without its line end, CRLF, and invalid
        files with the same error and line number, from a file and from a
        source that cannot seek and returns short reads."""
        data = spelled_csv(rows, eol, trailing)
        with tempfile.TemporaryFile() as f:
            f.write(data)
            f.seek(0)
            with mock.patch.object(core, "_PARSE_CHUNK_BYTES", chunk_bytes):
                from_file = parse_outcome(f)
                from_stream = parse_outcome(ShortReads(data))
        assert from_file == from_stream == parse_outcome(data)

    def test_a_pipe_parses_without_a_temporary_file(self):
        tr, _ = generate(SynthConfig(n_periods=1, loss_rate=0.05, seed=4))
        data = written(tr)  # larger than a pipe's buffer: written while it is read
        r, w = os.pipe()
        writer = threading.Thread(target=lambda: (os.write(w, data), os.close(w)))
        with mock.patch.object(tempfile, "TemporaryFile", side_effect=OSError("no TMPDIR")), \
                open(r, "rb") as pipe:
            writer.start()
            parsed = parse_trace(pipe)
        writer.join()
        assert parsed == tr

    def test_rows_straddle_reads(self, monkeypatch, tmp_path):
        tr, _ = generate(SynthConfig(n_periods=1, loss_rate=0.05, seed=4))
        path = tmp_path / "t.csv"
        path.write_bytes(written(tr))
        monkeypatch.setattr(core, "_PARSE_CHUNK_BYTES", 37)
        monkeypatch.setattr(core, "_bad_line", None)  # the line finder must not run
        with open(path, "rb") as f:
            assert parse_trace(f) == tr

    @pytest.mark.parametrize("unordered", [False, True])
    def test_parsed_columns_reach_the_trace_without_a_copy(self, unordered):
        tr, _ = generate(SynthConfig(n_periods=1, loss_rate=0.05, seed=4))
        lines = written(tr).split(b"\n")
        if unordered:  # sorting by seq then gathers each column
            lines[5], lines[6] = lines[6], lines[5]
        taken = []

        def spy(arr, dtype=np.float64):
            out = frozen(arr, dtype)
            taken.append(out is arr)
            return out

        with mock.patch.object(core, "frozen", spy):
            parsed = parse_trace(io.BytesIO(b"\n".join(lines)))
        assert parsed == tr
        assert taken == [True] * len(COLUMNS)

    @pytest.fixture
    def no_line_parser(self, monkeypatch):
        def refuse(chunk, line):
            raise AssertionError("the line finder ran")
        monkeypatch.setattr(core, "_bad_line", refuse)

    def test_synth_trace_with_loss_takes_fast_path(self, no_line_parser):
        tr, _ = generate(SynthConfig(n_periods=2, loss_rate=0.05, seed=4))
        assert tr.n_lost > 0
        assert parse_trace(written(tr)) == tr

    def test_some_directions_absent_takes_fast_path(self, no_line_parser):
        tr = make_trace([(i, i * 10, None, 7 + i, None, 0) for i in range(5)]
                        + [(5, 50, None, None, None, 1), (6, 60, 3, None, None, 0)])
        assert parse_trace(written(tr)) == at_nominal_dt(tr)

    def test_crlf_synth_trace_takes_fast_path(self, no_line_parser):
        tr, _ = generate(SynthConfig(n_periods=1, loss_rate=0.05, seed=4))
        assert parse_trace(written(tr).replace(b"\n", b"\r\n")) == tr

    @pytest.mark.parametrize("text", [
        CSV_HEADER + "\n0,-500,30,,55,0\n1,200,,,,1\n",
        CSV_HEADER + "\n\n0,100,30,,55,0\n1,200,,,,1\n",  # blank lines, first and inside
        CSV_HEADER + "\n0,100,30,,55,0\n\n1,200,,,,1\n",
    ])
    def test_other_spellings_parse_through_the_line_parser(self, text):
        # a negative send time and a blank line are not rows: each is refused at its line
        assert core._plain_rows(text.encode().split(b"\n", 1)[1]) is None
        line = next(i for i, t in enumerate(text.split("\n"), 1) if not t or "-" in t)
        with pytest.raises(MalformedRow) as ei:
            parse_trace(text.encode())
        assert ei.value.line == line and ei.value.reason.startswith("not a trace row: ")

    def test_parse_peak_memory_per_row(self):
        n = 200_000
        tr = epoch_trace(n)
        data = written(tr)
        parsed, peak = traced_peak(parse_trace, data)
        assert parsed == tr
        assert peak / n < 160, f"{peak / n:.0f} B/row"

    def test_write_peak_memory_per_row(self):
        n = 200_000
        tr = epoch_trace(n)
        data, peak = traced_peak(written, tr)
        assert data == write_rows(tr)
        assert peak / n < 150, f"{peak / n:.0f} B/row"

    def test_write_peak_memory_does_not_grow_with_rows(self):
        class HashSink:
            def __init__(self):
                self.sha256 = hashlib.sha256()

            def write(self, data):
                self.sha256.update(data)

        peaks = []
        for n in (200_000, 800_000):
            tr = epoch_trace(n)
            _, peak = traced_peak(lambda t: write_trace(t, HashSink()), tr)
            peaks.append(peak)
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("workers", [3, 8, 16])
    def test_write_peak_memory_does_not_grow_with_cpus(self, monkeypatch, workers):
        # the chunks shrink as workers are added, so those in flight hold as many rows
        tr = epoch_trace(200_000)
        peaks = []
        for w in (2, workers):
            monkeypatch.setattr(_num, "WORKERS", w)
            sink = types.SimpleNamespace(write=hashlib.sha256().update)
            peaks.append(traced_peak(lambda t: write_trace(t, sink), tr)[1])
        assert peaks[1] <= 1.1 * peaks[0], peaks


def plain_line(s):
    """Row s of a plain file: sent at 10 s ns, every third row lost."""
    return b"%d,%d,,,,1" % (s, 10 * s) if s % 3 == 2 else b"%d,%d,30,20,55,0" % (s, 10 * s)


#: Respellings of row s that are not rows, each with its own line end.
RESPELLED = {
    "blank": lambda s: b"\n",
    "space": lambda s: b"%d, %d,30,20,55,0\n" % (s, 10 * s),
    "plus": lambda s: b"%d,%d,+30,20,55,0\n" % (s, 10 * s),
    "minus delay": lambda s: b"%d,%d,30,-1,55,0\n" % (s, 10 * s),
    "not utf8": lambda s: b"%d,%d,30,2\xff0,55,0\n" % (s, 10 * s),
    "bare cr": lambda s: b"%d,%d,30,20,55,0\r%d,%d,,,,1\n" % (s, 10 * s, s, 10 * s),
    "cr cr lf": lambda s: b"%d,%d,30,20,55,0\r\r\n" % (s, 10 * s),
    "5 fields": lambda s: b"%d,%d,30,55,0\n" % (s, 10 * s),
    "7 fields": lambda s: b"%d,%d,30,20,20,55,0\n" % (s, 10 * s),
    "lost 2": lambda s: b"%d,%d,,,,2\n" % (s, 10 * s),
    "lost 01": lambda s: b"%d,%d,,,,01\n" % (s, 10 * s),
    "lost with delay": lambda s: b"%d,%d,,20,,1\n" % (s, 10 * s),
    "past int64": lambda s: b"%d,%d,30,9223372036854775808,55,0\n" % (s, 10 * s),
    "negative t_send": lambda s: b"%d,-%d,30,20,55,0\n" % (s, 10 * s + 1),
}


class TestOneDialect:
    """A file of rows with one line respelled is refused at that line."""

    @pytest.mark.parametrize("kind", sorted(RESPELLED))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), eol=st.sampled_from([b"\n", b"\r\n"]), chunk_bytes=CHUNK_BYTES)
    def test_a_respelled_line_is_refused_at_its_line(self, kind, data, eol, chunk_bytes):
        n = data.draw(st.integers(1, 12))
        i = data.draw(st.integers(0, n - 1))
        lines = [plain_line(s) + eol for s in range(n)]
        lines[i] = RESPELLED[kind](i)
        csv = CSV_HEADER.encode() + eol + b"".join(lines)
        with tempfile.TemporaryFile() as f, \
                mock.patch.object(core, "_PARSE_CHUNK_BYTES", chunk_bytes):
            f.write(csv)
            f.seek(0)
            for source in (csv, f, ShortReads(csv)):
                with pytest.raises(MalformedRow) as ei:
                    parse_trace(source)
                assert ei.value.line == 2 + i, (kind, source)
                want = lines[i].removesuffix(b"\n").removesuffix(b"\r")
                assert ei.value.reason == f"not a trace row: {want!r}"

    def test_a_long_line_is_named_by_its_first_80_bytes(self):
        line = b"0,1," + b"7" * 100 + b",,,0"
        with pytest.raises(MalformedRow) as ei:
            parse_trace(CSV_HEADER.encode() + b"\n" + line + b"\n")
        assert ei.value.reason == f"not a trace row: {line[:80]!r}"

    def test_the_longest_written_row_is_below_the_bound(self):
        assert core._ROW_MAX_BYTES == ROW_MAX_BYTES
        top = 2**63 - 1
        tr = Trace(np.array([top], np.uint64), np.array([top]), *[np.array([top])] * 3,
                   np.array([False]), 1)
        (line,) = written(tr).splitlines()[1:]
        assert len(line) == 5 * 19 + 5 + 1 < ROW_MAX_BYTES

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("chunk_bytes", [1, 7, 24, 40, core._PARSE_CHUNK_BYTES])
    def test_a_row_past_the_bound_is_refused_at_its_line(self, eol, chunk_bytes):
        # a zero-padded seq: a row by every other rule, at the bound and one byte past it
        rows = [plain_line(0), plain_line(1).zfill(ROW_MAX_BYTES), plain_line(2)]
        ok = CSV_HEADER.encode() + eol + eol.join(rows) + eol
        over = ok.replace(rows[1], b"0" + rows[1])
        assert [len(r) for r in (rows[1], b"0" + rows[1])] == [ROW_MAX_BYTES, ROW_MAX_BYTES + 1]
        with mock.patch.object(core, "_PARSE_CHUNK_BYTES", chunk_bytes):
            assert list(parse_trace(ok).seq) == [0, 1, 2]
            for source in (over, io.BytesIO(over), ShortReads(over)):
                with pytest.raises(MalformedRow) as ei:
                    parse_trace(source)
                assert ei.value.line == 3
                assert ei.value.reason == f"not a trace row: {b'0' * 80!r}"

    @pytest.mark.parametrize("source", [io.BytesIO, lambda data: ShortReads(data)],
                             ids=["1 MiB reads", "3-byte reads"])
    def test_a_line_with_no_end_is_refused_before_it_is_read_whole(self, source):
        # 16 MiB with no line end: held whole, or copied at every read, it
        # would cost its size at least, and time that grows with its square
        data = source(CSV_HEADER.encode() + b"\n" + b"7" * (16 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(MalformedRow) as ei:
                parse_trace(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert ei.value.line == 2
        assert ei.value.reason == f"not a trace row: {b'7' * 80!r}"


def epoch_trace(n):
    """n rows 2 ms apart with 19-digit send times, 1% lost, and delays below 0.1 s."""
    rng = np.random.default_rng(5)
    lost = rng.random(n) < 0.01
    delays = [np.where(lost, ABSENT, rng.integers(0, 10**8, n)) for _ in range(3)]
    return Trace(np.arange(n, dtype=np.uint64), 1_700_000_000_000_000_000
                 + np.arange(n) * 2_000_000, *delays, lost, 2_000_000)


def at_nominal_dt(trace):
    """``trace`` with the interval parse_trace infers from its send times."""
    return dataclasses.replace(trace, dt_nominal=core.nominal_dt_ns(trace.t_send))


class ShortReads:
    """A source that cannot seek, with only ``read`` and ``readline``, whose
    reads return at most 3 bytes."""

    def __init__(self, data):
        self._f = io.BytesIO(data)

    def read(self, n):
        return self._f.read(min(n, 3))

    def readline(self, size=-1):
        return self._f.readline(size)


def written(trace):
    """The bytes write_trace writes for ``trace``."""
    buf = io.BytesIO()
    write_trace(trace, buf)
    return buf.getvalue()


def traced_peak(f, arg):
    """f(arg), and the peak of memory that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        out = f(arg)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_rows(trace):
    """Reference CSV formatter, one row at a time."""
    out = [CSV_HEADER]
    cols = (trace.seq, trace.t_send, trace.ul, trace.dl, trace.rtt, trace.lost)
    for seq, t, ul, dl, rtt, lost in zip(*cols):
        d = ["" if v == ABSENT else str(int(v)) for v in (ul, dl, rtt)]
        out.append(f"{int(seq)},{int(t)},{d[0]},{d[1]},{d[2]},{int(lost)}")
    out.append("")
    return "\n".join(out).encode("utf-8")


INT64_MAX = 2**63 - 1


def decimals(lo, hi):
    """Integers in [lo, hi] whose number of digits is drawn evenly from 1 to 19."""
    return st.integers(1, 19).flatmap(lambda w: st.integers(
        max(lo, 10 ** (w - 1) if w > 1 else 0), min(hi, 10**w - 1)))


@st.composite
def written_traces(draw):
    """Traces of up to 12 rows, every field of every digit width, absent
    delays and lost rows."""
    n = draw(st.integers(1, 12))
    seq = sorted(draw(st.sets(decimals(0, INT64_MAX), min_size=n, max_size=n)))
    t_send = sorted(draw(st.lists(decimals(0, INT64_MAX), min_size=n, max_size=n)))
    rows = []
    for s, t in zip(seq, t_send):
        if draw(st.integers(0, 3)) == 0:
            rows.append((s, t, None, None, None, 1))
        else:
            delays = [draw(st.one_of(st.none(), decimals(0, INT64_MAX))) for _ in range(3)]
            rows.append((s, t, *delays, 0))
    return make_trace(rows)


#: Every digit width, 1 to 19, in every column: row i holds 10**i throughout.
EVERY_WIDTH = make_trace([(10**i, 10**i, 10**i, 10**i, 10**i, 0) for i in range(19)])
#: Every send-time width, 1 to 19, each at its largest value (all nines).
NINES_WIDTHS = make_trace([(i, min(10**(i + 1) - 1, INT64_MAX), None, 10**i, 1, 0)
                           for i in range(19)])
#: The extremes of seq and t_send, an absent delay in each direction, a lost row.
EXTREMES = make_trace([(0, 0, None, 5, 7, 0), (1, 0, 3, None, 9, 0),
                       (2, 1, 0, 0, None, 0), (INT64_MAX, INT64_MAX, None, None, None, 1)])
SINGLE_ROW = make_trace([(INT64_MAX, INT64_MAX, 0, None, INT64_MAX, 0)])


class TestRoundTrip:
    def test_csv_round_trip(self):
        tr = make_trace([(0, 0, 1, 1, 2, 0), (1, 10, None, None, None, 1),
                         (5, 60, 3, None, 9, 0)])
        assert parse_trace(written(tr)) == at_nominal_dt(tr)

    def test_synthetic_trace_round_trips(self):
        tr, _ = generate(SynthConfig(n_periods=2, loss_rate=0.01, seed=3))
        assert parse_trace(written(tr)) == tr

    def test_write_crosses_chunk_boundary(self):
        i = core._WRITE_CHUNK_ROWS  # first row of the second chunk
        n = i + 3
        rng = np.random.default_rng(6)
        ul, dl, rtt = (rng.integers(0, 10**9, n) for _ in range(3))
        lost = np.zeros(n, bool)
        lost[[i - 1, i + 1]] = True
        for col in (ul, dl, rtt):
            col[lost] = ABSENT
        ul[i] = rtt[i] = ABSENT
        tr = Trace(np.arange(n, dtype=np.uint64) * 3, np.arange(n) * 7, ul, dl, rtt,
                   lost, 7)
        assert written(tr) == write_rows(tr)

    @settings(max_examples=200, deadline=None)
    @given(written_traces(), st.sampled_from([1, 3, core._WRITE_CHUNK_ROWS]))
    @example(EVERY_WIDTH, 7)
    @example(NINES_WIDTHS, 5)
    @example(EXTREMES, 3)
    @example(SINGLE_ROW, core._WRITE_CHUNK_ROWS)
    def test_write_matches_row_formatter(self, tr, chunk_rows):
        """Byte for byte, with the trace cut into chunks of every size drawn."""
        with mock.patch.object(core, "_WRITE_CHUNK_ROWS", chunk_rows):
            assert written(tr) == write_rows(tr)

    def test_write_empty_refused(self):
        tr = Trace(np.empty(0, np.uint64), np.empty(0, np.int64),
                   np.empty(0, np.int64), np.empty(0, np.int64),
                   np.empty(0, np.int64), np.empty(0, bool), dt_nominal=1)
        with pytest.raises(EmptyTrace):
            write_trace(tr, io.BytesIO())

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_traces_round_trip(self, data):
        n = data.draw(st.integers(1, 40))
        rows = []
        t = 0
        for i in range(n):
            t += data.draw(st.integers(0, 10_000_000))
            if data.draw(st.booleans()):
                rows.append((i, t, None, None, None, 1))
            else:
                delays = [
                    data.draw(st.one_of(st.none(), st.integers(0, 10**12)))
                    for _ in range(3)
                ]
                rows.append((i, t, *delays, 0))
        tr = make_trace(rows)
        assert parse_trace(written(tr)) == at_nominal_dt(tr)


class TestValidation:
    def test_split_violation_counted(self):
        # 40 ms round trip against 30+20 ms one-way parts breaks the path
        # relation by 10 ms, far beyond the clock-noise allowance
        tr = make_trace([
            (0, 0, 30_000_000, 20_000_000, 40_000_000, 0),
            (1, 10, 30_000_000, 20_000_000, 55_000_000, 0),
        ])
        rep = validate_trace(tr)
        assert rep.delay_split_checked == 2
        assert rep.delay_split_violations == 1
        assert rep.delay_split_violation_fraction == pytest.approx(0.5)

    def test_split_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        rows = []
        for i in range(200):
            ul = int(rng.integers(0, 50_000_000))
            dl = int(rng.integers(0, 50_000_000))
            rtt = int(rng.integers(0, 120_000_000))
            rows.append((i, i * 10, ul, dl, rtt, 0))
        expected = sum(1 for r in rows if r[4] < r[2] + r[3] - DELAY_SPLIT_EPSILON_NS)
        rep = validate_trace(make_trace(rows))
        assert rep.delay_split_violations == expected

    def test_split_skips_incomplete_rows(self):
        # an absent rtt (-1) lies below any large ul + dl: the presence mask must drop it
        tr = make_trace([(0, 0, 30, None, 10, 0), (1, 10, None, None, None, 1),
                         (2, 20, 30_000_000, 20_000_000, None, 0)])
        rep = validate_trace(tr)
        assert rep.delay_split_checked == 0 and rep.delay_split_violations == 0

    def test_intersend_stats(self):
        # constant 2 ms gaps: median 2e6, zero jitter
        tr = make_trace([(i, i * 2_000_000, 1, 1, 2, 0) for i in range(10)])
        rep = validate_trace(tr)
        assert rep.intersend_median_ns == 2_000_000
        assert rep.intersend_mad_ns == 0.0

    @staticmethod
    def ul_coverage_trace(n_ul):
        """100 delivered rows, ul on the first n_ul of them, dl on none and
        rtt on all, plus 20 lost rows that carry nothing and do not count."""
        rows = [(i, i * 10, 1 if i < n_ul else None, None, 5, 0) for i in range(100)]
        rows += [(i, i * 10, None, None, None, 1) for i in range(100, 120)]
        return make_trace(rows)

    def test_direction_flags_consistency(self):
        for n_ul, consistent in ((100, True), (0, True), (50, False)):
            rep = validate_trace(self.ul_coverage_trace(n_ul))
            assert rep.direction_flags_consistent == consistent, n_ul

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_trace_of_no_gap_validates(self, n):
        tr = make_trace([(i, 0, 1, 2, 3, 0) for i in range(n)])
        rep = validate_trace(tr)
        assert (rep.n_samples, rep.delay_split_checked, rep.intersend_median_ns) == (n, n, 0.0)
        assert rep.direction_flags_consistent

    def test_holds_no_full_size_array(self):
        # the split check and the coverage counts stream in blocks, as the send-gap medians do
        n = 2_000_000
        ul = np.full(n, 10**7)
        lost = np.zeros(n, bool)
        lost[::97] = True
        ul[lost] = ABSENT
        tr = Trace(np.arange(n, dtype=np.uint64), np.arange(n) * 2_000_000, ul, ul,
                   np.where(lost, ABSENT, 2 * 10**7 - 1), lost, 2_000_000)
        rep, peak = traced_peak(validate_trace, tr)
        assert peak <= 0.25 * tr.ul.nbytes
        assert rep.delay_split_checked == n - lost.sum() and rep.delay_split_violations == 0

    def test_coverage_threshold(self):
        # exactly 1% and exactly 99% of delivered rows still count as
        # "nearly none" and "nearly all"; one row further in, they do not
        for n_ul, consistent in ((1, True), (2, False), (98, False), (99, True)):
            rep = validate_trace(self.ul_coverage_trace(n_ul))
            assert rep.direction_flags_consistent == consistent, n_ul
