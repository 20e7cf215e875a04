"""Trace model, CSV/JSONL round-trips, and the validation report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llab.core import (
    ABSENT,
    CSV_HEADER,
    DELAY_SPLIT_EPSILON_NS,
    Trace,
    infer_metadata,
    parse_trace,
    validate_trace,
    write_trace,
)
from llab.errors import DuplicateSeq, EmptyTrace, MalformedRow


def make_trace(rows, dt=2_000_000):
    """rows: (seq, t_send, ul, dl, rtt, lost) with None for absent delays."""
    cols = np.array([[ABSENT if v is None else v for v in r] for r in rows],
                    dtype=np.int64).reshape(-1, 6)
    seq, t_send, ul, dl, rtt, lost = cols.T
    lost = lost.astype(bool)
    return Trace(seq.astype(np.uint64), t_send, ul, dl, rtt, lost, dt,
                 infer_metadata(t_send, ul, dl, rtt, lost))


class TestSample:
    """Per-row invariants, enforced when a Trace is built."""

    def test_lost_with_delays_rejected(self):
        with pytest.raises(ValueError):
            make_trace([(0, 0, 5, None, None, 1)])

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            make_trace([(0, 0, None, None, ABSENT - 1, 0)])


class TestTrace:
    def test_duplicate_seq(self):
        with pytest.raises(DuplicateSeq):
            make_trace([(0, 0, 1, 1, 2, 0), (0, 10, 1, 1, 2, 0)])

    def test_seq_must_increase(self):
        with pytest.raises(ValueError):
            make_trace([(5, 0, 1, 1, 2, 0), (3, 10, 1, 1, 2, 0)])

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

    def test_columns_read_only(self):
        tr = make_trace([(0, 0, 1, 1, 2, 0), (1, 10, 1, 1, 2, 0)])
        with pytest.raises(ValueError):
            tr.ul[0] = 7

    def test_slice_returns_trace(self):
        tr = make_trace([(i, i * 10, 1, 1, 2, 0) for i in range(5)])
        assert list(tr[1:3].seq) == [1, 2]
        with pytest.raises(TypeError):
            tr[0]


class TestParsing:
    def test_csv_example_row(self):
        text = CSV_HEADER + "\n0,100,30,20,55,0\n"
        tr = parse_trace(text, "csv")
        assert (tr.ul[0], tr.dl[0], tr.rtt[0]) == (30, 20, 55)
        assert not tr.lost[0]

    def test_empty_delay_fields_are_absent(self):
        text = CSV_HEADER + "\n0,100,30,,,0\n"
        tr = parse_trace(text, "csv")
        assert (tr.ul[0], tr.dl[0], tr.rtt[0]) == (30, ABSENT, ABSENT)

    def test_bad_header(self):
        with pytest.raises(MalformedRow) as ei:
            parse_trace("a,b,c\n1,2,3\n", "csv")
        assert ei.value.line == 1

    def test_malformed_row_reports_line(self):
        text = CSV_HEADER + "\n0,100,30,20,55,0\n1,200,oops,20,55,0\n"
        with pytest.raises(MalformedRow) as ei:
            parse_trace(text, "csv")
        assert ei.value.line == 3

    def test_lost_with_delays_is_malformed(self):
        text = CSV_HEADER + "\n0,100,30,20,55,1\n"
        with pytest.raises(MalformedRow):
            parse_trace(text, "csv")

    def test_empty_stream(self):
        with pytest.raises(EmptyTrace):
            parse_trace(CSV_HEADER + "\n", "csv")

    def test_rows_sorted_by_seq(self):
        text = CSV_HEADER + "\n2,300,1,1,2,0\n0,100,1,1,2,0\n1,200,1,1,2,0\n"
        tr = parse_trace(text, "csv")
        assert list(tr.seq) == [0, 1, 2]

    def test_duplicate_seq_across_rows(self):
        text = CSV_HEADER + "\n0,100,1,1,2,0\n0,200,1,1,2,0\n"
        with pytest.raises(DuplicateSeq):
            parse_trace(text, "csv")

    def test_jsonl_row(self):
        tr = parse_trace('{"seq":0,"t_send_ns":100,"ul_ns":30,"lost":false}\n', "jsonl")
        assert tr.ul[0] == 30 and tr.dl[0] == ABSENT

    def test_jsonl_bad_json_reports_line(self):
        with pytest.raises(MalformedRow) as ei:
            parse_trace('{"seq":0,"t_send_ns":1}\n{oops\n', "jsonl")
        assert ei.value.line == 2

    def test_dt_nominal_from_median_gap(self):
        text = CSV_HEADER + "".join(f"\n{i},{i * 500},1,1,2,0" for i in range(9))
        tr = parse_trace(text + "\n", "csv")
        assert tr.dt_nominal == 500


class TestRoundTrip:
    def test_csv_round_trip(self):
        tr = make_trace([(0, 0, 1, 1, 2, 0), (1, 10, None, None, None, 1),
                         (5, 60, 3, None, 9, 0)])
        assert parse_trace(write_trace(tr, "csv"), "csv", dt_nominal_ns=tr.dt_nominal) == tr

    def test_jsonl_round_trip(self):
        tr = make_trace([(0, 0, 1, 1, 2, 0), (1, 10, None, None, None, 1)])
        back = parse_trace(write_trace(tr, "jsonl"), "jsonl", dt_nominal_ns=tr.dt_nominal)
        assert back == tr

    def test_write_empty_refused(self):
        tr = Trace(np.empty(0, np.uint64), np.empty(0, np.int64),
                   np.empty(0, np.int64), np.empty(0, np.int64),
                   np.empty(0, np.int64), np.empty(0, bool), dt_nominal=1)
        with pytest.raises(EmptyTrace):
            write_trace(tr)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_traces_round_trip_both_formats(self, data):
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
        for fmt in ("csv", "jsonl"):
            back = parse_trace(write_trace(tr, fmt), fmt, dt_nominal_ns=tr.dt_nominal)
            assert back == tr


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
        tr = make_trace([(0, 0, 30, None, 10, 0), (1, 10, None, None, None, 1)])
        rep = validate_trace(tr)
        assert rep.delay_split_checked == 0 and rep.delay_split_violations == 0

    def test_intersend_stats(self):
        # constant 2 ms gaps: median 2e6, zero jitter
        tr = make_trace([(i, i * 2_000_000, 1, 1, 2, 0) for i in range(10)])
        rep = validate_trace(tr)
        assert rep.intersend_median_ns == 2_000_000
        assert rep.intersend_mad_ns == 0.0

    def test_direction_flags_consistency(self):
        rows = [(i, i * 10, 1, None, None, 0) for i in range(100)]
        tr = make_trace(rows)
        assert tr.meta.has_ul and not tr.meta.has_dl
        assert validate_trace(tr).direction_flags_consistent
        bad = Trace(tr.seq, tr.t_send, tr.ul, tr.dl, tr.rtt, tr.lost,
                    tr.dt_nominal, infer_metadata(tr.t_send, tr.dl, tr.dl,
                                                  tr.rtt, tr.lost))
        assert not validate_trace(bad).direction_flags_consistent

    def test_coverage_threshold(self):
        # 99 of 100 delivered rows carry ul: exactly at the 99% line
        rows = [(i, i * 10, 1 if i else None, None, None, 0) for i in range(100)]
        tr = make_trace(rows)
        assert tr.meta.has_ul
