"""Edge detection, phase recovery, period slicing, and the profile."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llab.errors import (
    EmptyHistogram,
    EmptyInput,
    InvalidConfig,
    InvalidWindow,
    NoCompletePeriod,
    TooShort,
)
from llab.segment import (
    MeanCenteredProfile,
    Segmentation,
    SegmentationConfig,
    core_bounds,
    detect_edges,
    detect_phase,
    diff_series,
    mean_centered_profile,
    period_matrix,
    phase_histogram,
    profile_from_trace,
    refine_phase,
    robust_threshold,
    segment_trace,
    stable_core,
)
from llab.synth import GaussianNoise, PeriodMeanModel, SpikeTemplate, SynthConfig, generate


class TestDiffSeries:
    def test_values(self):
        assert np.array_equal(diff_series([10.0, 15.0, 12.0]), [5.0, -3.0])

    def test_gap_produces_nan(self):
        d = diff_series([1.0, np.nan, 4.0])
        assert np.isnan(d[0]) and np.isnan(d[1])

    def test_too_short(self):
        with pytest.raises(TooShort):
            diff_series([1.0, np.nan])


class TestRobustThreshold:
    def test_gaussian_scale_recovered(self):
        # for N(0,1) diffs the scaled MAD is sigma, so theta should be c
        x = np.random.default_rng(0).standard_normal(100_000)
        est = robust_threshold(x, c=8.0)
        assert est.theta == pytest.approx(8.0, abs=0.15)
        assert not est.degenerate

    def test_c_zero_returns_median(self):
        x = np.arange(200.0)
        est = robust_threshold(x, c=0.0)
        assert est.theta == np.median(x)

    def test_degenerate_fallback_catches_lone_spike(self):
        x = np.zeros(1000)
        x[500] = 50.0
        est = robust_threshold(x, c=8.0)
        assert est.degenerate
        assert est.mad == 0.0
        # halfway between the bulk and the deviating value
        assert est.theta == 25.0
        assert est.theta < 50.0

    def test_needs_100_diffs(self):
        with pytest.raises(TooShort):
            robust_threshold(np.zeros(99))

    def test_nan_ignored(self):
        x = np.r_[np.random.default_rng(1).standard_normal(5000), [np.nan] * 50]
        est = robust_threshold(x, c=8.0)
        assert np.isfinite(est.theta)


class TestDetectEdges:
    def test_single_exceedance(self):
        assert list(detect_edges([0.0, 0.0, 50.0, 0.0], theta=10.0, min_spacing=2)) == [2]

    def test_largest_wins_within_spacing(self):
        x = np.zeros(7600)
        x[100] = 40.0
        x[150] = 60.0
        assert list(detect_edges(x, theta=10.0, min_spacing=7500)) == [150]

    def test_tie_goes_to_earliest(self):
        x = np.zeros(7600)
        x[100] = 50.0
        x[150] = 50.0
        assert list(detect_edges(x, theta=10.0, min_spacing=7500)) == [100]

    def test_exact_spacing_both_kept(self):
        x = np.zeros(200)
        x[10] = 50.0
        x[110] = 40.0
        assert list(detect_edges(x, theta=10.0, min_spacing=100)) == [10, 110]

    def test_no_candidates(self):
        assert detect_edges(np.zeros(10), theta=1.0, min_spacing=5).size == 0

    def test_nan_never_a_candidate(self):
        x = np.array([0.0, np.nan, 50.0])
        assert list(detect_edges(x, theta=10.0, min_spacing=1)) == [2]


class TestPhaseHistogram:
    def test_folding(self):
        h = phase_histogram([2, 7502, 15002], S=7500)
        assert h[2] == 3 and h.sum() == 3

    def test_histogram_counts_all_candidates(self):
        cand = np.random.default_rng(2).integers(0, 100_000, 500)
        h = phase_histogram(cand, S=7500)
        assert h.sum() == 500


class TestRefinePhase:
    def test_point_mass(self):
        h = np.zeros(7500)
        h[5] = 10
        assert refine_phase(h) == 5.0

    def test_symmetric_neighborhood_returns_peak(self):
        h = np.zeros(7500)
        h[1233], h[1234], h[1235] = 1, 8, 1
        assert refine_phase(h, top_k_bins=3) == pytest.approx(1234.0, abs=1e-12)

    def test_wraparound(self):
        h = np.zeros(7500)
        h[7499] = 1
        h[0] = 1
        assert refine_phase(h, top_k_bins=3) == pytest.approx(7499.5)

    def test_asymmetric_mass_pulls_phase(self):
        h = np.zeros(100)
        h[50], h[51] = 8, 4
        s = refine_phase(h, top_k_bins=3)
        assert 50.0 < s < 51.0

    def test_empty_histogram(self):
        with pytest.raises(EmptyHistogram):
            refine_phase(np.zeros(100))

    def test_even_k_rejected(self):
        with pytest.raises(InvalidConfig):
            refine_phase(np.ones(100), top_k_bins=4)

    @settings(max_examples=100, deadline=None)
    @given(
        shift=st.integers(0, 7499),
        peak=st.integers(0, 7499),
        reps=st.integers(4, 10),
        extras=st.lists(st.integers(0, 74_999), max_size=3),
    )
    def test_shift_equivariance(self, shift, peak, reps, extras):
        # a unique histogram maximum moves with the candidates; the extras
        # are too few to create a competing peak
        S = 7500
        cand = [peak] * reps + extras
        base = refine_phase(phase_histogram(cand, S))
        moved = refine_phase(phase_histogram([c + shift for c in cand], S))
        d = abs(moved - (base + shift) % S)
        assert min(d, S - d) < 1e-6


class TestDetectPhase:
    def test_recovers_configured_phase(self):
        cfg = SynthConfig(
            n_periods=30,
            phase_offset=300.0,
            period_mean=PeriodMeanModel(mean_ms=40.0, sigma_ms=8.0),
            noise=GaussianNoise(sigma_ms=0.5),
            spike=SpikeTemplate(head_peak_ms=20.0, tail_peak_ms=0.0),
            seed=5,
        )
        trace, truth = generate(cfg)
        det = detect_phase(trace.delay_ms("ul"))
        d = abs(det.s_star - truth.s_star)
        assert min(d, cfg.S - d) <= 2.0
        assert det.histogram.sum() == det.candidates.size


class TestCoreBounds:
    def test_default_geometry(self):
        assert core_bounds(7500, 2.0, 140.0, 75.0) == (70, 7462)

    def test_fractional_rounds_outward(self):
        # 75 ms / 2 ms = 37.5 bins: excise 38, never 37
        assert core_bounds(7500, 2.0, 140.0, 75.0)[1] == 7500 - 38

    def test_no_core_left(self):
        with pytest.raises(InvalidWindow):
            core_bounds(100, 2.0, 140.0, 75.0)

    def test_stable_core_slices_last_axis(self):
        m = np.arange(2 * 7500, dtype=float).reshape(2, 7500)
        c = stable_core(m, 2.0)
        assert c.shape == (2, 7392)
        assert c[0, 0] == 70.0


class TestSegmentTrace:
    def make_trace(self, n_bins, phase=0.0, lost_idx=()):
        cfg = SynthConfig(
            n_periods=max(1, int(np.ceil(n_bins / 7500))),
            period_mean=PeriodMeanModel(mean_ms=40.0, sigma_ms=0.0),
            noise=GaussianNoise(sigma_ms=0.0),
            seed=0,
        )
        trace, _ = generate(cfg)
        trace = trace[:n_bins]
        if lost_idx:
            ul = trace.ul.copy()
            dl = trace.dl.copy()
            rtt = trace.rtt.copy()
            lost = trace.lost.copy()
            for i in lost_idx:
                ul[i] = dl[i] = rtt[i] = -1
                lost[i] = True
            from llab.core import Trace
            trace = Trace(trace.seq, trace.t_send, ul, dl, rtt, lost,
                          trace.dt_nominal)
        return trace

    def test_first_period_starts_at_phase(self):
        trace = self.make_trace(2 * 7500 + 200)
        seg = segment_trace(trace, 100.0)
        assert seg.periods[0].start_bin == 100
        assert seg.periods[0].end_bin == 7600

    def test_fractional_phase_rounds_up(self):
        trace = self.make_trace(2 * 7500 + 200)
        seg = segment_trace(trace, 99.25)
        assert seg.periods[0].start_bin == 100

    def test_partial_periods_dropped(self):
        trace = self.make_trace(3 * 7500 + 3750)  # 3.5 periods
        seg = segment_trace(trace, 0.0)
        assert len(seg.periods) == 3

    def test_no_complete_period(self):
        trace = self.make_trace(7000)
        with pytest.raises(NoCompletePeriod):
            segment_trace(trace, 0.0)

    def test_lossy_core_excluded(self):
        # knock out 6% of one period's stable core, above the 5% cap
        lost = list(range(70, 70 + int(0.06 * 7392)))
        trace = self.make_trace(2 * 7500, lost_idx=lost)
        seg = segment_trace(trace, 0.0)
        assert seg.periods[0].excluded
        assert not seg.periods[1].excluded
        assert [s.p for s in seg.kept] == [1]

    def test_boundary_loss_does_not_exclude(self):
        # the same budget spent inside the excised head leaves the core intact
        trace = self.make_trace(2 * 7500, lost_idx=list(range(0, 60)))
        seg = segment_trace(trace, 0.0)
        assert not seg.periods[0].excluded

    def test_json_round_trip(self):
        trace = self.make_trace(2 * 7500)
        det_hist = np.zeros(7500, dtype=np.int64)
        det_hist[42] = 7
        seg = segment_trace(trace, 42.0, histogram=det_hist)
        back = Segmentation.from_json(seg.to_json())
        assert back.s_star == seg.s_star
        assert back.S == seg.S
        assert back.periods == seg.periods
        assert back.core_bins == seg.core_bins == (70, 7462)
        assert back.histogram[42] == 7
        # stored sparse: only nonzero bins serialized
        assert json.loads(seg.to_json())["histogram_nonzero"] == {"42": 7}

    def test_core_bins_follow_the_config(self):
        trace = self.make_trace(2 * 7500)
        seg = segment_trace(trace, 0.0, SegmentationConfig(head_excise_ms=300.0))
        assert seg.core_bins == (150, 7462)

    def test_json_without_valid_core_bins_rejected(self):
        obj = json.loads(segment_trace(self.make_trace(2 * 7500), 0.0).to_json())
        for bins in ([7462, 70], [0, 7501]):
            with pytest.raises(InvalidConfig):
                Segmentation.from_json(json.dumps({**obj, "core_bins": bins}))
        del obj["core_bins"]
        with pytest.raises(InvalidConfig):
            Segmentation.from_json(json.dumps(obj))


class TestProfile:
    def test_constant_series_gives_zero_profile(self):
        m = np.full((4, 100), 7.5)
        prof = mean_centered_profile(m)
        assert np.allclose(prof.values, 0.0)
        assert prof.n_periods == 4

    def test_mean_shift_between_periods_removed(self):
        base = np.sin(np.linspace(0, 2 * np.pi, 100))
        m = np.stack([base + 10.0, base + 50.0])
        prof = mean_centered_profile(m)
        assert np.allclose(prof.values, base - base.mean())

    def test_profile_sums_to_zero_without_loss(self):
        m = np.random.default_rng(3).normal(40, 2, (6, 500))
        prof = mean_centered_profile(m)
        assert abs(prof.values.sum()) < 1e-6

    def test_missing_bins_renormalized(self):
        m = np.array([[1.0, 3.0, np.nan], [1.0, np.nan, 4.0]])
        prof = mean_centered_profile(m)
        # row means are 2.0 and 2.5 over present bins only
        assert prof.values[0] == pytest.approx(((1 - 2) + (1 - 2.5)) / 2)
        assert prof.values[1] == pytest.approx(3 - 2.0)
        assert prof.values[2] == pytest.approx(4 - 2.5)

    def test_bin_present_nowhere_rejected(self):
        m = np.array([[1.0, np.nan], [2.0, np.nan]])
        with pytest.raises(EmptyInput):
            mean_centered_profile(m)

    def test_csv_format(self):
        prof = MeanCenteredProfile(values=np.array([0.5, -0.25]), n_periods=2)
        lines = prof.to_csv().splitlines()
        assert lines[0] == "s,ms"
        assert lines[1] == "0,0.5"

    def test_profile_from_trace_reproduces_spike(self):
        cfg = SynthConfig(
            n_periods=4,
            period_mean=PeriodMeanModel(mean_ms=40.0, sigma_ms=8.0),
            noise=GaussianNoise(sigma_ms=0.0),
            seed=2,
        )
        trace, _ = generate(cfg)
        seg = segment_trace(trace, 0.0)
        prof = profile_from_trace(trace, seg)
        template = cfg.spike.values(cfg.S, cfg.dt_ms)
        assert np.allclose(prof.values, template - template.mean(), atol=1e-5)

    def test_period_matrix_shape_and_exclusion(self):
        series = np.arange(3 * 7500, dtype=float)
        cfg = SynthConfig(n_periods=3, seed=0)
        trace, _ = generate(cfg)
        seg = segment_trace(trace, 0.0)
        m = period_matrix(series, seg)
        assert m.shape == (3, 7500)
        assert m[1, 0] == 7500.0

    def test_period_matrix_needs_periods(self):
        seg = Segmentation(s_star=0.0, S=10, periods=(), core_bins=(0, 10))
        with pytest.raises(EmptyInput):
            period_matrix(np.zeros(100), seg)


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidConfig):
            SegmentationConfig(S=1)
        with pytest.raises(InvalidConfig):
            SegmentationConfig(c=0.0)
        with pytest.raises(InvalidConfig):
            SegmentationConfig(top_k_bins=4)
        with pytest.raises(InvalidConfig):
            SegmentationConfig(max_core_loss=1.5)
