"""Edge detection, phase recovery, period slicing, and the profile."""

import bisect
import contextlib
import json
import math
import pickle
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import llab.core as core
from llab.core import ABSENT, COLUMNS, Trace, validate_trace
from llab.errors import (
    EmptyHistogram,
    EmptyInput,
    InvalidConfig,
    InvalidWindow,
    NoCompletePeriod,
    TooShort,
)
from llab import _num
from llab._num import (
    SELECT_BLOCK,
    SELECT_MARGIN,
    SELECT_SAMPLE,
    block_diffs,
    finite_median_count,
)
import llab.segment as segment
from llab.segment import (
    MeanCenteredProfile,
    Segmentation,
    SegmentationConfig,
    ThresholdEstimate,
    core_bounds,
    detect_edges,
    detect_phase,
    mean_centered_profile,
    period_bins,
    period_matrix,
    phase_histogram,
    profile_from_trace,
    refine_phase,
    robust_threshold,
    segment_trace,
    stable_core,
)
from llab.synth import GaussianNoise, PeriodMeanModel, SpikeTemplate, SynthConfig, generate


def differences(x) -> list:
    """Every block ``block_diffs`` writes over ``map_blocks``' blocks, joined:
    each block is copied before the next overwrites it."""
    x = np.asarray(x)
    blocks = _num.map_blocks(lambda a, b, buf: block_diffs(x, a, b, buf[0]).tolist(),
                             max(x.size - 1, 0), np.float64)
    return [v for d in blocks for v in d]


def diffs_of(x) -> np.ndarray:
    """The differences the medians rank, whole: ``np.diff``, with int64
    differences read modulo 2**64 as uint64."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diff(x)
    return d.view(np.uint64) if d.dtype == np.int64 else d


class TestDiffSeries:
    """The phase passes difference the series block by block."""

    def test_values(self):
        assert differences([10.0, 15.0, 12.0]) == [5.0, -3.0]

    def test_gap_produces_nan(self):
        d = differences([1.0, np.nan, 4.0])
        assert np.isnan(d[0]) and np.isnan(d[1])

    def test_too_short(self):
        with pytest.raises(TooShort):
            detect_phase([1.0, np.nan])

    @settings(max_examples=200, deadline=None)
    @given(x=st.integers(0, 40).flatmap(lambda n: st.sampled_from(
               [np.float64, np.int64, np.uint64]).flatmap(lambda t: arrays(t, n))),
           block=st.integers(1, 9))
    def test_blocks_join_into_the_whole_difference_series(self, x, block):
        # one sample of overlap carries each block's last difference across the seam
        with mock.patch.object(_num, "SELECT_BLOCK", block), \
                np.errstate(over="ignore", invalid="ignore"):
            starts = _num.map_blocks(lambda a, b, buf: a, max(x.size - 1, 0))
            got = np.array(differences(x), dtype=diffs_of(x).dtype)
        assert starts == list(range(0, x.size - 1, block))
        assert got.tobytes() == diffs_of(x).tobytes()

    def test_integer_differences_wrap_modulo_2_64(self):
        # send times 2**64 - 1 ns apart: the int64 difference wraps to -1
        assert differences(np.array([-2**63, 2**63 - 1])) == [2**64 - 1]


@st.composite
def median_inputs(draw):
    """Arrays np.median must be matched on: NaN and ±inf laced in, ties,
    constants, sorted or reversed order, any n >= 1, and integer dtypes."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["floats", "ties", "constant", "int64", "uint64"]))
    if kind == "floats":
        # + 0.0 turns -0.0 into 0.0: numpy itself leaves a zero median's sign open
        x = draw(arrays(np.float64, n, elements=st.floats(width=64))) + 0.0
    elif kind == "ties":
        pool = [-np.inf, -2.5, 0.0, 1.0, 1.0, 7.25, np.inf, np.nan]
        x = draw(arrays(np.float64, n, elements=st.sampled_from(pool)))
    elif kind == "constant":
        x = np.full(n, draw(st.floats(allow_nan=False, allow_infinity=False)) + 0.0)
    else:
        info = np.iinfo(kind)
        x = draw(arrays(kind, n, elements=st.integers(int(info.min), int(info.max))))
    order = draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    return x if order == "drawn" else np.sort(x) if order == "sorted" else np.sort(x)[::-1]


def numpy_median(x) -> float:
    return float(np.median(x[np.isfinite(x)]))


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def with_sampled_diffs(n: int, value: float, seed: int) -> tuple[np.ndarray, int]:
    """A series of n dyadic values, so that its differences are exact, whose
    difference at every index the median's strided sample reads is
    ``value``; and the sample's stride."""
    x = np.round(np.random.default_rng(seed).standard_normal(n) * 1024) / 1024
    step = (n - 1) // SELECT_SAMPLE
    x[1::step] = x[:-1:step] + value  # a stride of 2 or more reads no value it writes
    return x, step


class TestFiniteMedian:
    """The median ranks the first differences of its input."""

    @settings(max_examples=300, deadline=None)
    @given(x=median_inputs(),
           geometry=st.sampled_from([(SELECT_SAMPLE, SELECT_MARGIN, SELECT_BLOCK), (8, 1, 7),
                                     (16, 2, 1)]))
    def test_equals_numpy_bit_for_bit(self, x, geometry):
        # small samples, margins and blocks make brackets from strided samples,
        # misses and many-block passes on arrays small enough for many examples
        if not np.isfinite(diffs_of(x)).any():
            x = np.r_[x, 1.0, 1.0]
        sample, margin, block = geometry
        # the mean of two middle values near the float64 limit overflows in numpy too,
        # and a difference of two infinities is NaN in both
        with mock.patch.multiple(_num, SELECT_SAMPLE=sample, SELECT_MARGIN=margin,
                                 SELECT_BLOCK=block), np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(finite_median_count(x)[0], numpy_median(diffs_of(x)))

    @pytest.mark.parametrize("n", [100_000, 100_001])
    def test_unrepresentative_sample_widens_the_bracket(self, n):
        x, step = with_sampled_diffs(n, 1e6, seed=5)
        d = np.diff(x)
        assert np.median(d[::step]) == 1e6  # every sampled difference sits far above the median
        assert same_bits(finite_median_count(x)[0], numpy_median(d))
        x, step = with_sampled_diffs(n, -np.inf, seed=5)
        d = np.diff(x)
        assert np.all(d[::step] == -np.inf)
        assert same_bits(finite_median_count(x)[0], numpy_median(d))

    def test_no_finite_value_gives_nan(self):
        for x in ([np.nan, np.inf, -np.inf], [np.inf, np.inf, 1.0], [2.0], []):
            with np.errstate(invalid="ignore"):
                med, n = finite_median_count(np.array(x))
            assert np.isnan(med) and n == 0


#: The real (sample, margin, block) geometry, and tiny ones: brackets from
#: few sampled values miss, and one pass spans many blocks.
GEOMETRIES = [(SELECT_SAMPLE, SELECT_MARGIN, SELECT_BLOCK), (8, 1, 7), (16, 2, 1), (4, 0, 3),
              (1, 0, 2)]


def select_geometry(sample, margin, block):
    return mock.patch.multiple(_num, SELECT_SAMPLE=sample, SELECT_MARGIN=margin,
                               SELECT_BLOCK=block)


class TestSinglePassMedian:
    """One blocked pass counts and gathers; the |x - c| form streams its
    deviations through one block buffer."""

    @settings(max_examples=300, deadline=None)
    @given(x=median_inputs(), geometry=st.sampled_from(GEOMETRIES))
    def test_plain_form_equals_numpy_and_counts_the_finite_values(self, x, geometry):
        d = diffs_of(x)
        with select_geometry(*geometry), np.errstate(over="ignore", invalid="ignore"):
            med, n = finite_median_count(x)
            want = numpy_median(d) if np.isfinite(d).any() else np.nan
        assert n == np.count_nonzero(np.isfinite(d))
        assert same_bits(med, want)

    @settings(max_examples=300, deadline=None)
    @given(x=median_inputs(), geometry=st.sampled_from(GEOMETRIES), data=st.data())
    def test_deviation_form_equals_numpy_of_the_deviations(self, x, geometry, data):
        d = diffs_of(x)
        finite = d[np.isfinite(d)]
        pick = (st.sampled_from(sorted({float(v) for v in finite.tolist()})) if finite.size
                else st.nothing())
        center = data.draw(pick | st.floats(allow_nan=False, allow_infinity=False))
        # a deviation past the float64 limit is inf, and so is the mean of two near it
        with np.errstate(over="ignore", invalid="ignore"):
            dev = np.abs(np.subtract(d, center, dtype=np.float64))
            want = numpy_median(dev) if np.isfinite(dev).any() else np.nan
            with select_geometry(*geometry):
                med, n = finite_median_count(x, center)
        assert n == np.count_nonzero(np.isfinite(dev))
        assert same_bits(med, want)

    @pytest.mark.parametrize("n", [100_000, 100_001])
    def test_unrepresentative_sample_of_deviations_widens_the_bracket(self, n):
        x, step = with_sampled_diffs(n, 0.25, seed=6)
        dev = np.abs(np.diff(x) - 0.25)
        assert np.median(dev[::step]) == 0.0 < np.median(dev)  # every sampled deviation is zero
        assert same_bits(finite_median_count(x, center=0.25)[0], numpy_median(dev))
        x, step = with_sampled_diffs(n, np.nan, seed=6)
        dev = np.abs(np.diff(x) - 0.25)
        assert np.isnan(dev[::step]).all()
        assert same_bits(finite_median_count(x, center=0.25)[0], numpy_median(dev))


def series_of(diffs) -> np.ndarray:
    """A series starting at 0 whose differences are ``diffs`` (whole numbers,
    so the running sum is exact)."""
    return np.r_[0.0, np.cumsum(diffs)]


class TestRobustThreshold:
    """The threshold is taken from the series' first differences."""

    def test_gaussian_scale_recovered(self):
        # for N(0,1) diffs the scaled MAD is sigma, so theta should be c
        x = np.cumsum(np.random.default_rng(0).standard_normal(100_001))
        est = robust_threshold(x)
        assert est.theta == pytest.approx(8.0, abs=0.15)
        assert not est.degenerate

    def test_degenerate_fallback_catches_lone_spike(self):
        d = np.zeros(1000)
        d[500] = 50.0
        est = robust_threshold(series_of(d))
        assert est.degenerate
        assert est.mad == 0.0
        # halfway between the bulk and the deviating value
        assert est.theta == 25.0
        assert est.theta < 50.0

    def test_needs_100_diffs(self):
        with pytest.raises(TooShort):
            robust_threshold(np.zeros(100))  # 99 differences
        assert robust_threshold(np.zeros(101)).theta == 0.0

    def test_nan_ignored(self):
        x = np.r_[np.random.default_rng(1).standard_normal(5000), [np.nan] * 50,
                  [np.inf, -np.inf] * 20]
        est = robust_threshold(x)
        assert np.isfinite(est.theta)
        d = np.diff(x)
        present = d[np.isfinite(d)]
        assert present.size == 4999
        assert est.median == np.median(present)
        assert est.mad == np.median(np.abs(present - est.median))

    def test_degenerate_fallback_ignores_absent_diffs(self):
        x = np.r_[np.zeros(201), [np.inf, -np.inf, np.nan]]  # diffs inf, -inf and NaN
        est = robust_threshold(x)
        assert est.degenerate and est.theta == 0.0


class TestPeriodBins:
    @pytest.mark.parametrize("dt_ns,S", [(2_000_000, 7500), (1_000_000, 15000),
                                         (1_999_920, 7500), (2_000_400, 7500)])
    def test_bins_from_the_interval_in_whole_microseconds(self, dt_ns, S):
        # a probe's wall-clock send times put its median gap ppm off the schedule
        assert period_bins(dt_ns) == S

    @pytest.mark.parametrize("dt_ns", [7_000_000, 2_000_600, 400])
    def test_bins_off_the_grid_rejected(self, dt_ns):
        with pytest.raises(InvalidConfig, match="--S"):
            period_bins(dt_ns)


class TestDetectEdges:
    """Edges are indices j of the differences series[j+1] - series[j]."""

    def test_single_exceedance(self):
        assert list(detect_edges([0.0, 0.0, 0.0, 50.0, 50.0], theta=10.0,
                                 min_spacing=2)) == [2]

    def test_largest_wins_within_spacing(self):
        d = np.zeros(7600)
        d[100] = 40.0
        d[150] = 60.0
        assert list(detect_edges(series_of(d), theta=10.0, min_spacing=7500)) == [150]

    def test_tie_goes_to_earliest(self):
        d = np.zeros(7600)
        d[100] = 50.0
        d[150] = 50.0
        assert list(detect_edges(series_of(d), theta=10.0, min_spacing=7500)) == [100]

    @pytest.mark.parametrize("spacing", [0, -3, 0.5, math.nan])
    def test_spacing_below_one_rejected(self, spacing):
        with pytest.raises(InvalidConfig, match="min_spacing must be >= 1"):
            detect_edges(series_of(np.r_[np.zeros(5), 50.0]), theta=10.0, min_spacing=spacing)

    def test_spacing_past_int64_keeps_the_top(self):
        d = np.zeros(300)
        d[[10, 150, 290]] = [40.0, 60.0, 50.0]
        for spacing in (299, 300, 2**62, 2**63 - 1):
            assert detect_edges(series_of(d), theta=10.0, min_spacing=spacing).tolist() == [150]

    def test_exact_spacing_both_kept(self):
        d = np.zeros(200)
        d[10] = 50.0
        d[110] = 40.0
        assert list(detect_edges(series_of(d), theta=10.0, min_spacing=100)) == [10, 110]

    def test_no_candidates(self):
        assert detect_edges(np.zeros(11), theta=1.0, min_spacing=5).size == 0
        assert detect_edges([7.0], theta=1.0, min_spacing=5).size == 0

    def test_nan_never_a_candidate(self):
        # the absent sample makes differences 1 and 2 NaN; difference 3 is the jump
        x = np.array([0.0, 0.0, np.nan, 0.0, 50.0])
        assert list(detect_edges(x, theta=10.0, min_spacing=1)) == [3]

    @pytest.mark.parametrize("gap, want", [(100, list(range(5, 1000, 100))),
                                           (99, list(range(5, 1000, 198))),
                                           (101, list(range(5, 1000, 101)))])
    def test_equal_jumps_keep_the_earliest_of_each_tie(self, gap, want):
        # a run of ties exactly min_spacing apart keeps all; one bin closer, every other
        d = np.zeros(1000)
        d[5::gap] = 50.0
        assert detect_edges(series_of(d), theta=10.0, min_spacing=100).tolist() == want

    @pytest.mark.parametrize("spacing", [1, 2, 3, 4, 5, 10_000])
    @pytest.mark.parametrize("chain", ["tied", "decreasing", "increasing",
                                       "runs nearer", "runs apart", "runs farther"])
    def test_chains_thin_as_the_greedy(self, chain, spacing):
        # a chain ranks its candidates along their positions, against them, or
        # in runs of ties at the spacing; 10,000 is far above the chain's length
        n = 700
        if chain.startswith("runs"):
            gap = max(spacing + {"nearer": -1, "apart": 0, "farther": 1}[chain[5:]], 1)
            d = np.zeros(n)
            for start, jump in ((3, 50.0), (4, 50.0), (n // 3, 60.0), (n // 2 + 1, 50.0)):
                d[start::gap] = jump  # later runs overwrite and interleave earlier ones
        else:
            d = {"tied": np.full(n, 7.0), "decreasing": np.arange(n, 0, -1.0),
                 "increasing": np.arange(1.0, n + 1)}[chain]
        x = series_of(d)
        got = detect_edges(x, theta=0.5, min_spacing=spacing)
        assert got.tolist() == diff_series_edges(diffs_of(x), 0.5, spacing).tolist()


class TestPhaseHistogram:
    def test_folding(self):
        h = phase_histogram([2, 7502, 15002], S=7500)
        assert h[2] == 3 and h.sum() == 3

    def test_histogram_counts_all_candidates(self):
        cand = np.random.default_rng(2).integers(0, 100_000, 500)
        h = phase_histogram(cand, S=7500)
        assert h.sum() == 500

    @pytest.mark.parametrize("S", [0, -7])
    def test_period_below_one_bin_rejected(self, S):
        with pytest.raises(InvalidConfig, match="S must be >= 1"):
            phase_histogram([2, 7502], S)

    def test_the_histogram_is_its_only_array(self):
        # a copy of the counts would double the peak at a large S
        S = 10**6
        assert traced_peak(phase_histogram, [2, 7502], S) < 1.25 * 8 * S


class TestRefinePhase:
    def test_point_mass(self):
        h = np.zeros(7500)
        h[5] = 10
        assert refine_phase(h) == 5.0

    def test_symmetric_neighborhood_returns_peak(self):
        h = np.zeros(7500)
        h[1233], h[1234], h[1235] = 1, 8, 1
        assert refine_phase(h) == pytest.approx(1234.0, abs=1e-12)

    def test_wraparound(self):
        h = np.zeros(7500)
        h[7499] = 1
        h[0] = 1
        assert refine_phase(h) == pytest.approx(7499.5)

    def test_asymmetric_mass_pulls_phase(self):
        h = np.zeros(100)
        h[50], h[51] = 8, 4
        s = refine_phase(h)
        assert 50.0 < s < 51.0

    def test_peak_at_bin_zero_stays_below_S(self):
        # the window's float sums leave a tiny negative offset, and
        # (0 - eps) % S rounds to S, a phase segment_trace refuses
        S = 7500
        h = np.zeros(S)
        h[0], h[1], h[S - 1], h[2], h[S - 2] = 100, 4, 4, 1, 1
        s_star = refine_phase(h)
        assert s_star == 0.0
        trace, _ = generate(SynthConfig(n_periods=2, seed=0))
        seg = segment_trace(trace, s_star, histogram=h)
        assert json.loads(seg.to_json())["periods"][0]["start_bin"] == 0
        assert len(seg.excluded) == 2

    def test_empty_histogram(self):
        with pytest.raises(EmptyHistogram):
            refine_phase(np.zeros(100))

    def test_histogram_narrower_than_the_window_rejected(self):
        k = segment.REFINE_TOP_K_BINS
        with pytest.raises(InvalidConfig, match="narrower"):
            refine_phase(np.ones(k - 1))
        h = np.zeros(k)
        h[2] = 1
        assert refine_phase(h) == 2.0

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


def diff_series_threshold(diffs) -> ThresholdEstimate:
    """The threshold as it was taken from a whole difference array, with
    ``np.median`` for the selection that equals it."""
    x = np.asarray(diffs, dtype=np.float64)
    present = x[np.isfinite(x)]
    if present.size < 100:
        raise TooShort(f"need >= 100 present differences, got {present.size}")
    med = float(np.median(present))
    mad = numpy_median(np.abs(x - med))
    if mad > 0:
        return ThresholdEstimate(theta=med + segment.JUMP_THRESHOLD_C * segment.MAD_SCALE * mad,
                                 median=med, mad=mad)
    dev = np.abs(x - med)
    pos = dev[(dev > 0) & (dev < np.inf)]
    theta = med if pos.size == 0 else med + 0.5 * float(pos.min())
    return ThresholdEstimate(theta=theta, median=med, mad=0.0, degenerate=True)


def diff_series_edges(diffs, theta: float, min_spacing: int) -> np.ndarray:
    """The edges as they were found on a whole difference array."""
    x = np.asarray(diffs, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        cand = np.flatnonzero(x > theta)
    order = np.lexsort((cand, -x[cand]))
    accepted: list[int] = []
    for i in order:
        c = int(cand[i])
        j = bisect.bisect_left(accepted, c)
        if j > 0 and c - accepted[j - 1] < min_spacing:
            continue
        if j < len(accepted) and accepted[j] - c < min_spacing:
            continue
        bisect.insort(accepted, c)
    return np.asarray(accepted, dtype=np.int64)


@st.composite
def phase_series(draw):
    """A latency series and a period S: Gaussian noise over level steps, whole
    levels that tie, a constant, noise-free steps (MAD 0), or runs of equal
    jumps about S apart, with NaN and ±inf laced in; lengths around one pass
    block, or short."""
    n = draw(st.sampled_from([SELECT_BLOCK - 1, SELECT_BLOCK, SELECT_BLOCK + 1,
                              SELECT_BLOCK + 2]) | st.integers(0, 3000))
    S = draw(st.integers(5, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = np.repeat(rng.uniform(20.0, 60.0, n // S + 1), S)[:n]
    kind = draw(st.sampled_from(["noisy", "ties", "constant", "steps", "runs"]))
    if kind == "noisy":
        x = levels + rng.normal(0.0, draw(st.sampled_from([0.01, 1.5, 30.0])), n)
    elif kind == "ties":
        x = np.round(levels) + rng.integers(0, 3, n)
    elif kind == "runs":
        # runs of equal jumps exactly S apart, or one bin nearer or farther,
        # over integer noise or none: ties at the thinning's spacing
        d = rng.integers(-1, 2, n) * draw(st.sampled_from([0, 1]))
        for _ in range(draw(st.integers(1, 4))):
            gap = S + draw(st.sampled_from([0, 0, -1, 1]))
            d[draw(st.integers(0, max(n - 1, 0))):n:gap] = draw(st.sampled_from([6, 6, 9]))
        x = np.cumsum(d).astype(np.float64)
    elif kind == "constant":
        x = np.full(n, draw(st.floats(-1e6, 1e6)))
    else:
        x = levels
    holes = rng.random(n) < draw(st.sampled_from([0.0, 0.001, 0.05, 0.6]))
    x[holes] = rng.choice([np.nan, np.inf, -np.inf], int(holes.sum()),
                          p=draw(st.sampled_from([(1.0, 0.0, 0.0), (0.4, 0.3, 0.3)])))
    return x + 0.0, S  # + 0.0: no -0.0, so no zero difference carries a sign


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

    @pytest.mark.parametrize("series", [[], [np.nan, np.nan], [5.0], [np.nan, 5.0, np.nan]])
    def test_under_two_present_samples_is_too_short(self, series):
        with pytest.raises(TooShort):
            detect_phase(series)

    def test_needs_100_finite_diffs(self):
        x = np.random.default_rng(3).standard_normal(101)
        x[60:] += 100.0  # one upward jump, into bin 60
        with pytest.raises(TooShort):
            detect_phase(np.r_[x[:50], np.nan, x[50:]])  # the gap costs two of the 100 diffs
        with pytest.raises(TooShort):
            detect_phase(x[:100])
        assert list(detect_phase(x).candidates) == [60]

    @settings(max_examples=150, deadline=None)
    @given(case=phase_series(), geometry=st.sampled_from(GEOMETRIES))
    def test_equals_the_diff_series_pipeline_bit_for_bit(self, case, geometry):
        x, S = case
        if x.size > 3000:
            geometry = GEOMETRIES[0]  # tiny blocks would take a Python step per difference
        d = diffs_of(x)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = diff_series_threshold(d)
            except TooShort:
                with select_geometry(*geometry), pytest.raises(TooShort):
                    detect_phase(x, SegmentationConfig(S))
                return
            want_edges = diff_series_edges(d, want.theta, S)
            with select_geometry(*geometry):
                got = robust_threshold(x)
                edges = detect_edges(x, got.theta, S)
                if want_edges.size:
                    det = detect_phase(x, SegmentationConfig(S))
                else:
                    with pytest.raises(EmptyHistogram):
                        detect_phase(x, SegmentationConfig(S))
        for a, b in ((got.theta, want.theta), (got.median, want.median), (got.mad, want.mad)):
            assert same_bits(a, b)
        assert got.degenerate == want.degenerate
        assert edges.tolist() == want_edges.tolist()
        if want_edges.size:
            assert det.threshold == got
            assert det.candidates.tolist() == (want_edges + 1).tolist()

    @settings(max_examples=150, deadline=None)
    @given(case=phase_series(), theta=st.sampled_from([None, -1.0, 0.5]))
    def test_thinning_equals_the_greedy(self, case, theta):
        x, S = case
        d = diffs_of(x)
        if theta is None:
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    theta = diff_series_threshold(d).theta
                except TooShort:
                    theta = 0.0
        got = detect_edges(x, theta, S)
        assert got.tolist() == diff_series_edges(d, theta, S).tolist()


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
        seq, t_send, ul, dl, rtt, lost = (getattr(trace, k)[:n_bins].copy() for k in COLUMNS)
        for i in lost_idx:
            ul[i] = dl[i] = rtt[i] = ABSENT
            lost[i] = True
        return Trace(seq, t_send, ul, dl, rtt, lost, trace.dt_nominal)

    def test_first_period_starts_at_phase(self):
        trace = self.make_trace(2 * 7500 + 200)
        seg = segment_trace(trace, 100.0)
        first = json.loads(seg.to_json())["periods"][0]
        assert (first["start_bin"], first["end_bin"]) == (100, 7600)
        assert period_matrix(np.arange(len(trace), dtype=float), seg)[0, 0] == 100

    def test_fractional_phase_rounds_up(self):
        trace = self.make_trace(2 * 7500 + 200)
        seg = segment_trace(trace, 99.25)
        assert json.loads(seg.to_json())["periods"][0]["start_bin"] == 100

    def test_partial_periods_dropped(self):
        trace = self.make_trace(3 * 7500 + 3750)  # 3.5 periods
        seg = segment_trace(trace, 0.0)
        assert len(seg.excluded) == 3

    def test_no_complete_period(self):
        trace = self.make_trace(7000)
        with pytest.raises(NoCompletePeriod):
            segment_trace(trace, 0.0)

    def test_lossy_core_excluded(self):
        # knock out 6% of one period's stable core, above the 5% cap
        lost = list(range(70, 70 + int(0.06 * 7392)))
        trace = self.make_trace(2 * 7500, lost_idx=lost)
        seg = segment_trace(trace, 0.0)
        assert seg.excluded == (True, False)
        assert seg.kept == (1,)

    def test_boundary_loss_does_not_exclude(self):
        # the same budget spent inside the excised head leaves the core intact
        trace = self.make_trace(2 * 7500, lost_idx=list(range(0, 60)))
        seg = segment_trace(trace, 0.0)
        assert seg.excluded == (False, False)

    def test_json_round_trip(self):
        trace = self.make_trace(2 * 7500)
        det_hist = np.zeros(7500, dtype=np.int64)
        det_hist[42] = 7
        seg = segment_trace(trace, 42.0, histogram=det_hist)
        back = Segmentation.from_json(seg.to_json())
        assert back.s_star == seg.s_star
        assert back.S == seg.S
        assert back.excluded == seg.excluded
        assert back.core_bins == seg.core_bins == (70, 7462)
        assert back.histogram[42] == 7
        # stored sparse: only nonzero bins serialized
        assert json.loads(seg.to_json())["histogram_nonzero"] == {"42": 7}

    def test_core_bins_follow_the_config(self, monkeypatch):
        monkeypatch.setattr(segment, "HEAD_EXCISE_MS", 300.0)
        seg = segment_trace(self.make_trace(2 * 7500), 0.0)
        assert seg.core_bins == (150, 7462)

    def test_json_with_periods_off_the_series_rejected(self):
        obj = json.loads(segment_trace(self.make_trace(2 * 7500), 0.0).to_json())
        for start, end in ((-5, 7495), (0, 7499), (10, 7500)):
            period = {**obj["periods"][0], "start_bin": start, "end_bin": end}
            with pytest.raises(InvalidConfig):
                Segmentation.from_json(json.dumps({**obj, "periods": [period]}))

    def test_json_without_valid_core_bins_rejected(self):
        obj = json.loads(segment_trace(self.make_trace(2 * 7500), 0.0).to_json())
        for bins in ([7462, 70], [0, 7501]):
            with pytest.raises(InvalidConfig):
                Segmentation.from_json(json.dumps({**obj, "core_bins": bins}))
        del obj["core_bins"]
        with pytest.raises(InvalidConfig):
            Segmentation.from_json(json.dumps(obj))


@st.composite
def grids(draw, min_periods=0):
    """Segmentations as ``segment_trace`` builds them: a phase in [0, S), a
    period count, exclusion flags, core bins and a sparse histogram."""
    S = draw(st.integers(5, 300))
    lo = draw(st.integers(0, S - 1))
    hist = draw(st.none() | arrays(np.int64, S, elements=st.sampled_from([0, 0, 0, 1, 7])))
    return Segmentation(s_star=draw(st.floats(0.0, S, exclude_max=True)), S=S,
                        excluded=tuple(draw(st.lists(st.booleans(), min_size=min_periods,
                                                     max_size=12))),
                        core_bins=(lo, draw(st.integers(lo + 1, S))), histogram=hist)


def first_bin(s_star: float) -> int:
    return math.ceil(s_star - 1e-9)


def loop_flags(lost: np.ndarray, s_star: float, S: int, lo: int, hi: int) -> tuple:
    """The per-period loop ``segment_trace`` ran before it reshaped the loss
    column over the grid: each period's share of lost core bins."""
    b0 = first_bin(s_star)
    flags = []
    for p in range((lost.size - b0) // S):
        start = b0 + p * S
        core_lost = float(np.count_nonzero(lost[start + lo:start + hi])) / (hi - lo)
        flags.append(core_lost > segment.MAX_CORE_LOSS)
    return tuple(flags)


class TestGrid:
    """A segmentation is a phase plus a grid of S-bin periods: period p spans
    [b0 + p*S, b0 + (p+1)*S) from the first bin b0 at or after the phase."""

    @settings(max_examples=200, deadline=None)
    @given(seg=grids())
    def test_json_round_trips(self, seg):
        text = seg.to_json()
        back = Segmentation.from_json(text)
        assert (back.s_star, back.S, back.excluded, back.core_bins) == \
            (seg.s_star, seg.S, seg.excluded, seg.core_bins)
        assert back.to_json() == text
        b0 = first_bin(seg.s_star)
        assert json.loads(text)["periods"] == [
            {"p": p, "start_bin": b0 + p * seg.S, "end_bin": b0 + (p + 1) * seg.S,
             "excluded": ex} for p, ex in enumerate(seg.excluded)]

    @settings(max_examples=300, deadline=None)
    @given(seg=grids(min_periods=1), data=st.data())
    def test_any_edit_of_the_grid_is_refused(self, seg, data):
        obj = json.loads(seg.to_json())
        periods = obj["periods"]
        edit = data.draw(st.sampled_from(["p", "start_bin", "end_bin", "s_star", "repeat",
                                          "swap", "delete"]))
        k = data.draw(st.integers(0, len(periods) - 1))
        if edit == "s_star":
            # a phase off [0, S), or one inside it whose grid starts at another bin
            obj["s_star"] = data.draw(
                st.sampled_from([math.nan, math.inf, -1e-3, float(seg.S)])
                | st.floats(0.0, seg.S, exclude_max=True).filter(
                    lambda v: first_bin(v) != first_bin(seg.s_star)))
        elif edit == "repeat":  # another period's index, as a hand edit might leave it
            assume(len(periods) > 1)
            periods[k]["p"] = data.draw(st.integers(0, len(periods) - 1).filter(
                lambda j: j != k))
        elif edit == "swap":
            assume(len(periods) > 1)
            j = data.draw(st.integers(0, len(periods) - 1).filter(lambda j: j != k))
            periods[k], periods[j] = periods[j], periods[k]
        elif edit == "delete":  # deleting the last leaves a shorter grid, which is one
            assume(k < len(periods) - 1)
            del periods[k]
        else:
            periods[k][edit] += data.draw(st.integers(-2 * seg.S, 2 * seg.S).filter(bool))
        with pytest.raises(InvalidConfig):
            Segmentation.from_json(json.dumps(obj))

    @settings(max_examples=200, deadline=None)
    @given(seg=grids(), data=st.data())
    def test_period_matrix_is_a_direct_gather(self, seg, data):
        # the series ends inside the period after the last: the grid is maximal
        extra = data.draw(st.integers(0, seg.S - 1))
        b0 = first_bin(seg.s_star)
        x = np.random.default_rng(1).standard_normal(b0 + len(seg.excluded) * seg.S + extra)
        kept = [p for p, ex in enumerate(seg.excluded) if not ex]
        assert list(seg.kept) == kept
        if not kept:
            with pytest.raises(EmptyInput):
                period_matrix(x, seg)
            return
        want = np.stack([x[b0 + p * seg.S:b0 + (p + 1) * seg.S] for p in kept])
        assert period_matrix(x, seg).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seg=grids(min_periods=1), data=st.data())
    def test_period_matrix_refuses_a_grid_that_is_not_the_series_whole(self, seg, data):
        # a hand-deleted last period, or a segmentation of a longer or shorter trace
        assume(seg.kept)
        b0 = first_bin(seg.s_star)
        n = len(seg.excluded) + data.draw(st.integers(-len(seg.excluded), 3).filter(bool))
        x = np.zeros(b0 + n * seg.S + data.draw(st.integers(0, seg.S - 1)))
        with pytest.raises(InvalidConfig, match="not made from this trace"):
            period_matrix(x, seg)

    def test_ungathered_grid_is_a_read_only_view_of_the_series(self):
        x = np.arange(3 * 10 + 7, dtype=np.float64)
        seg = Segmentation(s_star=4.5, S=10, core_bins=(0, 10), excluded=(False,) * 3)
        m = period_matrix(x, seg)
        assert np.shares_memory(m, x)
        assert m.tolist() == [list(range(5 + 10 * p, 15 + 10 * p)) for p in range(3)]
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = -1.0
        x[5] = -2.0  # the caller's series stays writable, and the view shows the write
        assert x.flags.writeable and m[0, 0] == -2.0
        seg = Segmentation(s_star=4.5, S=10, core_bins=(0, 10), excluded=(False, True, False))
        m = period_matrix(x, seg)
        assert not np.shares_memory(m, x) and m[:, 0].tolist() == [-2.0, 25.0]

    @settings(max_examples=150, deadline=None)
    @given(S=st.integers(109, 260), data=st.data())
    def test_exclusion_flags_equal_the_per_period_loop(self, S, data):
        # at 2 ms the excised head and tail take 70 + 38 bins, so S > 108 keeps a core
        s_star = data.draw(st.floats(0.0, S, exclude_max=True))
        n = (first_bin(s_star) + data.draw(st.integers(1, 8)) * S
             + data.draw(st.integers(0, S - 1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # each stretch of S bins loses about the 5% a core may lose, so flags go both ways
        lost = rng.random(n) < rng.uniform(0.0, 0.1, n // S + 1).repeat(S)[:n]
        delay = np.where(lost, ABSENT, 1_000_000)
        trace = Trace(np.arange(n, dtype=np.uint64), np.arange(n) * 2_000_000, delay, delay,
                      np.where(lost, ABSENT, 2_000_000), lost, 2_000_000)
        seg = segment_trace(trace, s_star, SegmentationConfig(S))
        lo, hi = seg.core_bins
        assert seg.excluded == loop_flags(lost, s_star, S, lo, hi)
        assert all(type(ex) is bool for ex in seg.excluded)


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

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 40)),
                  elements=st.floats(-1e6, 1e6) | st.just(np.nan)),
           st.sampled_from([1, 3, segment.PROFILE_ROWS]))
    def test_profile_bytes_match_the_three_temporary_formula(self, m, block_rows):
        # a fully present first row, all-NaN rows first and last in the second
        # block of rows (the bin sums carried across blocks pass them), and an
        # all-NaN last row
        nan = np.full(m.shape[1], np.nan)
        rows = [np.arange(m.shape[1], dtype=np.float64), *m]
        for i in (block_rows, 2 * block_rows - 1):
            rows.insert(min(i, len(rows)), nan)
        m = np.vstack([*rows, nan])
        present = np.isfinite(m)
        row_counts = present.sum(axis=1)
        row_sums = np.where(present, m, 0.0).sum(axis=1)
        row_means = np.divide(row_sums, row_counts, out=np.zeros_like(row_sums),
                              where=row_counts > 0)
        centered = np.where(present, m - row_means[:, None], 0.0)
        want = centered.sum(axis=0) / present.sum(axis=0)
        with mock.patch.object(segment, "PROFILE_ROWS", block_rows):
            assert mean_centered_profile(m).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [np.arange(4.0), np.empty((0, 4))], ids=["1-D", "no rows"])
    def test_no_period_rejected(self, m):
        with pytest.raises(EmptyInput, match="need at least one period"):
            mean_centered_profile(m)

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

    def test_period_matrix_rejects_starts_off_the_series(self):
        # a phase before bin 0, and ten periods from bin 1 that end past bin 100
        for s_star, n_periods in ((-5.0, 1), (1.0, 10)):
            seg = Segmentation(s_star=s_star, S=10, core_bins=(0, 10),
                               excluded=(False,) * n_periods)
            with pytest.raises(InvalidConfig):
                period_matrix(np.arange(100.0), seg)
        seg = Segmentation(s_star=0.0, S=10, core_bins=(0, 10), excluded=(False,) * 10)
        assert period_matrix(np.arange(100.0), seg)[-1, -1] == 99.0

    def test_period_matrix_needs_periods(self):
        seg = Segmentation(s_star=0.0, S=10, excluded=(True,), core_bins=(0, 10))
        with pytest.raises(EmptyInput):
            period_matrix(np.zeros(100), seg)
        seg = Segmentation(s_star=0.0, S=10, excluded=(), core_bins=(0, 10))
        with pytest.raises(EmptyInput):
            period_matrix(np.zeros(100), seg)


def traced_peak(f, *args):
    """The peak of memory that tracemalloc traced while f(*args) ran."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    """The phase and profile passes stream through their input in blocks:
    neither holds a full-size temporary of its own (2M samples)."""

    def test_threshold_of_the_diffs_holds_only_the_diffs(self):
        # the differences are taken block by block, so not even they are held whole
        x = np.random.default_rng(8).normal(40.0, 1.5, 2_000_000)
        x[::997] = np.nan
        peak = traced_peak(robust_threshold, x)
        assert peak <= 0.25 * x.nbytes

    def test_median_of_constant_values_counts_its_ties(self):
        # every difference ties with the median at both bracket ends: counted, not gathered
        x = np.full(2_000_000, 7.25)
        peak = traced_peak(finite_median_count, x)
        assert peak <= 0.25 * x.nbytes
        assert finite_median_count(x) == (0.0, x.size - 1)

    @pytest.mark.parametrize("noise_ms", [1.5, 0.0])
    def test_phase_detection_holds_no_full_size_array(self, noise_ms):
        # noise-free steps give MAD 0, and the fallback's search streams too
        rng = np.random.default_rng(10)
        x = np.repeat(rng.uniform(20.0, 60.0, 2_000_000 // 7500 + 1), 7500)[:2_000_000]
        x += rng.normal(0.0, noise_ms, x.size)
        x[::997] = np.nan
        peak = traced_peak(detect_phase, x)
        assert peak <= 0.25 * x.nbytes
        assert detect_phase(x).threshold.degenerate == (noise_ms == 0.0)

    def test_profile_holds_no_copy_of_the_matrix(self):
        m = np.random.default_rng(9).normal(40.0, 1.5, (266, 7500))
        m.reshape(-1)[::997] = np.nan
        peak = traced_peak(mean_centered_profile, m)
        assert peak <= 0.25 * m.nbytes


class TestConfig:
    def test_invalid_values_rejected(self):
        # S must hold the phase refinement window of REFINE_TOP_K_BINS = 5
        for S in (1, 4):
            with pytest.raises(InvalidConfig):
                SegmentationConfig(S=S)
        assert SegmentationConfig(S=5).S == 5


@contextlib.contextmanager
def spied_workers(**patch):
    """``_num`` patched with ``patch``; yields the number of spans of each
    pass and the set of threads that ran them, filled as passes run."""
    passes, threads = [], set()
    run = _num.map_workers

    def spy(fn, items, *args, **kwargs):
        passes.append(len(items))
        return run(lambda *a: (threads.add(threading.get_ident()), fn(*a))[1], items,
                   *args, **kwargs)

    with mock.patch.multiple(_num, map_workers=spy, **patch):
        yield passes, threads


def spanned(workers: int, f, *args, block: int = 7):
    """``f(*args)`` with every series pass split into spans for ``workers``
    threads from one value on, in blocks of ``block``; and the number of
    spans of each pass, with the threads that ran them."""
    with spied_workers(WORKERS=workers, SPLIT_MIN=1, SELECT_BLOCK=block) as (passes, threads):
        return f(*args), passes, threads


def split_equals_one_span(f, *args, block: int = 7, splits: bool = True):
    """The result of ``f(*args)`` in one span, after checking that 2 and 3
    workers give it too: each pass in at most one span per worker, off the
    calling thread, and (where ``splits``) one pass in one span per worker."""
    one, _, _ = spanned(1, f, *args, block=block)
    for workers in (2, 3):
        got, passes, threads = spanned(workers, f, *args, block=block)
        assert pickle.dumps(got) == pickle.dumps(one)  # bit for bit, NaN and -0.0 too
        assert all(1 <= k <= workers for k in passes)
        assert max(passes, default=1) == 1 or threading.get_ident() not in threads
        assert not splits or max(passes) == workers
    return one


class TestSpans:
    """Series passes split across CPUs return the one-span result bit for bit."""

    @pytest.mark.parametrize("size", [0, 1, 6, 7, 8, 14, 15, 21, 22, 100])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_spans_cover_the_series_in_order_at_block_multiples(self, size, workers):
        with spied_workers(WORKERS=workers, SPLIT_MIN=1, SELECT_BLOCK=7) as (passes, _):
            got = _num.map_blocks(lambda a, b, buf: (a, b, buf), size, np.float64, bool)
        assert [(a, b) for a, b, _ in got] == [(c, min(c + 7, size)) for c in range(0, size, 7)]
        assert all([s.dtype for s in buf] == [np.float64, bool] and
                   all(s.size == b - a for s in buf) for a, b, buf in got)
        assert passes == [max(1, min(workers, -(-size // 7)))]
        # a span is a run of blocks on one scratch set, made for it alone and as long
        # as its first block; got keeps every set alive, so no id is reused
        scratch = [tuple(id(s.base) for s in buf) for _, _, buf in got]
        starts = [i for i in range(len(got)) if i == 0 or scratch[i] != scratch[i - 1]]
        assert len(starts) == len(set(scratch)) == (passes[0] if size else 0) <= workers
        assert all(got[i][2][0].base.size == got[i][1] - got[i][0] for i in starts)

    def test_a_split_pass_holds_one_scratch_per_span(self):
        block = 1 << 16
        with mock.patch.multiple(_num, WORKERS=2, SPLIT_MIN=1, SELECT_BLOCK=block):
            peak = traced_peak(_num.map_blocks, lambda a, b, buf: None, 16 * block,
                               np.float64, bool)
        assert peak < 3 * 9 * block  # two sets of 9 bytes a value; one a block would be 16

    @settings(max_examples=150, deadline=None)
    @given(x=median_inputs(), centered=st.booleans(),
           geometry=st.sampled_from([(8, 1, 7), (16, 2, 1), (4, 0, 3), (SELECT_SAMPLE, 0, 5)]))
    def test_median_and_count(self, x, centered, geometry):
        # NaN, ±inf and ties at both bracket ends; misses from small samples; the
        # errors numpy would warn of are ignored in the workers as in the caller
        sample, margin, block = geometry
        with mock.patch.multiple(_num, SELECT_SAMPLE=sample, SELECT_MARGIN=margin), \
                np.errstate(over="ignore", invalid="ignore"):
            center = finite_median_count(x)[0] if centered else None
            split_equals_one_span(finite_median_count, x, center, block=block, splits=False)

    def test_integer_column_wrapped_modulo_2_64(self):
        steps = np.random.default_rng(3).integers(0, 2**64 - 1, 200, dtype=np.uint64)
        steps[::3] = 7  # ties
        x = np.cumsum(steps).view(np.int64)  # int64 differences wrap
        med, n = split_equals_one_span(finite_median_count, x)
        assert n == 199 and same_bits(med, float(np.median(np.diff(x).view(np.uint64))))
        split_equals_one_span(finite_median_count, x, med)

    @pytest.mark.parametrize("value, n_passes", [(1e6, 3), (-np.inf, 1)])
    def test_a_missed_bracket_repeats_the_pass(self, value, n_passes):
        # a bracket of sampled values far above the median misses: both counts,
        # then the count over the widened bracket; with no finite sampled value
        # the first bracket is the whole finite range
        x, _ = with_sampled_diffs(100_001, value, seed=5)
        (med, _), passes, _ = spanned(2, finite_median_count, x, block=4096)
        assert passes == [2] * n_passes
        assert same_bits(med, split_equals_one_span(finite_median_count, x, block=4096)[0])
        assert same_bits(med, numpy_median(np.diff(x)))

    def test_a_middle_rank_on_a_bracket_end_counts_again(self):
        x = np.arange(1000.0)  # every difference is 1.0: both bracket ends
        (med, n), passes, _ = spanned(2, finite_median_count, x)
        assert passes == [2, 2] and (med, n) == (1.0, 999)
        split_equals_one_span(finite_median_count, x)
        split_equals_one_span(finite_median_count, x, 1.0)

    def test_delay_ms_with_lost_rows(self):
        n = 61
        rng = np.random.default_rng(4)
        lost = rng.random(n) < 0.2
        ul = np.where(lost | (rng.random(n) < 0.1), ABSENT, rng.integers(0, 10**9, n))
        tr = Trace(np.arange(n, dtype=np.uint64), np.arange(n), ul, np.where(lost, ABSENT, 3),
                   np.where(lost, ABSENT, ul), lost, 1)
        for column in ("ul", "dl", "rtt"):
            split_equals_one_span(tr.delay_ms, column)

    def test_detect_edges_on_a_tie_dense_series(self):
        x = np.random.default_rng(6).choice([0.0, 5.0, 5.0, 10.0, np.nan], 500)
        edges = split_equals_one_span(detect_edges, x, 1.0, 3)
        assert edges.size > 10

    def test_mad_zero_fallback(self):
        x = np.zeros(400)
        x[::37] = np.arange(11) * 0.5
        x[5] = np.nan
        thr = split_equals_one_span(robust_threshold, x)
        assert thr.degenerate and thr.theta == 0.25

    def test_validate_trace(self):
        n = 300
        rng = np.random.default_rng(7)
        t = np.cumsum(rng.choice([1_999_000, 2_000_000, 2_000_000, 2_001_000], n))
        lost = rng.random(n) < 0.05
        ul = np.where(lost, ABSENT, 10**7)
        tr = Trace(np.arange(n, dtype=np.uint64), t, ul, ul, np.where(lost, ABSENT, 2 * 10**7),
                   lost, 2_000_000)
        report = split_equals_one_span(validate_trace, tr)
        assert report.intersend_median_ns == 2_000_000 and report.intersend_mad_ns == 1000.0

    def test_a_series_below_the_split_size_runs_on_the_calling_thread(self):
        x = np.random.default_rng(8).normal(40.0, 1.5, 3 * SELECT_BLOCK)
        tr = Trace(np.arange(x.size, dtype=np.uint64), np.arange(x.size),
                   (x * 1e6).astype(np.int64), np.zeros(x.size, np.int64),
                   np.zeros(x.size, np.int64), np.zeros(x.size, bool), 1)
        with spied_workers(WORKERS=2) as (passes, threads):
            detect_edges(tr.delay_ms("ul"), robust_threshold(x).theta, 7500)
        assert passes == [1] * 4 and threads == {threading.get_ident()}
