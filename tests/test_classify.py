"""Period labeling, PR analysis, threshold calibration, and availability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from llab.classify import (
    MIN_LABEL_BINS,
    AuprcPoint,
    DsaPoint,
    FitGrid,
    WindowScore,
    _threshold_at_fpr,
    auprc,
    auprc_from_grid,
    discounted_availability,
    dsa_eval,
    fit_grid,
    label_period,
    quantile_mse_from_grid,
    service_availability,
    window_bins,
)
from llab.core import DEGRADED, GOOD, MEET_FRACTION_GOOD
from llab.errors import (
    EmptyInput,
    InvalidRange,
    InvalidWindow,
    LlabError,
    OutOfTailRegion,
    SingleClass,
    TooFew,
)
import llab.stats as stats
from llab.stats import (
    Empirical,
    FitMeta,
    Gaussian,
    Uniform,
    empirical_quantile,
    fit_gmm_rows,
    fit_gpd_rows,
    fit_rows,
)

META = FitMeta(n=0, loglik=None)


def ref_auprc(scores, labels):
    """Threshold-scan reference: evaluate every distinct score as a cutoff."""
    pos = [lab == DEGRADED for lab in labels]
    n_pos = sum(pos)
    pts = [(0.0, 1.0)]
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, p in zip(scores, pos) if s >= t and p)
        pred = sum(1 for s in scores if s >= t)
        pts.append((tp / n_pos, tp / pred))
    area = 0.0
    for (r0, p0), (r1, p1) in zip(pts, pts[1:]):
        area += (r1 - r0) * (p1 + p0) / 2.0
    return area


def ref_select(scores, labels, cap):
    """Scan every distinct cutoff, keep the lowest with fpr within cap."""
    pos = [lab == DEGRADED for lab in labels]
    n_pos, n_neg = sum(pos), len(pos) - sum(pos)
    best = (math.inf, 0.0, 0.0)
    for t in sorted(set(scores), reverse=True):
        fp = sum(1 for s, p in zip(scores, pos) if s >= t and not p)
        tp = sum(1 for s, p in zip(scores, pos) if s >= t and p)
        if fp / n_neg <= cap:
            best = (t, fp / n_neg, tp / n_pos)
    return best


def cell_answers(model, lt_ms):
    """What the grid holds for one cell, from its model or fit error."""
    if isinstance(model, LlabError):
        return np.nan, np.nan, False
    try:
        p99 = model.quantile(MEET_FRACTION_GOOD)
    except OutOfTailRegion:
        p99 = np.nan
    return p99, model.exceedance(lt_ms), not model.fit_meta.converged


def grid_answers(grid, name):
    """(windows, periods, 3): each cell's p99, exceedance and unconverged flag."""
    return np.stack([grid.p99[name], grid.exceedance[name], grid.unconverged[name]], axis=-1)


# -- the grid as per-cell model objects, scored one cell at a time -----------------


def loop_fits(core, windows, name, seed):
    """Per window, each period's model, None for a failed fit."""
    n_p, n_core = core.shape
    return [[None if isinstance(m, LlabError) else m
             for m in fit_rows(name, core[:, :nb], [seed + 100003 * nb + p for p in range(n_p)])]
            for nb in (window_bins(w, 2.0, n_core) for w in windows)]


def loop_mse(fits, core, windows):
    truths = np.empty(core.shape[0])
    for p, row in enumerate(core):
        truths[p] = empirical_quantile(row[np.isfinite(row)], MEET_FRACTION_GOOD)
    scores = []
    for w, cells in zip(windows, fits):
        errs, skipped = [], 0
        for p, model in enumerate(cells):
            if model is None:
                skipped += 1
                continue
            try:
                pred = model.quantile(MEET_FRACTION_GOOD)
            except OutOfTailRegion:
                skipped += 1
                continue
            e = pred - truths[p]
            errs.append(e * e)
        unconverged = sum(1 for m in cells if m is not None and not m.fit_meta.converged)
        scores.append(WindowScore(w_ms=w, mse_ms2=float(np.mean(errs)) if errs else None,
                                  n_fitted=len(errs), n_skipped=skipped,
                                  n_unconverged=unconverged))
    return scores


def loop_auprc(fits, labels, lt_ms, windows):
    points = []
    for w, cells in zip(windows, fits):
        scored = [(m.exceedance(lt_ms), labels[p]) for p, m in enumerate(cells) if m is not None]
        try:
            area = auprc(*zip(*scored)) if scored else None
        except SingleClass:
            area = None
        points.append(AuprcPoint(w_ms=w, auprc=area, n_scored=len(scored)))
    return points


def loop_dsa(fits, labels, lt_ms, w_ms, max_fprs, period_ms):
    half = len(labels) // 2
    cal = [(m.exceedance(lt_ms), labels[p]) for p, m in enumerate(fits[:half]) if m is not None]
    ev = [(m.exceedance(lt_ms), labels[p + half])
          for p, m in enumerate(fits[half:]) if m is not None]
    cal_s, cal_labels = zip(*cal)
    ev_s, ev_labels = zip(*ev)
    cal_pos = np.array([lab == DEGRADED for lab in cal_labels])
    ev_pos = np.array([lab == DEGRADED for lab in ev_labels])
    n_pos = int(ev_pos.sum())
    n_neg = ev_pos.size - n_pos
    sa = service_availability(ev_labels)
    points = []
    for cap in max_fprs:
        threshold = _threshold_at_fpr(np.asarray(cal_s), cal_pos, cap)
        predicted = np.asarray(ev_s) >= threshold
        tp = int(np.count_nonzero(predicted & ev_pos))
        fp = int(np.count_nonzero(predicted)) - tp
        tpr = tp / n_pos if n_pos else 0.0
        points.append(DsaPoint(
            max_fpr=float(cap), threshold=threshold, w_ms=float(w_ms), sa=sa, tpr=tpr,
            fpr=fp / n_neg if n_neg else 0.0,
            dsa=discounted_availability(sa, tpr, w_ms, period_ms),
            n_calibrate=len(cal), n_evaluate=len(ev)))
    return points


class TestLabelPeriod:
    def test_good_below_one_percent_missing(self):
        v = np.full(7500, 30.0)
        v[:74] = 99.0
        lab = label_period(v, lt_ms=50.0)
        assert lab.label == GOOD
        assert lab.meet_fraction == pytest.approx(7426 / 7500)

    def test_exact_boundary_is_good(self):
        v = np.full(7500, 30.0)
        v[:75] = 99.0  # meet fraction lands exactly on the cutoff
        assert label_period(v, lt_ms=50.0).label == GOOD

    def test_degraded_above_one_percent_missing(self):
        v = np.full(7500, 30.0)
        v[:76] = 99.0
        assert label_period(v, lt_ms=50.0).label == DEGRADED

    def test_lost_bins_never_meet(self):
        v = np.full(1000, 30.0)
        v[:20] = np.nan
        lab = label_period(v, lt_ms=50.0)
        assert lab.label == DEGRADED
        assert lab.meet_fraction == pytest.approx(0.98)

    def test_min_bins(self):
        with pytest.raises(TooFew):
            label_period(np.full(MIN_LABEL_BINS - 1, 1.0), lt_ms=50.0)
        assert label_period(np.full(MIN_LABEL_BINS, 1.0), lt_ms=50.0).label == GOOD


class TestScorePeriod:
    """A period's detector score is its model's exceedance of the target."""

    def test_gaussian_tail_mass(self):
        m = Gaussian(mu=40.0, sigma=5.0, fit_meta=META)
        assert m.exceedance(50.0) == pytest.approx(float(ndtr(-2.0)))

    def test_point_mass_below_target_scores_zero(self):
        m = Uniform(a=40.0, b=40.0, fit_meta=META)
        assert m.exceedance(50.0) == 0.0

    def test_all_mass_above_target_scores_one(self):
        m = Empirical(samples=np.array([60.0, 70.0, 80.0]), fit_meta=META)
        assert m.exceedance(50.0) == 1.0


class TestPrCurve:
    """The area under the anchored precision-recall curve."""

    def test_hand_worked_curve(self):
        # points (recall, precision): (0, 1) (.5, 1) (.5, .5) (1, 2/3) (1, .5)
        scores = [0.9, 0.8, 0.3, 0.1]
        labels = [DEGRADED, GOOD, DEGRADED, GOOD]
        assert auprc(scores, labels) == pytest.approx(19 / 24, abs=1e-15)

    def test_tied_scores_grouped(self):
        # one step for the tie, to (.5, .5), then (1, 2/3): area 2/3 whatever
        # the order of the tied pair (a step per score would give 19/24 or 5/12)
        for labels in ([DEGRADED, GOOD, DEGRADED], [GOOD, DEGRADED, DEGRADED]):
            assert auprc([0.8, 0.8, 0.2], labels) == pytest.approx(2 / 3, abs=1e-15)

    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1],
                     [DEGRADED, DEGRADED, GOOD, GOOD]) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            auprc([0.1, 0.2], [GOOD, GOOD])
        with pytest.raises(SingleClass):
            auprc([0.1, 0.2], [DEGRADED, DEGRADED])

    @pytest.mark.parametrize("scores, labels, match", [
        ([0.1, math.nan], [GOOD, DEGRADED], "finite"),
        ([0.1, math.inf], [GOOD, DEGRADED], "finite"),
        ([0.1, 0.2, 0.3], [GOOD, DEGRADED], "length mismatch"),
    ])
    def test_non_finite_or_misaligned_scores_rejected(self, scores, labels, match):
        with pytest.raises(ValueError, match=match):
            auprc(scores, labels)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label 'Fine'"):
            auprc([0.1, 0.2], ["Fine", DEGRADED])
        with pytest.raises(ValueError, match="unknown label 'None'"):
            service_availability([GOOD, DEGRADED, None])
        with pytest.raises(ValueError, match="unknown label 'good'"):
            dsa_eval(np.full((4, 120), 30.0), [GOOD, DEGRADED, "good", GOOD], dt_ms=2.0,
                     w_ms=240.0, model_name="empirical", lt_ms=50.0, max_fprs=[0.1],
                     period_ms=15000.0)

    def test_matches_threshold_scan_on_random_cases(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scores = rng.integers(0, 5, n) / 4.0  # coarse values force ties
            labels = [DEGRADED if b else GOOD for b in rng.integers(0, 2, n)]
            if DEGRADED not in labels or GOOD not in labels:
                continue
            assert auprc(scores, labels) == pytest.approx(
                ref_auprc(list(scores), labels), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_invariant_under_order_preserving_scaling(self, data):
        n = data.draw(st.integers(2, 20))
        scores = data.draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
        flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if not (any(flags) and not all(flags)):
            return
        labels = [DEGRADED if f else GOOD for f in flags]
        # exact power-of-two scale: order and ties both survive
        assert auprc([4.0 * s for s in scores], labels) == auprc(scores, labels)


def scored_core(ks):
    """One 128-bin row per entry, whose empirical exceedance of 50 ms is
    exactly k/128 (a power-of-two count keeps the score exact)."""
    core = np.full((len(ks), 128), 30.0)
    for row, k in zip(core, ks):
        row[:k] = 100.0
    return core


def dsa_on_scores(cal_ks, ev_ks, labels, max_fprs):
    """``dsa_eval`` on periods scored k/128: the first half calibrates."""
    return dsa_eval(scored_core([*cal_ks, *ev_ks]), labels, dt_ms=2.0, w_ms=256.0,
                    model_name="empirical", lt_ms=50.0, max_fprs=max_fprs,
                    period_ms=15000.0)


class TestConfusionAndThreshold:
    """Threshold placement on the calibrating half, rates on the held-out half."""

    def test_counts_partition_the_classes(self):
        # the zero cap puts the threshold at 64/128 = 0.5; held out, one of the
        # two Degraded and one of the two Good periods score above it
        labels = [DEGRADED, DEGRADED, GOOD, GOOD] + [DEGRADED, GOOD, DEGRADED, GOOD]
        (p,) = dsa_on_scores([115, 64, 13, 6], [115, 77, 51, 13], labels, [0.0])
        assert p.threshold == 0.5
        assert p.tpr == 0.5 and p.fpr == 0.5 and p.sa == 0.5
        assert (p.n_calibrate, p.n_evaluate) == (4, 4)

    def test_threshold_is_inclusive(self):
        labels = [DEGRADED, DEGRADED, GOOD, GOOD] * 2
        (p,) = dsa_on_scores([115, 64, 13, 6], [64, 63, 13, 6], labels, [0.0])
        assert p.threshold == 0.5  # a held-out score of exactly 0.5 is caught
        assert p.tpr == 0.5 and p.fpr == 0.0

    def test_zero_cap_feasible(self):
        scores = np.array([0.9, 0.7, 0.3, 0.1])
        pos = np.array([True, True, False, False])
        # lowest cutoff that still admits no Good
        assert _threshold_at_fpr(scores, pos, 0.0) == 0.7

    def test_zero_cap_infeasible_predicts_nothing(self):
        assert _threshold_at_fpr(np.array([0.9, 0.5]), np.array([False, True]), 0.0) \
            == math.inf
        # the top calibrating score is Good: nothing held out is flagged
        labels = [GOOD, DEGRADED, GOOD, DEGRADED] + [DEGRADED, GOOD, DEGRADED, GOOD]
        (p,) = dsa_on_scores([115, 64, 13, 6], [128, 0, 128, 0], labels, [0.0])
        assert p.threshold == math.inf
        assert p.tpr == 0.0 and p.fpr == 0.0 and p.dsa == 0.0

    def test_full_cap_takes_lowest_cutoff(self):
        scores = np.array([0.9, 0.5, 0.2])
        pos = np.array([False, True, False])
        assert _threshold_at_fpr(scores, pos, 1.0) == 0.2

    def test_negative_cap_rejected(self):
        labels = [DEGRADED, GOOD] * 2
        with pytest.raises(InvalidRange):
            dsa_on_scores([64, 0], [64, 0], labels, [0.1, -0.1])

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            _threshold_at_fpr(np.array([0.1, 0.2]), np.array([False, False]), 0.5)
        with pytest.raises(SingleClass):
            _threshold_at_fpr(np.array([0.1, 0.2]), np.array([True, True]), 0.5)
        labels = [GOOD, GOOD, DEGRADED, GOOD]  # the calibrating half is all Good
        with pytest.raises(SingleClass):
            dsa_on_scores([64, 0], [64, 0], labels, [0.5])

    def test_matches_cutoff_scan_on_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scores = rng.integers(0, 4, n) / 3.0
            labels = [DEGRADED if b else GOOD for b in rng.integers(0, 2, n)]
            if DEGRADED not in labels or GOOD not in labels:
                continue
            cap = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            pos = np.array([lab == DEGRADED for lab in labels])
            t, _, _ = ref_select(list(scores), labels, cap)
            assert _threshold_at_fpr(scores, pos, cap) == t

    def test_held_out_rates_match_a_direct_count(self):
        rng = np.random.default_rng(11)
        caps = [0.0, 0.25, 0.5, 1.0]
        for _ in range(30):
            n_half = int(rng.integers(2, 7))
            ks = rng.integers(0, 5, 2 * n_half) * 32  # scores k/4: ties
            labels = [DEGRADED if b else GOOD for b in rng.integers(0, 2, 2 * n_half)]
            cal = labels[:n_half]
            if DEGRADED not in cal or GOOD not in cal:
                continue
            points = dsa_on_scores(ks[:n_half], ks[n_half:], labels, caps)
            scores = list(ks / 128.0)
            ev = list(zip(scores[n_half:], labels[n_half:]))
            n_pos = sum(lab == DEGRADED for _, lab in ev)
            for cap, p in zip(caps, points):
                t, _, _ = ref_select(scores[:n_half], cal, cap)
                tp = sum(s >= t and lab == DEGRADED for s, lab in ev)
                fp = sum(s >= t and lab == GOOD for s, lab in ev)
                assert p.threshold == t
                assert p.tpr == (tp / n_pos if n_pos else 0.0)
                assert p.fpr == (fp / (len(ev) - n_pos) if n_pos < len(ev) else 0.0)


class TestAvailability:
    def test_service_availability_counts_good(self):
        labels = [GOOD, GOOD, DEGRADED, DEGRADED, DEGRADED]
        assert service_availability(labels) == pytest.approx(0.4)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            service_availability([])

    def test_discount_hand_value(self):
        got = discounted_availability(0.4, 0.9, window_ms=1500.0, period_ms=15000.0)
        assert got == pytest.approx(0.324)

    def test_window_equal_to_period_gives_zero(self):
        assert discounted_availability(1.0, 1.0, 15000.0, 15000.0) == 0.0

    def test_range_checks(self):
        with pytest.raises(InvalidRange):
            discounted_availability(1.5, 0.5, 100.0, 1000.0)
        with pytest.raises(InvalidRange):
            discounted_availability(0.5, -0.1, 100.0, 1000.0)
        with pytest.raises(InvalidRange):
            discounted_availability(0.5, 0.5, 2000.0, 1000.0)

    @settings(max_examples=200)
    @given(
        sa=st.floats(0, 1),
        tpr=st.floats(0, 1),
        w=st.floats(0, 15000),
    )
    def test_never_exceeds_plain_availability(self, sa, tpr, w):
        assert discounted_availability(sa, tpr, w, 15000.0) <= sa + 1e-12


class TestWindowedEvaluation:
    def test_window_bins(self):
        assert window_bins(100.0, 2.0, 7392) == 50
        assert window_bins(15000.0 - 216.0, 2.0, 7392) == 7392
        with pytest.raises(InvalidWindow):
            window_bins(0.5, 2.0, 7392)  # rounds to zero bins
        with pytest.raises(InvalidWindow):
            window_bins(20000.0, 2.0, 7392)

    def make_core(self, rng, n_p=6, n_bins=200, mu=40.0):
        return rng.normal(mu, 3.0, size=(n_p, n_bins))

    def test_failed_fits_are_nan_and_counted(self):
        rng = np.random.default_rng(0)
        core = self.make_core(rng, n_p=3)
        core[1, :] = 42.0  # constant period: gaussian fit has zero variance
        grid = fit_grid(core, 2.0, [100.0], ["gaussian"], 45.0, seed=0)
        for answers in (grid.p99, grid.exceedance):
            assert np.isnan(answers["gaussian"]).tolist() == [[False, True, False]]
        assert not grid.unconverged["gaussian"].any()
        mse = quantile_mse_from_grid(grid, core)["gaussian"][0]
        assert mse.n_fitted == 2 and mse.n_skipped == 1
        assert mse.n_fitted + mse.n_skipped == grid.n_periods

    def test_empirical_full_window_has_zero_error(self):
        rng = np.random.default_rng(1)
        core = self.make_core(rng, n_p=5, n_bins=300)
        grid = fit_grid(core, 2.0, [600.0], ["empirical"], 45.0, seed=0)
        mse = quantile_mse_from_grid(grid, core)["empirical"][0]
        assert mse.mse_ms2 == 0.0
        assert mse.n_fitted == 5

    def test_tail_level_outside_fitted_region_skipped(self):
        rng = np.random.default_rng(2)
        core = self.make_core(rng, n_p=2, n_bins=3000)
        grid = fit_grid(core, 2.0, [6000.0], ["gpd"], 45.0, seed=0)
        # k=25 of n=3000 puts the fitted tail above q=0.99
        assert np.isnan(grid.p99["gpd"]).all() and not np.isnan(grid.exceedance["gpd"]).any()
        mse = quantile_mse_from_grid(grid, core)["gpd"][0]
        assert mse.mse_ms2 is None
        assert mse.n_skipped == 2

    def test_auprc_from_grid_ranks_separated_classes(self):
        rng = np.random.default_rng(3)
        good = rng.normal(30.0, 2.0, size=(4, 200))
        bad = rng.normal(60.0, 2.0, size=(4, 200))
        core = np.vstack([good, bad])
        labels = [GOOD] * 4 + [DEGRADED] * 4
        grid = fit_grid(core, 2.0, [100.0, 400.0], ["gaussian"], 45.0, seed=0)
        pts = auprc_from_grid(grid, labels)["gaussian"]
        assert [p.w_ms for p in pts] == [100.0, 400.0]
        for p in pts:
            assert p.auprc == 1.0 and p.n_scored == 8

    def test_auprc_single_class_is_none(self):
        rng = np.random.default_rng(4)
        core = self.make_core(rng, n_p=4)
        grid = fit_grid(core, 2.0, [100.0], ["gaussian"], 45.0, seed=0)
        pts = auprc_from_grid(grid, [GOOD] * 4)["gaussian"]
        assert pts[0].auprc is None

    def test_auprc_from_grid_labels_must_align(self):
        grid = fit_grid(np.full((4, 100), 30.0), 2.0, [100.0], ["empirical"], 45.0)
        with pytest.raises(ValueError, match="align"):
            auprc_from_grid(grid, [GOOD, DEGRADED, GOOD])

    def test_empty_core_rejected(self):
        with pytest.raises(EmptyInput):
            fit_grid(np.empty((0, 0)), 2.0, [100.0], ["gaussian"], 45.0)

    def test_nan_target_rejected(self):
        with pytest.raises(InvalidRange):
            fit_grid(np.full((2, 100), 30.0), 2.0, [100.0], ["empirical"], math.nan)

    def test_p99_errors_are_squared_exactly(self):
        # the C library's pow squares this error 1 ulp low; x*x rounds it once, correctly
        e = 0.3624182010806754
        assert e * e == 0.13134695247455289
        grid = FitGrid(windows_ms=(100.0,), model_names=("gaussian",), n_periods=1, lt_ms=50.0,
                       p99={"gaussian": np.array([[e]])},
                       exceedance={"gaussian": np.array([[0.5]])},
                       unconverged={"gaussian": np.array([[False]])})
        (score,) = quantile_mse_from_grid(grid, np.zeros((1, 500)))["gaussian"]
        assert score.mse_ms2 == e * e

    def heavy_core(self, seed=5, n_p=5, n_bins=400):
        rng = np.random.default_rng(seed)
        core = 30.0 + 2.0 * ((1.0 - rng.random((n_p, n_bins))) ** -0.4 - 1.0)
        core[rng.random((n_p, n_bins)) < 0.02] = np.nan
        return core

    def test_batched_cells_equal_batch_of_one(self):
        core = self.heavy_core()
        grid = fit_grid(core, 2.0, [200.0, 800.0], ["gmm3", "gpd"], 35.0, seed=7)
        alone = {"gmm3": lambda row, seed: fit_gmm_rows(row, 3, [seed])[0],
                 "gpd": lambda row, seed: fit_gpd_rows(row)[0]}
        for name, fit in alone.items():
            want = [[cell_answers(fit(core[p:p + 1, :nb], 7 + 100003 * nb + p), 35.0)
                     for p in range(core.shape[0])] for nb in (100, 400)]
            assert np.array_equal(grid_answers(grid, name), want, equal_nan=True)

    def test_cells_do_not_depend_on_other_periods(self):
        core = self.heavy_core(seed=6)
        names = ["gaussian", "gmm3", "gpd"]
        full = fit_grid(core, 2.0, [800.0], names, 35.0, seed=3)
        head = fit_grid(core[:2], 2.0, [800.0], names, 35.0, seed=3)
        for name in names:
            assert np.array_equal(grid_answers(full, name)[:, :2], grid_answers(head, name),
                                  equal_nan=True)

    def test_cells_do_not_depend_on_other_windows(self):
        core = self.heavy_core(seed=6)
        alone = fit_grid(core, 2.0, [800.0], ["gmm3"], 35.0, seed=3)
        among = fit_grid(core, 2.0, [200.0, 800.0], ["gmm3"], 35.0, seed=3)
        assert np.array_equal(grid_answers(alone, "gmm3")[0], grid_answers(among, "gmm3")[1],
                              equal_nan=True)

    def test_unconverged_cells_counted(self, monkeypatch):
        core = self.heavy_core(seed=7, n_p=4)
        core[3, :] = 42.0  # fails for gaussian, so it is neither fitted nor unconverged
        with monkeypatch.context() as m:
            m.setattr(stats, "GMM_MAX_ITER", 1)
            grid = fit_grid(core, 2.0, [200.0, 800.0], ["gmm3", "gaussian"], 45.0, seed=0)
        mse = quantile_mse_from_grid(grid, core)
        assert [s.n_unconverged for s in mse["gmm3"]] == [4, 4]
        assert [s.n_unconverged for s in mse["gaussian"]] == [0, 0]
        full = fit_grid(core, 2.0, [200.0], ["gmm3"], 45.0, seed=0)
        assert quantile_mse_from_grid(full, core)["gmm3"][0].n_unconverged < 4

    def test_scores_equal_the_per_cell_loops(self, monkeypatch):
        # failed fits (the constant period 1, period 2's nearly empty 200 ms window),
        # out-of-tail gpd cells (k=25 of about 2,940 at 6 s) and gmm3 cells stopped
        # by the iteration budget
        core = self.heavy_core(seed=8, n_p=8, n_bins=3000)
        core[1, :] = 42.0
        core[2, 5:100] = np.nan
        labels = [GOOD, DEGRADED, GOOD, DEGRADED, DEGRADED, GOOD, DEGRADED, GOOD]
        names = ["uniform", "gaussian", "gmm3", "empirical", "gpd"]
        windows, lt, caps = [200.0, 6000.0], 35.0, [0.0, 0.25, 1.0]
        monkeypatch.setattr(stats, "GMM_MAX_ITER", 8)
        grid = fit_grid(core, 2.0, windows, names, lt, seed=4)
        assert np.isnan(grid.exceedance["gaussian"][:, 1]).all()
        assert np.isnan(grid.exceedance["gpd"][0, 2])
        assert np.isnan(grid.p99["gpd"][1]).all()
        assert 0 < grid.unconverged["gmm3"].sum() < np.isfinite(grid.p99["gmm3"]).sum()
        mse, areas = quantile_mse_from_grid(grid, core), auprc_from_grid(grid, labels)
        for name in names:
            fits = loop_fits(core, windows, name, seed=4)
            assert mse[name] == loop_mse(fits, core, windows)
            assert areas[name] == loop_auprc(fits, labels, lt, windows)
            assert dsa_eval(core, labels, 2.0, 200.0, name, lt, caps, 15000.0, seed=4) == \
                loop_dsa(fits[0], labels, lt, 200.0, caps, 15000.0)


class TestDsaEval:
    def make_dataset(self, seed=0, n_each=4):
        # separation is extreme on purpose: exceedance scores saturate at
        # exactly 1.0 / ~0, so threshold transfer between halves is exact
        rng = np.random.default_rng(seed)
        rows, labels = [], []
        for i in range(2 * n_each):
            if i % 2 == 0:
                rows.append(rng.normal(30.0, 2.0, 120))
                labels.append(GOOD)
            else:
                rows.append(rng.normal(75.0, 2.0, 120))
                labels.append(DEGRADED)
        return np.asarray(rows), labels

    def test_points_cover_caps_and_respect_ceiling(self):
        core, labels = self.make_dataset()
        pts = dsa_eval(core, labels, dt_ms=2.0, w_ms=240.0, model_name="gaussian",
                       lt_ms=50.0, max_fprs=[0.0, 0.5, 1.0], period_ms=15000.0,
                       seed=0)
        assert [p.max_fpr for p in pts] == [0.0, 0.5, 1.0]
        for p in pts:
            assert p.n_calibrate == 4 and p.n_evaluate == 4
            assert p.sa == pytest.approx(0.5)
            assert p.dsa <= p.sa + 1e-12
        # classes are well separated, so even the zero cap catches everything
        assert pts[0].tpr == 1.0 and pts[0].fpr == 0.0
        assert math.isfinite(pts[-1].threshold)

    def test_discount_matches_direct_formula(self):
        core, labels = self.make_dataset(seed=1)
        (p,) = dsa_eval(core, labels, dt_ms=2.0, w_ms=240.0, model_name="gaussian",
                        lt_ms=50.0, max_fprs=[0.1], period_ms=15000.0, seed=0)
        assert p.dsa == pytest.approx(
            discounted_availability(p.sa, p.tpr, 240.0, 15000.0))

    def test_needs_four_periods(self):
        core, labels = self.make_dataset()
        with pytest.raises(TooFew):
            dsa_eval(core[:3], labels[:3], dt_ms=2.0, w_ms=240.0,
                     model_name="gaussian", lt_ms=50.0, max_fprs=[0.1],
                     period_ms=15000.0)

    @pytest.mark.parametrize("cap", [1.5, math.nan])
    def test_cap_above_one_or_nan_rejected(self, cap):
        core, labels = self.make_dataset()
        with pytest.raises(InvalidRange):
            dsa_eval(core, labels, dt_ms=2.0, w_ms=240.0, model_name="gaussian",
                     lt_ms=50.0, max_fprs=[0.1, cap], period_ms=15000.0)

    def test_labels_must_align(self):
        core, labels = self.make_dataset()
        with pytest.raises(ValueError):
            dsa_eval(core, labels[:-1], dt_ms=2.0, w_ms=240.0,
                     model_name="gaussian", lt_ms=50.0, max_fprs=[0.1],
                     period_ms=15000.0)
