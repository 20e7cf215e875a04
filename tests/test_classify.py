"""Period labeling, PR analysis, threshold calibration, and availability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from llab.classify import (
    MIN_LABEL_BINS,
    auprc,
    auprc_from_grid,
    confusion,
    discounted_availability,
    dsa_eval,
    fit_grid,
    label_period,
    pr_curve,
    quantile_mse_from_grid,
    score_period,
    select_threshold_for_fpr,
    service_availability,
    window_bins,
)
from llab.core import DEGRADED, GOOD
from llab.errors import (
    EmptyInput,
    InvalidRange,
    InvalidWindow,
    NoFeasibleThreshold,
    SingleClass,
    TooFew,
)
import llab.stats as stats
from llab.stats import (
    Empirical,
    FitMeta,
    Gaussian,
    Uniform,
    fit_gmm_rows,
    fit_gpd_rows,
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


class TestLabelPeriod:
    def test_good_below_one_percent_missing(self):
        v = np.full(7500, 30.0)
        v[:74] = 99.0
        lab = label_period(v, lt_ms=50.0)
        assert lab.label == GOOD
        assert lab.meet_fraction == pytest.approx(7426 / 7500)
        assert lab.n_bins == 7500 and lab.n_lost == 0

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
        assert lab.n_lost == 20
        assert lab.meet_fraction == pytest.approx(0.98)

    def test_min_bins(self):
        with pytest.raises(TooFew):
            label_period(np.full(MIN_LABEL_BINS - 1, 1.0), lt_ms=50.0)
        assert label_period(np.full(MIN_LABEL_BINS, 1.0), lt_ms=50.0).label == GOOD


class TestScorePeriod:
    def test_gaussian_tail_mass(self):
        m = Gaussian(mu=40.0, sigma=5.0, fit_meta=META)
        assert score_period(m, 50.0) == pytest.approx(float(ndtr(-2.0)))

    def test_point_mass_below_target_scores_zero(self):
        m = Uniform(a=40.0, b=40.0, fit_meta=META)
        assert score_period(m, 50.0) == 0.0

    def test_all_mass_above_target_scores_one(self):
        m = Empirical(samples=np.array([60.0, 70.0, 80.0]), fit_meta=META)
        assert score_period(m, 50.0) == 1.0


class TestPrCurve:
    def test_hand_worked_curve(self):
        scores = [0.9, 0.8, 0.3, 0.1]
        labels = [DEGRADED, GOOD, DEGRADED, GOOD]
        c = pr_curve(scores, labels)
        assert c.thresholds[0] == math.inf
        assert (c.recall[0], c.precision[0]) == (0.0, 1.0)
        np.testing.assert_allclose(c.recall, [0.0, 0.5, 0.5, 1.0, 1.0])
        np.testing.assert_allclose(c.precision, [1.0, 1.0, 0.5, 2 / 3, 0.5])
        assert c.auprc == pytest.approx(19 / 24, abs=1e-15)

    def test_tied_scores_grouped(self):
        c = pr_curve([0.8, 0.8, 0.2], [DEGRADED, GOOD, DEGRADED])
        np.testing.assert_allclose(c.thresholds, [math.inf, 0.8, 0.2])
        np.testing.assert_allclose(c.precision, [1.0, 0.5, 2 / 3])
        np.testing.assert_allclose(c.recall, [0.0, 0.5, 1.0])

    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1],
                     [DEGRADED, DEGRADED, GOOD, GOOD]) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            pr_curve([0.1, 0.2], [GOOD, GOOD])
        with pytest.raises(SingleClass):
            pr_curve([0.1, 0.2], [DEGRADED, DEGRADED])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            pr_curve([0.1, 0.2], ["Fine", DEGRADED])

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


class TestConfusionAndThreshold:
    def test_counts_partition_the_classes(self):
        scores = [0.9, 0.6, 0.4, 0.1]
        labels = [DEGRADED, GOOD, DEGRADED, GOOD]
        c = confusion(scores, labels, threshold=0.5)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)
        assert c.tpr == 0.5 and c.fpr == 0.5
        assert c.tp + c.fn == 2  # all Degraded accounted for

    def test_threshold_is_inclusive(self):
        c = confusion([0.5], [DEGRADED], threshold=0.5)
        assert c.tp == 1

    def test_zero_cap_feasible(self):
        scores = [0.9, 0.7, 0.3, 0.1]
        labels = [DEGRADED, DEGRADED, GOOD, GOOD]
        sel = select_threshold_for_fpr(scores, labels, max_fpr=0.0)
        assert sel.threshold == 0.7  # lowest cutoff that still admits no Good
        assert sel.fpr == 0.0 and sel.tpr == 1.0

    def test_zero_cap_infeasible_predicts_nothing(self):
        sel = select_threshold_for_fpr([0.9, 0.5], [GOOD, DEGRADED], max_fpr=0.0)
        assert sel.threshold == math.inf
        assert sel.fpr == 0.0 and sel.tpr == 0.0

    def test_full_cap_takes_lowest_cutoff(self):
        scores = [0.9, 0.5, 0.2]
        labels = [GOOD, DEGRADED, GOOD]
        sel = select_threshold_for_fpr(scores, labels, max_fpr=1.0)
        assert sel.threshold == 0.2 and sel.tpr == 1.0

    def test_negative_cap_rejected(self):
        with pytest.raises(NoFeasibleThreshold):
            select_threshold_for_fpr([0.1], [GOOD], max_fpr=-0.1)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            select_threshold_for_fpr([0.1, 0.2], [GOOD, GOOD], max_fpr=0.5)

    def test_matches_cutoff_scan_on_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            scores = rng.integers(0, 4, n) / 3.0
            labels = [DEGRADED if b else GOOD for b in rng.integers(0, 2, n)]
            if DEGRADED not in labels or GOOD not in labels:
                continue
            cap = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            sel = select_threshold_for_fpr(scores, labels, cap)
            t, fpr, tpr = ref_select(list(scores), labels, cap)
            assert sel.threshold == t
            assert sel.fpr == pytest.approx(fpr) and sel.tpr == pytest.approx(tpr)


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

    def test_failed_fits_are_none_and_counted(self):
        rng = np.random.default_rng(0)
        core = self.make_core(rng, n_p=3)
        core[1, :] = 42.0  # constant period: gaussian fit has zero variance
        grid = fit_grid(core, 2.0, [100.0], ["gaussian"], seed=0)
        fits = grid.fits["gaussian"][0]
        assert fits[1] is None and fits[0] is not None and fits[2] is not None
        mse = quantile_mse_from_grid(grid, core, q=0.5)["gaussian"][0]
        assert mse.n_fitted == 2 and mse.n_skipped == 1
        assert mse.n_fitted + mse.n_skipped == grid.n_periods

    def test_empirical_full_window_has_zero_error(self):
        rng = np.random.default_rng(1)
        core = self.make_core(rng, n_p=5, n_bins=300)
        grid = fit_grid(core, 2.0, [600.0], ["empirical"], seed=0)
        mse = quantile_mse_from_grid(grid, core, q=0.99)["empirical"][0]
        assert mse.mse_ms2 == 0.0
        assert mse.n_fitted == 5

    def test_tail_level_outside_fitted_region_skipped(self):
        rng = np.random.default_rng(2)
        core = self.make_core(rng, n_p=2, n_bins=3000)
        grid = fit_grid(core, 2.0, [6000.0], ["gpd"], seed=0)
        # k=25 of n=3000 puts the fitted tail above q=0.99
        mse = quantile_mse_from_grid(grid, core, q=0.99)["gpd"][0]
        assert mse.mse_ms2 is None
        assert mse.n_skipped == 2

    def test_auprc_from_grid_ranks_separated_classes(self):
        rng = np.random.default_rng(3)
        good = rng.normal(30.0, 2.0, size=(4, 200))
        bad = rng.normal(60.0, 2.0, size=(4, 200))
        core = np.vstack([good, bad])
        labels = [GOOD] * 4 + [DEGRADED] * 4
        grid = fit_grid(core, 2.0, [100.0, 400.0], ["gaussian"], seed=0)
        pts = auprc_from_grid(grid, labels, lt_ms=45.0)["gaussian"]
        assert [p.w_ms for p in pts] == [100.0, 400.0]
        for p in pts:
            assert p.auprc == 1.0 and p.n_scored == 8

    def test_auprc_single_class_is_none(self):
        rng = np.random.default_rng(4)
        core = self.make_core(rng, n_p=4)
        grid = fit_grid(core, 2.0, [100.0], ["gaussian"], seed=0)
        pts = auprc_from_grid(grid, [GOOD] * 4, lt_ms=45.0)["gaussian"]
        assert pts[0].auprc is None

    def test_empty_core_rejected(self):
        with pytest.raises(EmptyInput):
            fit_grid(np.empty((0, 0)), 2.0, [100.0], ["gaussian"])

    def heavy_core(self, seed=5, n_p=5, n_bins=400):
        rng = np.random.default_rng(seed)
        core = 30.0 + 2.0 * ((1.0 - rng.random((n_p, n_bins))) ** -0.4 - 1.0)
        core[rng.random((n_p, n_bins)) < 0.02] = np.nan
        return core

    def test_batched_cells_equal_batch_of_one(self):
        core = self.heavy_core()
        grid = fit_grid(core, 2.0, [200.0, 800.0], ["gmm3", "gpd"], seed=7)
        for wi, nb in enumerate((100, 400)):
            for p in range(core.shape[0]):
                row = core[p:p + 1, :nb]
                (gmm,) = fit_gmm_rows(row, 3, [7 + 100003 * wi + p])
                (gpd,) = fit_gpd_rows(row)
                assert grid.fits["gmm3"][wi][p] == gmm
                cell = grid.fits["gpd"][wi][p]
                assert (cell.u, cell.xi, cell.sigma, cell.fit_meta) == \
                    (gpd.u, gpd.xi, gpd.sigma, gpd.fit_meta)

    def test_cells_do_not_depend_on_other_periods(self):
        core = self.heavy_core(seed=6)
        names = ["gaussian", "gmm3", "gpd"]
        full = fit_grid(core, 2.0, [800.0], names, seed=3)
        head = fit_grid(core[:2], 2.0, [800.0], names, seed=3)
        for name in names:
            for p in range(2):
                a, b = full.fits[name][0][p], head.fits[name][0][p]
                assert (a.fit_meta, a.quantile(0.999)) == (b.fit_meta, b.quantile(0.999))

    def test_unconverged_cells_counted(self, monkeypatch):
        core = self.heavy_core(seed=7, n_p=4)
        core[3, :] = 42.0  # fails for gaussian, so it is neither fitted nor unconverged
        with monkeypatch.context() as m:
            m.setattr(stats, "GMM_MAX_ITER", 1)
            grid = fit_grid(core, 2.0, [200.0, 800.0], ["gmm3", "gaussian"], seed=0)
        mse = quantile_mse_from_grid(grid, core, q=0.5)
        assert [s.n_unconverged for s in mse["gmm3"]] == [4, 4]
        assert [s.n_unconverged for s in mse["gaussian"]] == [0, 0]
        full = fit_grid(core, 2.0, [200.0], ["gmm3"], seed=0)
        assert quantile_mse_from_grid(full, core, q=0.5)["gmm3"][0].n_unconverged < 4


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

    def test_labels_must_align(self):
        core, labels = self.make_dataset()
        with pytest.raises(ValueError):
            dsa_eval(core, labels[:-1], dt_ms=2.0, w_ms=240.0,
                     model_name="gaussian", lt_ms=50.0, max_fprs=[0.1],
                     period_ms=15000.0)
