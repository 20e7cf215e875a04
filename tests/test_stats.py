"""Latency model fits, quantiles, exceedance, and serialization."""

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp, ndtr

from llab._num import BOUNDED_MAXITER, bisect_increasing, minimize_bounded
from llab.errors import (
    AllTiesAtThreshold,
    InvalidConfig,
    InvalidQ,
    OutOfTailRegion,
    TooFew,
    ZeroVariance,
)
import llab.stats as stats
from llab.stats import (
    Empirical,
    FitMeta,
    Gaussian,
    Gmm,
    GpdTail,
    Uniform,
    empirical_quantile,
    fit_by_name,
    fit_empirical,
    fit_gaussian,
    fit_gmm,
    fit_gmm_rows,
    fit_gpd_rows,
    fit_gpd_topk,
    fit_uniform,
    model_from_json,
    model_to_json,
)

META = FitMeta(n=0, loglik=None)


class TestUniform:
    def test_fit_is_sample_range(self):
        m = fit_uniform([1.0, 2.0, 3.0])
        assert (m.a, m.b) == (1.0, 3.0)
        assert m.fit_meta.loglik == pytest.approx(-3 * math.log(2.0))

    def test_quantile_and_exceedance(self):
        m = Uniform(a=0.0, b=100.0, fit_meta=META)
        assert m.quantile(0.99) == pytest.approx(99.0)
        assert m.exceedance(99.0) == pytest.approx(0.01)
        assert m.exceedance(-5.0) == 1.0
        assert m.exceedance(200.0) == 0.0

    def test_degenerate_point_mass(self):
        m = fit_uniform([5.0, 5.0, 5.0])
        assert m.degenerate
        assert m.quantile(0.01) == 5.0 and m.quantile(0.99) == 5.0
        assert m.cdf(4.999) == 0.0 and m.cdf(5.0) == 1.0

    def test_too_few(self):
        with pytest.raises(TooFew):
            fit_uniform([1.0])


class TestGaussian:
    def test_population_variance_mle(self):
        m = fit_gaussian([-1.0, 1.0])
        assert m.mu == 0.0
        assert m.sigma == 1.0  # divisor n, not n-1

    def test_quantile_against_bisection_oracle(self):
        m = Gaussian(mu=0.0, sigma=1.0, fit_meta=META)
        oracle = bisect_increasing(lambda x: float(ndtr(x)), 0.99, -10, 10, tol=1e-12)
        assert m.quantile(0.99) == pytest.approx(oracle, abs=1e-9)
        assert m.quantile(0.99) == pytest.approx(2.3263478740, abs=1e-9)

    def test_exceedance_value(self):
        m = Gaussian(mu=40.0, sigma=5.0, fit_meta=META)
        assert m.exceedance(50.0) == pytest.approx(0.02275, abs=1e-5)
        assert m.exceedance(50.0) == pytest.approx(float(ndtr(-2.0)), abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            fit_gaussian([5.0, 5.0])

    def test_nan_dropped(self):
        m = fit_gaussian([0.0, np.nan, 2.0])
        assert m.mu == 1.0 and m.fit_meta.n == 2


class TestGmm:
    def test_single_component_equals_gaussian_mle(self):
        x = np.random.default_rng(0).normal(40, 5, 1000)
        g = fit_gaussian(x)
        m = fit_gmm(x, 1, seed=0)
        assert m.means[0] == pytest.approx(g.mu, abs=1e-9)
        assert m.sigmas[0] == pytest.approx(g.sigma, abs=1e-9)
        assert m.weights == (1.0,)

    def test_separated_modes_recovered(self):
        rng = np.random.default_rng(1)
        x = np.r_[rng.normal(0, 1, 2500), rng.normal(100, 1, 2500)]
        m = fit_gmm(x, 2, seed=0)
        assert m.means[0] == pytest.approx(0.0, abs=0.1)
        assert m.means[1] == pytest.approx(100.0, abs=0.1)
        assert m.weights[0] == pytest.approx(0.5, abs=0.02)

    def test_components_sorted_by_mean(self):
        rng = np.random.default_rng(2)
        x = np.r_[rng.normal(50, 2, 300), rng.normal(10, 2, 300)]
        m = fit_gmm(x, 2, seed=3)
        assert m.means[0] < m.means[1]

    def test_loglik_non_decreasing(self):
        rng = np.random.default_rng(4)
        x = np.r_[rng.normal(0, 1, 200), rng.normal(6, 2, 200)]
        m = fit_gmm(x, 3, seed=1)
        h = np.asarray(m.fit_meta.ll_history)
        assert np.all(np.diff(h) >= -1e-9 * (1.0 + np.abs(h[:-1])))

    def test_deterministic_for_seed(self):
        x = np.random.default_rng(5).normal(0, 1, 500)
        assert fit_gmm(x, 2, seed=7) == fit_gmm(x, 2, seed=7)

    def test_sigma_floor_holds(self):
        x = np.r_[np.full(50, 1.0), np.full(50, 2.0)]
        m = fit_gmm(x, 2, seed=0)
        assert all(s >= 1e-3 for s in m.sigmas)

    def test_needs_ten_samples_per_component(self):
        with pytest.raises(TooFew):
            fit_gmm(np.arange(5.0), 2)

    def test_quantile_inverts_cdf(self):
        m = Gmm(weights=(0.6, 0.4), means=(0.0, 10.0), sigmas=(1.0, 2.0),
                fit_meta=META)
        for q in (0.01, 0.5, 0.9, 0.999):
            assert m.cdf(m.quantile(q)) == pytest.approx(q, abs=1e-6)


class TestEmpirical:
    def test_nearest_rank_examples(self):
        assert empirical_quantile([10.0], 0.99) == 10.0
        assert empirical_quantile(np.arange(1.0, 101.0), 0.5) == 50.0
        assert empirical_quantile(np.arange(1.0, 101.0), 0.99) == 99.0
        assert empirical_quantile(np.arange(1.0, 1001.0), 0.99) == 990.0

    def test_rank_never_below_one(self):
        assert empirical_quantile([3.0, 7.0], 1e-9) == 3.0

    def test_float_rank_boundary(self):
        # q*n landing exactly on an integer keeps that rank
        assert empirical_quantile(np.arange(1.0, 11.0), 0.5) == 5.0

    def test_model_wraps_sorted_samples(self):
        m = fit_empirical([5.0, 1.0, 3.0])
        assert list(m.samples) == [1.0, 3.0, 5.0]
        assert m.quantile(0.5) == 3.0
        assert m.cdf(3.0) == pytest.approx(2 / 3)
        assert m.exceedance(0.0) == 1.0
        assert m.exceedance(5.0) == 0.0

    def test_invalid_q(self):
        with pytest.raises(InvalidQ):
            empirical_quantile([1.0], 0.0)
        with pytest.raises(InvalidQ):
            empirical_quantile([1.0], 1.0)


class TestGpdTail:
    def exact_tail(self, xi):
        # body built so exactly k/n of the mass sits above the threshold u
        return GpdTail(u=50.0, sigma=5.0, xi=xi, k=25, n=2500,
                       body=np.linspace(0, 49.9, 2475), fit_meta=META)

    def test_boundary_quantile_is_threshold(self):
        m = self.exact_tail(xi=0.0)
        # q = 1 - k/n: the tail model puts the threshold right here
        assert m.quantile(0.99) == pytest.approx(50.0, abs=1e-9)

    def test_below_tail_region_raises(self):
        with pytest.raises(OutOfTailRegion):
            self.exact_tail(xi=0.0).quantile(0.5)

    def test_tail_quantile_extrapolates(self):
        m = self.exact_tail(xi=0.0)
        assert m.tail_quantile(0.5) < 50.0

    def test_exponential_branch_continuous_in_xi(self):
        # smallest shape routed to the power-law branch vs. the exact limit
        a = self.exact_tail(xi=1e-6)
        b = self.exact_tail(xi=0.0)
        assert abs(a.quantile(0.999) - b.quantile(0.999)) < 1e-4

    def test_exceedance_above_threshold(self):
        m = self.exact_tail(xi=0.0)
        assert m.exceedance(50.0) == pytest.approx(25 / 2500)
        assert m.exceedance(50.0 + 5.0 * math.log(10.0)) == pytest.approx(0.001)

    def test_exceedance_below_threshold_uses_body(self):
        m = self.exact_tail(xi=0.0)
        assert m.exceedance(-1.0) == 1.0
        mid = float(np.median(m.body))
        emp = (np.count_nonzero(m.body > mid) + 25) / 2500
        assert m.exceedance(mid) == pytest.approx(emp)

    def test_negative_xi_has_finite_endpoint(self):
        m = GpdTail(u=10.0, sigma=2.0, xi=-0.5, k=25, n=1000,
                    body=np.linspace(0, 9.9, 975), fit_meta=META)
        endpoint = 10.0 + 2.0 / 0.5
        assert m.exceedance(endpoint + 1.0) == 0.0
        assert m.exceedance(endpoint - 0.1) > 0.0

    def test_fit_recovers_exponential_tail(self):
        x = np.random.default_rng(0).exponential(5.0, 100_000)
        m = fit_gpd_topk(x, k=1000)  # large k: estimation noise shrinks
        assert m.xi == pytest.approx(0.0, abs=0.1)
        assert m.sigma == pytest.approx(5.0, rel=0.15)
        assert m.k == 1000 and m.n == 100_000
        assert m.body.size == 99_000

    def test_threshold_is_k_plus_first_largest(self):
        x = np.arange(100.0)
        m = fit_gpd_topk(x, k=10)
        assert m.u == 89.0

    def test_too_few(self):
        with pytest.raises(TooFew):
            fit_gpd_topk(np.arange(20.0), k=25)

    def test_all_ties_at_threshold(self):
        with pytest.raises(AllTiesAtThreshold):
            fit_gpd_topk(np.full(50, 5.0), k=10)

    def test_k_floor(self):
        with pytest.raises(InvalidConfig):
            fit_gpd_topk(np.arange(100.0), k=5)


def masked_rows(seed, n_rows=6, n_bins=300):
    """Rows of two-mode latencies with lost bins and unequal finite counts."""
    rng = np.random.default_rng(seed)
    mode = rng.random((n_rows, n_bins)) < 0.3
    mat = np.where(mode, rng.normal(60, 4, (n_rows, n_bins)),
                   30 + rng.exponential(2.0, (n_rows, n_bins)))
    mat[rng.random((n_rows, n_bins)) < 0.05] = np.nan
    mat[1, 150:] = np.nan
    return mat


def loop_gmm(x, K, seed):
    """Per-restart EM loop with scipy's logsumexp: the reference fitter.

    Returns the best restart's (loglik, weights, means, sigmas), components
    in ascending mean order.
    """
    best = None
    for r in range(stats.GMM_RESTARTS):
        w, mu, sg = stats._gmm_init(x, K, np.random.default_rng(seed + r))
        history = []
        for _ in range(stats.GMM_MAX_ITER):
            z = (x[:, None] - mu[None, :]) / sg[None, :]
            logp = np.log(w) - np.log(sg) - 0.5 * (z * z + math.log(2 * math.pi))
            per_sample = logsumexp(logp, axis=1)
            history.append(float(per_sample.sum()))
            if len(history) > 1 and \
                    abs(history[-1] - history[-2]) <= stats.GMM_TOL * (1.0 + abs(history[-1])):
                break
            resp = np.exp(logp - per_sample[:, None])
            nk = np.maximum(resp.sum(axis=0), 1e-300)
            w, mu = nk / x.size, resp.T @ x / nk
            var = np.einsum("nk,nk->k", resp, (x[:, None] - mu[None, :]) ** 2) / nk
            sg = np.maximum(np.sqrt(var), stats.GMM_MIN_SIGMA)
        if best is None or history[-1] > best[0]:
            order = np.argsort(mu, kind="stable")
            best = (history[-1], w[order], mu[order], sg[order])
    return best


class TestBatchedGmm:
    SEEDS = [11, 12, 13, 14, 15, 16]

    def test_matches_the_loop_reference(self):
        # the batched EM sums in another order, so results agree to rounding
        mat = masked_rows(7)
        for row, seed, m in zip(mat, self.SEEDS, fit_gmm_rows(mat, 3, self.SEEDS)):
            ll, w, mu, sg = loop_gmm(row[np.isfinite(row)], 3, seed)
            assert m.fit_meta.loglik == pytest.approx(ll, rel=1e-9)
            np.testing.assert_allclose(m.weights, w, rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(m.means, mu, rtol=1e-6)
            np.testing.assert_allclose(m.sigmas, sg, rtol=1e-6)

    def test_each_row_equals_its_batch_of_one(self):
        mat = masked_rows(0)
        batch = fit_gmm_rows(mat, 3, self.SEEDS)
        for i in range(mat.shape[0]):
            (one,) = fit_gmm_rows(mat[i:i + 1], 3, [self.SEEDS[i]])
            assert batch[i] == one  # parameters, loglik, converged, ll_history

    def test_row_fit_does_not_depend_on_the_other_rows(self):
        mat = masked_rows(1)
        full = fit_gmm_rows(mat, 2, self.SEEDS)
        keep = [0, 3, 5]
        part = fit_gmm_rows(mat[keep], 2, [self.SEEDS[i] for i in keep])
        assert part == [full[i] for i in keep]

    def test_blocks_do_not_change_the_fits(self, monkeypatch):
        mat = masked_rows(2)
        whole = fit_gmm_rows(mat, 3, self.SEEDS)
        monkeypatch.setattr(stats, "_EM_BLOCK_LANE_BINS", 2 * mat.shape[1])
        assert fit_gmm_rows(mat, 3, self.SEEDS) == whole

    @pytest.mark.parametrize("rows_per_block", [1, 4])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_do_not_change_the_fits(self, monkeypatch, workers, rows_per_block):
        mat = masked_rows(2)
        whole = fit_gmm_rows(mat, 3, self.SEEDS)
        monkeypatch.setattr(stats, "_EM_WORKERS", workers)
        monkeypatch.setattr(stats, "_EM_MIN_BLOCK_LANE_BINS", 1)
        monkeypatch.setattr(stats, "_EM_BLOCK_LANE_BINS",
                            rows_per_block * stats.GMM_RESTARTS * mat.shape[1])
        assert fit_gmm_rows(mat, 3, self.SEEDS) == whole

    def spy_em(self, monkeypatch):
        """Record the lanes and the thread of every ``_gmm_em`` call."""
        calls = []
        em = stats._gmm_em

        def spy(x, *args):
            calls.append((x.shape[0], threading.get_ident()))
            return em(x, *args)

        monkeypatch.setattr(stats, "_gmm_em", spy)
        return calls

    @pytest.mark.parametrize("workers, lanes", [(2, [9, 9]), (4, [6, 6, 3, 3])])
    def test_blocks_are_equal_and_a_multiple_of_the_workers(self, monkeypatch, workers, lanes):
        mat = masked_rows(2)  # 6 rows; the lane budget alone needs 2 blocks of 3
        monkeypatch.setattr(stats, "_EM_WORKERS", workers)
        monkeypatch.setattr(stats, "_EM_MIN_BLOCK_LANE_BINS", 1)
        monkeypatch.setattr(stats, "_EM_BLOCK_LANE_BINS", 3 * stats.GMM_RESTARTS * mat.shape[1])
        calls = self.spy_em(monkeypatch)
        fit_gmm_rows(mat, 3, self.SEEDS)
        assert sorted((n for n, _ in calls), reverse=True) == lanes
        assert threading.get_ident() not in {t for _, t in calls}

    def test_small_batch_is_one_block_on_the_calling_thread(self, monkeypatch):
        mat = masked_rows(2)  # 6 x 300 bins x 3 restarts, under _EM_MIN_BLOCK_LANE_BINS
        monkeypatch.setattr(stats, "_EM_WORKERS", 2)
        calls = self.spy_em(monkeypatch)
        fit_gmm_rows(mat, 3, self.SEEDS)
        assert calls == [(6 * stats.GMM_RESTARTS, threading.get_ident())]

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(stats, "_EM_WORKERS", 3)
        monkeypatch.setattr(stats, "_EM_MIN_BLOCK_LANE_BINS", 1)
        before = threading.active_count()
        fit_gmm_rows(masked_rows(2), 3, self.SEEDS)
        assert threading.active_count() == before

    def test_a_workers_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(stats, "_EM_WORKERS", 2)
        monkeypatch.setattr(stats, "_EM_MIN_BLOCK_LANE_BINS", 1)
        before = threading.active_count()

        def fail(x, *args):
            raise FloatingPointError("lane blew up")

        monkeypatch.setattr(stats, "_gmm_em", fail)
        with pytest.raises(FloatingPointError, match="lane blew up"):
            fit_gmm_rows(masked_rows(2), 3, self.SEEDS)
        assert threading.active_count() == before

    def test_scalar_fit_is_a_batch_of_one(self):
        x = masked_rows(3)[0]
        x = x[np.isfinite(x)]
        assert fit_gmm(x, 3, seed=4) == fit_gmm_rows(x[None], 3, [4])[0]

    def test_early_lane_stays_frozen_and_monotone(self):
        rng = np.random.default_rng(4)
        easy = np.r_[rng.normal(0, 1, 200), rng.normal(100, 1, 200)]
        hard = rng.normal(0, 1, 400)  # one mode split three ways converges slowly
        fits = fit_gmm_rows(np.vstack([easy, hard]), 3, [0, 0])
        h_easy = np.asarray(fits[0].fit_meta.ll_history)
        assert fits[0].fit_meta.converged
        assert h_easy.size < len(fits[1].fit_meta.ll_history)
        assert np.all(np.diff(h_easy) >= -1e-9 * (1.0 + np.abs(h_easy[:-1])))
        assert fits[0] == fit_gmm(easy, 3, seed=0)

    def test_short_row_is_too_few(self):
        mat = masked_rows(5)
        mat[2, 25:] = np.nan  # 25 or fewer finite values, below 10 per component
        fits = fit_gmm_rows(mat, 3, self.SEEDS)
        assert isinstance(fits[2], TooFew)
        assert all(isinstance(f, Gmm) for i, f in enumerate(fits) if i != 2)

    def test_iteration_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(stats, "GMM_MAX_ITER", 1)
        fits = fit_gmm_rows(masked_rows(6), 3, self.SEEDS)
        for f in fits:
            assert not f.fit_meta.converged and len(f.fit_meta.ll_history) == 1


def gpd_nll(y, xi, sigma):
    if abs(xi) < 1e-6:
        return y.size * math.log(sigma) + float(y.sum()) / sigma
    z = 1.0 + xi * y / sigma
    if np.any(z <= 0):
        return math.inf
    return y.size * math.log(sigma) + (1.0 + 1.0 / xi) * float(np.log(z).sum())


def brute_force_gpd_nll(y):
    """Least NLL over a dense xi grid on [-0.5, 2], sigma by a bounded search."""
    best = math.inf
    for xi in np.linspace(-0.5, 2.0, 501):
        if abs(xi) < 1e-6:
            best = min(best, gpd_nll(y, 0.0, float(y.mean())))
            continue
        lo = 1e-12 if xi > 0 else -xi * float(y.max()) * (1.0 + 1e-9) + 1e-12
        hi = 100.0 * (float(y.mean()) + float(y.max())) * (1.0 + abs(xi))
        res = minimize_scalar(lambda s: gpd_nll(y, xi, s), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-10 * hi})
        best = min(best, float(res.fun))
    return best


def scipy_bounded(f, lo, hi, xatol):
    """(x, f(x), evaluations) from scipy's own bounded Brent search."""
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return float(res.x), float(res.fun), int(res.nfev)


def counted(f):
    """``f`` with a count of its calls in ``.calls``."""
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


OBJECTIVES = {
    "quadratic": lambda c, p: lambda x: (x - c) ** 2 + p,
    "power": lambda c, p: lambda x: abs(x - c) ** p,
    "multimodal": lambda c, p: lambda x: math.sin(3.0 * p * x) + 0.1 * (x - c),
    "constant": lambda c, p: lambda x: p,
    "steps": lambda c, p: lambda x: math.floor(p * abs(x - c)),  # ties between points
}
finite = st.floats(-1e3, 1e3, allow_nan=False)


class TestBoundedMinimizer:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(OBJECTIVES)), c=finite,
           p=st.floats(0.25, 4.0), lo=finite, width=st.floats(0.0, 1e3),
           xatol=st.floats(1e-14, 1.0))
    @example(kind="steps", c=-1.0, p=3.0, lo=-6.0, width=7.0, xatol=1e-5)  # a tie with nfc
    def test_same_bits_as_scipy(self, kind, c, p, lo, width, xatol):
        f = OBJECTIVES[kind](c, p)
        ours = counted(f)
        x, fx = minimize_bounded(ours, lo, lo + width, xatol)
        want = scipy_bounded(f, lo, lo + width, xatol)
        assert (x, fx, ours.calls) == want

    def test_empty_interval_is_its_one_point(self):
        f = counted(lambda x: (x - 1.0) ** 2)
        assert minimize_bounded(f, 3.0, 3.0, 1e-5) == (3.0, 4.0)
        assert f.calls == 1
        assert scipy_bounded(lambda x: (x - 1.0) ** 2, 3.0, 3.0, 1e-5) == (3.0, 4.0, 1)

    def test_evaluation_cap(self):
        # golden sections from 1e300 down to a 1e-300 tolerance need far more
        # than the cap's worth of steps
        f = counted(lambda x: x)
        x, fx = minimize_bounded(f, 0.0, 1e300, 1e-300)
        assert f.calls == BOUNDED_MAXITER == 500
        with np.errstate(all="ignore"):  # scipy's parabola overflows in numpy scalars
            assert (x, fx, f.calls) == scipy_bounded(lambda x: x, 0.0, 1e300, 1e-300)

    @pytest.mark.parametrize("lo,hi", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_bad_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            minimize_bounded(lambda x: x, lo, hi, 1e-5)

    def test_gpd_fits_equal_scipy_driven_fits(self, monkeypatch):
        rng = np.random.default_rng(12)
        mat = np.vstack([rng.exponential(5.0, (6, 400)),
                         2.0 * ((1.0 - rng.random((6, 400))) ** -0.5 - 1.0),
                         (1.0 - rng.random((4, 400))) ** -4.0,  # beyond the xi = 2 edge
                         rng.uniform(0.0, 1.0, (4, 400))])  # bounded tail: xi < 0
        ours = fit_gpd_rows(mat, 25)
        monkeypatch.setattr(stats, "minimize_bounded",
                            lambda f, lo, hi, xatol: scipy_bounded(f, lo, hi, xatol)[:2])
        ref = fit_gpd_rows(mat, 25)
        assert [(m.u, m.xi, m.sigma, m.fit_meta) for m in ours] == \
            [(m.u, m.xi, m.sigma, m.fit_meta) for m in ref]
        # both ends of the shape box won somewhere, so the edge search ran too
        assert {m.xi for m in ours} >= {stats.XI_MIN, stats.XI_MAX}


class TestBatchedGpd:
    def tails(self):
        rng = np.random.default_rng(8)
        return {
            "exponential": rng.exponential(5.0, 1000),
            "pareto": 2.0 * ((1.0 - rng.random(1000)) ** -0.5 - 1.0),
            # xi = 4 tail: the likelihood optimum lies beyond the xi = 2 edge
            "edge": (1.0 - rng.random(1000)) ** -4.0,
        }

    def test_never_worse_than_brute_force(self):
        k = 25
        for name, x in self.tails().items():
            m = fit_gpd_topk(x, k=k)
            xs = np.sort(x)
            y = xs[-k:] - xs[-k - 1]
            ref = brute_force_gpd_nll(y)
            got = -m.fit_meta.loglik
            assert got == pytest.approx(gpd_nll(y, m.xi, m.sigma), rel=1e-12), name
            assert got <= ref + 1e-9 * abs(ref), (name, got, ref)
            assert m.fit_meta.converged
        assert fit_gpd_topk(self.tails()["edge"], k=k).xi == 2.0

    def test_each_row_equals_its_batch_of_one(self):
        mat = np.vstack(list(self.tails().values()))
        mat[0, ::7] = np.nan
        batch = fit_gpd_rows(mat, 25)
        for i in range(mat.shape[0]):
            (one,) = fit_gpd_rows(mat[i:i + 1], 25)
            assert (one.u, one.xi, one.sigma, one.fit_meta) == \
                (batch[i].u, batch[i].xi, batch[i].sigma, batch[i].fit_meta)
            np.testing.assert_array_equal(one.body, batch[i].body)

    def test_failed_rows_carry_their_error(self):
        mat = np.vstack([np.arange(100.0), np.full(100, 5.0), np.arange(100.0)])
        mat[2, 10:] = np.nan  # k finite values leave no threshold below them
        fits = fit_gpd_rows(mat, 10)
        assert isinstance(fits[0], GpdTail)
        assert isinstance(fits[1], AllTiesAtThreshold)
        assert isinstance(fits[2], TooFew)


class TestSharedEntryPoints:
    def test_fit_by_name(self):
        x = np.random.default_rng(1).normal(40, 5, 200)
        assert isinstance(fit_by_name("uniform", x), Uniform)
        assert isinstance(fit_by_name("gaussian", x), Gaussian)
        assert isinstance(fit_by_name("empirical", x), Empirical)
        gmm = fit_by_name("gmm2", x, seed=3)
        assert isinstance(gmm, Gmm) and len(gmm.means) == 2
        gpd = fit_by_name("gpd", x)
        assert isinstance(gpd, GpdTail) and gpd.k == 25
        with pytest.raises(InvalidConfig):
            fit_by_name("gmm", x)  # component count is part of the name
        with pytest.raises(InvalidConfig):
            fit_by_name("weibull", x)

    @settings(max_examples=60, deadline=None)
    @given(
        qs=st.tuples(st.floats(0.001, 0.999), st.floats(0.001, 0.999)),
        kind=st.sampled_from(["uniform", "gaussian", "gmm", "empirical", "gpd"]),
    )
    def test_quantile_monotone_in_q(self, qs, kind):
        lo_q, hi_q = sorted(qs)
        models = {
            "uniform": Uniform(a=0.0, b=10.0, fit_meta=META),
            "gaussian": Gaussian(mu=5.0, sigma=2.0, fit_meta=META),
            "gmm": Gmm(weights=(0.5, 0.5), means=(0.0, 8.0), sigmas=(1.0, 3.0),
                       fit_meta=META),
            "empirical": Empirical(samples=np.arange(50.0), fit_meta=META),
            "gpd": GpdTail(u=9.0, sigma=1.0, xi=0.2, k=10, n=100,
                           body=np.linspace(0, 8.9, 90), fit_meta=META),
        }
        m = models[kind]
        get = m.tail_quantile if kind == "gpd" else m.quantile
        assert get(lo_q) <= get(hi_q) + 1e-12


class TestSerialization:
    def test_round_trip_every_type(self):
        rng = np.random.default_rng(6)
        x = np.r_[rng.normal(20, 3, 200), rng.exponential(10, 200) + 30]
        models = [
            fit_uniform(x),
            fit_gaussian(x),
            fit_gmm(x, 2, seed=0),
            fit_empirical(x),
            fit_gpd_topk(x, k=25),
        ]
        for m in models:
            back = model_from_json(model_to_json(m))
            assert type(back) is type(m)
            # 0.99 sits inside the fitted region of every family incl. the tail
            assert back.quantile(0.99) == pytest.approx(m.quantile(0.99), abs=1e-12)
            assert back.exceedance(35.0) == pytest.approx(m.exceedance(35.0), abs=1e-12)
            assert back.fit_meta.n == m.fit_meta.n

    def test_exact_text_of_every_type(self):
        meta = {"n": 12, "loglik": -20.0, "converged": True, "seed": None}
        fm = FitMeta(n=12, loglik=-20.0)
        cases = [
            (Uniform(a=1.5, b=4.25, fit_meta=fm),
             {"type": "uniform", "params": {"a": 1.5, "b": 4.25}}),
            (Gaussian(mu=40.0, sigma=2.5, fit_meta=fm),
             {"type": "gaussian", "params": {"mu": 40.0, "sigma": 2.5}}),
            (Gmm(weights=(0.25, 0.75), means=(10.0, 20.5), sigmas=(1.0, 2.0), fit_meta=fm),
             {"type": "gmm", "params": {"weights": [0.25, 0.75], "means": [10.0, 20.5],
                                        "sigmas": [1.0, 2.0]}}),
            (Empirical(samples=np.array([1.0, 2.5, 4.0]), fit_meta=fm),
             {"type": "empirical", "params": {"samples": [1.0, 2.5, 4.0]}}),
            (GpdTail(u=9.0, sigma=1.5, xi=0.2, k=10, n=12, body=np.array([1.0, 2.0]),
                     fit_meta=fm),
             {"type": "gpd", "params": {"u": 9.0, "sigma": 1.5, "xi": 0.2, "k": 10, "n": 12,
                                        "body": [1.0, 2.0]}}),
        ]
        for model, body in cases:
            text = json.dumps({**body, "fit_meta": meta}, indent=2)
            assert model_to_json(model) == text
            assert model_to_json(model_from_json(text)) == text

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            model_from_json('{"type":"cauchy","params":{},'
                            '"fit_meta":{"n":1,"loglik":null,"converged":true,"seed":null}}')
