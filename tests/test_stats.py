"""Latency model fits, quantiles, exceedance, and serialization."""

import inspect
import json
import math
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp
from scipy.special import ndtr as cephes_ndtr

from llab import _num
from llab._num import bisect_increasing, finite_median_count, ndtr, ndtri
import llab.classify as classify
import llab.segment as segment
from llab.errors import (
    AllTiesAtThreshold,
    EmptyInput,
    InvalidConfig,
    InvalidQ,
    InvalidRange,
    LlabError,
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
    fit_gmm_rows,
    fit_gpd_rows,
    fit_rows,
    fit_uniform,
    model_to_json,
)
import llab.synth as synth
from llab.synth import MixtureNoise

META = FitMeta(n=0, loglik=None)


def mp_ndtr(x: float):
    """The standard normal CDF at ``x`` to 50 digits."""
    with mpmath.workdps(50):
        return mpmath.ncdf(x)


def mp_ndtri(q: float, guess: float):
    """The standard normal quantile of ``q`` to 50 digits: Newton's method
    from ``guess``, which is correct to a few ulps, so three steps are ample."""
    with mpmath.workdps(50):
        x = mpmath.mpf(guess)
        for _ in range(3):
            x -= (mpmath.ncdf(x) - q) / mpmath.npdf(x)
        return x


class TestNormalLaw:
    # bounds fixed before the first run; measured 1.8e-13, 9.4e-17 and 5.8e-16
    def test_cdf_against_a_50_digit_reference(self):
        xs = np.concatenate([np.linspace(-40.0, 40.0, 801),
                             np.random.default_rng(0).uniform(-40.0, 40.0, 800)])
        for x in xs:
            ref = mp_ndtr(float(x))
            got = ndtr(float(x))
            assert abs(got - ref) <= 1e-15, x
            if -37.5 <= x <= 9.0 and float(ref) >= np.finfo(float).tiny:
                assert abs(got - ref) <= 1e-12 * ref, x

    def test_quantile_against_a_50_digit_reference(self):
        rng = np.random.default_rng(1)
        small = 10.0 ** np.concatenate([np.linspace(-300.0, math.log10(0.5), 601),
                                        rng.uniform(-300.0, 0.0, 400)])
        upper = 1.0 - 10.0 ** np.linspace(-16.0, math.log10(0.5), 200)
        for q in np.concatenate([small, upper, rng.random(400)]):
            got = ndtri(float(q))
            ref = mp_ndtri(float(q), got)
            assert abs(got - ref) <= 2e-15 * abs(ref), q

    def test_edge_values(self):
        assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf
        assert math.isnan(ndtri(math.nan)) and math.isnan(ndtri(1.5))
        assert ndtr(math.inf) == 1.0 and ndtr(-math.inf) == 0.0
        got = ndtri(np.array([0.0, 1.0, math.nan, 1.5, -0.5]))  # and no FP warning
        assert got[:2].tolist() == [-math.inf, math.inf] and np.isnan(got[2:]).all()
        assert ndtr(np.array([math.inf, -math.inf])).tolist() == [1.0, 0.0]

    def test_scalar_in_scalar_out_and_array_shape_kept(self):
        for f, v in ((ndtr, 0.3), (ndtri, 0.3)):
            assert isinstance(f(v), float) and isinstance(f(np.float64(v)), float)
            a = np.full((2, 3), v)
            out = f(a)
            assert out.shape == (2, 3) and out.dtype == np.float64
            assert out.tolist() == [[f(v)] * 3] * 2
            assert f(np.empty(0)).shape == (0,)


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
        assert m.a == m.b
        assert m.quantile(0.01) == 5.0 and m.quantile(0.99) == 5.0
        assert m.exceedance(4.999) == 1.0 and m.exceedance(5.0) == 0.0

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
        oracle = bisect_increasing(lambda x: float(cephes_ndtr(x)), 0.99, -10, 10)
        assert m.quantile(0.99) == pytest.approx(oracle, abs=1e-9)
        assert m.quantile(0.99) == pytest.approx(2.3263478740, abs=1e-9)

    def test_exceedance_value(self):
        m = Gaussian(mu=40.0, sigma=5.0, fit_meta=META)
        assert m.exceedance(50.0) == pytest.approx(0.02275, abs=1e-5)
        assert m.exceedance(50.0) == pytest.approx(float(cephes_ndtr(-2.0)), abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            fit_gaussian([5.0, 5.0])

    def test_nan_dropped(self):
        m = fit_gaussian([0.0, np.nan, 2.0])
        assert m.mu == 1.0 and m.fit_meta.n == 2

    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from(
        [np.nan, np.inf, -np.inf, 1e308, -1e308, 0.1, 0.1])), max_size=40),
        offset=st.integers(0, 3))
    def test_equals_the_mean_of_the_clean_copy(self, x, offset):
        # the former fit: a clean copy, np.mean of it and of its squared deviations;
        # the samples sit at an offset inside a larger array, as a row of a matrix does
        row = np.r_[np.zeros(offset), x][offset:]
        with np.errstate(over="ignore", invalid="ignore"):
            clean = row[np.isfinite(row)]
            try:
                got = fit_gaussian(row)
            except (TooFew, ZeroVariance) as e:
                got = type(e)
            if clean.size < 2:
                assert got is TooFew
                return
            mu = float(np.mean(clean))
            var = float(np.mean((clean - mu) ** 2))
        if var == 0.0:
            assert got is ZeroVariance
            return
        assert (got.mu, got.sigma, got.fit_meta.n) == (mu, math.sqrt(var), clean.size) or (
            math.isnan(var) and math.isnan(got.sigma) and got.fit_meta.n == clean.size)


class TestGmm:
    def test_single_component_equals_gaussian_mle(self):
        x = np.random.default_rng(0).normal(40, 5, 1000)
        g = fit_gaussian(x)
        m = fit_by_name("gmm1", x, seed=0)
        assert m.means[0] == pytest.approx(g.mu, abs=1e-9)
        assert m.sigmas[0] == pytest.approx(g.sigma, abs=1e-9)
        assert m.weights == (1.0,)

    def test_separated_modes_recovered(self):
        rng = np.random.default_rng(1)
        x = np.r_[rng.normal(0, 1, 2500), rng.normal(100, 1, 2500)]
        m = fit_by_name("gmm2", x, seed=0)
        assert m.means[0] == pytest.approx(0.0, abs=0.1)
        assert m.means[1] == pytest.approx(100.0, abs=0.1)
        assert m.weights[0] == pytest.approx(0.5, abs=0.02)

    def test_components_sorted_by_mean(self):
        rng = np.random.default_rng(2)
        x = np.r_[rng.normal(50, 2, 300), rng.normal(10, 2, 300)]
        m = fit_by_name("gmm2", x, seed=3)
        assert m.means[0] < m.means[1]

    def test_loglik_non_decreasing(self):
        rng = np.random.default_rng(4)
        x = np.r_[rng.normal(0, 1, 200), rng.normal(6, 2, 200)]
        m = fit_by_name("gmm3", x, seed=1)
        h = np.asarray(m.fit_meta.ll_history)
        assert np.all(np.diff(h) >= -1e-9 * (1.0 + np.abs(h[:-1])))

    def test_deterministic_for_seed(self):
        x = np.random.default_rng(5).normal(0, 1, 500)
        assert fit_by_name("gmm2", x, seed=7) == fit_by_name("gmm2", x, seed=7)

    def test_sigma_floor_holds(self):
        x = np.r_[np.full(50, 1.0), np.full(50, 2.0)]
        m = fit_by_name("gmm2", x, seed=0)
        assert all(s >= 1e-3 for s in m.sigmas)

    def test_needs_ten_samples_per_component(self):
        with pytest.raises(TooFew):
            fit_by_name("gmm2", np.arange(5.0))

    def test_quantile_inverts_cdf(self):
        m = Gmm(weights=(0.6, 0.4), means=(0.0, 10.0), sigmas=(1.0, 2.0),
                fit_meta=META)
        for q in (0.01, 0.5, 0.9, 0.999):
            assert 1.0 - m.exceedance(m.quantile(q)) == pytest.approx(q, abs=1e-6)


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def fixed_bracket_bisection(f, target, lo, hi, tol=1e-9, max_iter=200):
    """``bisect_increasing`` as it was before it widened its own bracket."""
    if f(lo) >= target:
        return lo
    if f(hi) < target:
        raise ValueError("target not bracketed")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def first_bracket(noise) -> tuple[float, float]:
    """The bracket a noise model's quantile starts its bisection from."""
    if isinstance(noise, MixtureNoise):
        c, smax = noise._centered, max(noise.sigmas_ms)
        return float(c.min()) - 10.0 * smax - 1.0, float(c.max()) + 10.0 * smax + 1.0
    b = noise.body_sigma_ms
    return (-synth._PARETO_SHIFT - 10.0 * b - 1.0,
            synth._PARETO_SHIFT + synth.PARETO_TAIL_OFFSET_MS
            + 10.0 * (b + synth.PARETO_TAIL_SCALE_MS) + 1.0)


def widened_noise_quantile(noise, q):
    """The noise models' quantile as it was: widen the bracket, then bisect."""
    lo, hi = first_bracket(noise)
    while noise.cdf(hi) < q:
        hi = lo + 2.0 * (hi - lo)
    return fixed_bracket_bisection(noise.cdf, q, lo, hi)


#: Levels up to 1 - 1e-9; the upper ones lie past the first bracket of a
#: Pareto tail, so the bracket has to widen.
QUANTILE_LEVELS = st.one_of(st.floats(1e-9, 1 - 1e-9),
                            st.sampled_from([1e-9, 0.5, 0.99, 0.9999, 1 - 1e-6, 1 - 1e-9]))


@st.composite
def noise_models(draw):
    sigma = st.just(0.0) | st.floats(1e-3, 20.0)
    if draw(st.booleans()):
        return synth.ParetoTailNoise(body_sigma_ms=draw(sigma))
    k = draw(st.integers(1, 3))
    w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return MixtureNoise(weights=tuple((w / w.sum()).tolist()),
                        offsets_ms=tuple(draw(st.lists(st.floats(-50.0, 50.0), min_size=k,
                                                       max_size=k))),
                        sigmas_ms=tuple(draw(st.lists(sigma, min_size=k, max_size=k))))


class TestQuantileBisection:
    """One bisection widens every bracket; the quantiles keep their bits."""

    def test_pareto_levels_need_a_wider_bracket(self):
        noise = synth.ParetoTailNoise()
        assert noise.cdf(first_bracket(noise)[1]) < 0.9999

    @settings(max_examples=300, deadline=None)
    @given(noise=noise_models(), q=QUANTILE_LEVELS)
    def test_noise_quantile_equals_the_widening_loop(self, noise, q):
        assert same_bits(noise.quantile(q), widened_noise_quantile(noise, q))

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 4), data=st.data(), q=QUANTILE_LEVELS)
    def test_gmm_quantile_equals_the_fixed_bracket(self, k, data, q):
        def column(lo, hi):
            return tuple(data.draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k)))

        w = np.asarray(column(0.01, 1.0))
        m = Gmm(weights=tuple((w / w.sum()).tolist()), means=column(-100.0, 100.0),
                sigmas=column(1e-3, 30.0), fit_meta=META)
        mu, sg = np.asarray(m.means), np.asarray(m.sigmas)
        want = fixed_bracket_bisection(m._cdf, q, float((mu - 10.0 * sg).min()),
                                       float((mu + 10.0 * sg).max()))
        assert same_bits(m.quantile(q), want)


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
        assert m.exceedance(3.0) == pytest.approx(1 / 3)
        assert m.exceedance(0.0) == 1.0
        assert m.exceedance(5.0) == 0.0

    def test_no_finite_sample_rejected(self):
        with pytest.raises(EmptyInput):
            empirical_quantile([math.nan, math.inf], 0.5)

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
        (m,) = fit_gpd_rows(x[None], 1000)  # large k: estimation noise shrinks
        assert m.xi == pytest.approx(0.0, abs=0.1)
        assert m.sigma == pytest.approx(5.0, rel=0.15)
        assert m.k == 1000 and m.n == 100_000
        assert m.body.size == 99_000

    def test_threshold_is_k_plus_first_largest(self):
        x = np.arange(100.0)
        (m,) = fit_gpd_rows(x[None], 10)
        assert m.u == 89.0

    def test_too_few(self):
        with pytest.raises(TooFew):
            fit_by_name("gpd", np.arange(20.0))  # k = GPD_K = 25

    def test_all_ties_at_threshold(self):
        with pytest.raises(AllTiesAtThreshold):
            fit_by_name("gpd", np.full(50, 5.0))

    def test_k_floor(self):
        for k in (5, 25.0, 25.5):  # below the floor, or not an integer
            with pytest.raises(InvalidConfig):
                fit_gpd_rows(np.arange(100.0)[None], k)


def masked_rows(seed, n_rows=6, n_bins=300):
    """Rows of two-mode latencies with lost bins and unequal finite counts."""
    rng = np.random.default_rng(seed)
    mode = rng.random((n_rows, n_bins)) < 0.3
    mat = np.where(mode, rng.normal(60, 4, (n_rows, n_bins)),
                   30 + rng.exponential(2.0, (n_rows, n_bins)))
    mat[rng.random((n_rows, n_bins)) < 0.05] = np.nan
    mat[1, 150:] = np.nan
    return mat


@st.composite
def latency_rows(draw):
    """One row of latencies with lost bins (NaN): constant rows, rows whose
    top ``GPD_K`` values tie with the threshold, and rows too short for a
    mixture or a tail fit."""
    n = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 40.0 + 5.0 * rng.standard_normal(n)
    shape = draw(st.sampled_from(["spread", "constant", "tied top"]))
    if shape == "constant":
        x[:] = 40.0
    elif shape == "tied top" and n:
        x[np.argsort(x)[-(stats.GPD_K + 1):]] = x.max()
    n_lost = draw(st.integers(0, 20))
    return np.insert(x, rng.integers(0, n + 1, n_lost), np.nan)


def far_mode_rows(seed, n_bins=400):
    """Rows of three narrow modes, two of them far apart, with lost bins.

    30 and 600 ms with a third mode at 40 or 80 ms, at sigmas of 2, 10 and
    50 us, and 5,000 and 9,000 ms with a third at 5,100 ms at 10 us. The
    third mode gives each row one optimum that every restart reaches, so
    the winning restart never rests on a rounding-level tie.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for centers, sigma in [((30, 40, 600), 0.002), ((30, 40, 600), 0.01),
                           ((30, 80, 600), 0.05), ((5000, 5100, 9000), 0.01)]:
        row = np.asarray(centers, np.float64)[rng.choice(3, n_bins, p=[0.5, 0.2, 0.3])]
        row += rng.normal(0.0, sigma, n_bins)
        row[rng.random(n_bins) < 0.05] = np.nan
        rows.append(row)
    return np.array(rows)


def loop_gmm(x, K, seed):
    """Per-restart EM loop with scipy's logsumexp: the reference fitter.

    Returns the best restart's (loglik, weights, means, sigmas, iterations),
    components in ascending mean order.
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
            best = (history[-1], w[order], mu[order], sg[order], len(history))
    return best


class TestBatchedGmm:
    SEEDS = [11, 12, 13, 14, 15, 16]

    def test_matches_the_loop_reference(self):
        # the batched EM sums in another order, so results agree to rounding
        self.assert_matches_the_loop_reference(masked_rows(7), self.SEEDS)

    def test_far_apart_narrow_modes_match_the_loop_reference(self):
        # modes 2,600 to 280,000 sigmas from a row's mean stress the rounding
        self.assert_matches_the_loop_reference(far_mode_rows(5), [50, 51, 52, 53])

    def assert_matches_the_loop_reference(self, mat, seeds):
        for row, seed, m in zip(mat, seeds, fit_gmm_rows(mat, 3, seeds)):
            ll, w, mu, sg, iterations = loop_gmm(row[np.isfinite(row)], 3, seed)
            assert m.fit_meta.loglik == pytest.approx(ll, rel=1e-9)
            assert len(m.fit_meta.ll_history) == iterations
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
        monkeypatch.setattr(_num, "WORKERS", workers)
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
        monkeypatch.setattr(_num, "WORKERS", workers)
        monkeypatch.setattr(stats, "_EM_MIN_BLOCK_LANE_BINS", 1)
        monkeypatch.setattr(stats, "_EM_BLOCK_LANE_BINS", 3 * stats.GMM_RESTARTS * mat.shape[1])
        calls = self.spy_em(monkeypatch)
        fit_gmm_rows(mat, 3, self.SEEDS)
        assert sorted((n for n, _ in calls), reverse=True) == lanes
        assert threading.get_ident() not in {t for _, t in calls}

    def test_small_batch_is_one_block_on_the_calling_thread(self, monkeypatch):
        mat = masked_rows(2)  # 6 x 300 bins x 3 restarts, under _EM_MIN_BLOCK_LANE_BINS
        monkeypatch.setattr(_num, "WORKERS", 2)
        calls = self.spy_em(monkeypatch)
        fit_gmm_rows(mat, 3, self.SEEDS)
        assert calls == [(6 * stats.GMM_RESTARTS, threading.get_ident())]

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(_num, "WORKERS", 3)
        monkeypatch.setattr(stats, "_EM_MIN_BLOCK_LANE_BINS", 1)
        before = threading.active_count()
        fit_gmm_rows(masked_rows(2), 3, self.SEEDS)
        assert threading.active_count() == before

    def test_a_workers_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(_num, "WORKERS", 2)
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
        assert fit_by_name("gmm3", x, seed=4) == fit_gmm_rows(x[None], 3, [4])[0]

    def test_early_lane_stays_frozen_and_monotone(self):
        rng = np.random.default_rng(4)
        easy = np.r_[rng.normal(0, 1, 200), rng.normal(100, 1, 200)]
        hard = rng.normal(0, 1, 400)  # one mode split three ways converges slowly
        fits = fit_gmm_rows(np.vstack([easy, hard]), 3, [0, 0])
        h_easy = np.asarray(fits[0].fit_meta.ll_history)
        assert fits[0].fit_meta.converged
        assert h_easy.size < len(fits[1].fit_meta.ll_history)
        assert np.all(np.diff(h_easy) >= -1e-9 * (1.0 + np.abs(h_easy[:-1])))
        assert fits[0] == fit_by_name("gmm3", easy, seed=0)

    def test_one_seed_per_row(self):
        with pytest.raises(ValueError, match="one seed per row"):
            fit_gmm_rows(masked_rows(3), 3, self.SEEDS[:-1])

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
    """(x, f(x)) from scipy's bounded Brent search."""
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return float(res.x), float(res.fun)


def scipy_polished_gpd(y):
    """(xi, sigma, nll) of each row of ``y``: the reference tail fit.

    The library's theta grid, then a scipy bounded search on each lane's
    grid neighbours; an end of the grid also searches sigma (not log sigma)
    at that edge of the shape box.
    """
    G = stats._GPD_GRID
    lo, hi = stats._gpd_theta_box(y)
    ybar = y.mean(axis=1)
    theta = np.expm1(np.linspace(np.log1p(lo * ybar), np.log1p(hi * ybar), G,
                                 axis=1)) / ybar[:, None]
    theta[:, 0], theta[:, -1] = lo, hi
    grid_nll = stats._gpd_profile_nll(y, theta)
    grid_nll[~np.isfinite(grid_nll)] = np.inf
    out = []
    for yj, tj, nj in zip(y, theta, grid_nll):
        i = int(np.argmin(nj))
        a, b = tj[max(i - 1, 0)], tj[min(i + 1, G - 1)]
        profile = lambda t: float(stats._gpd_profile_nll(yj[None], np.array([[t]]))[0, 0])
        t, nll = scipy_bounded(profile, a, b, 1e-10 * (b - a))
        if nll > nj[i]:
            t, nll = float(tj[i]), float(nj[i])
        xi = float(stats._gpd_xi(yj[None], np.array([[t]]))[0, 0])
        sigma = float(yj.mean()) if abs(xi) < 1e-6 else xi / t
        if i in (0, G - 1):
            edge = stats.XI_MIN if i == 0 else stats.XI_MAX
            s_lo = 1e-12 if edge > 0 else -edge * float(yj.max()) * (1.0 + 1e-9) + 1e-12
            s_hi = 100.0 * (float(yj.mean()) + float(yj.max())) * (1.0 + abs(edge))
            s, nll_edge = scipy_bounded(lambda s: gpd_nll(yj, edge, s), s_lo, s_hi, 1e-10 * s_hi)
            if nll_edge < nll:
                xi, sigma, nll = edge, s, nll_edge
        out.append((xi, sigma, nll))
    return out


def top_k_exceedances(x, k):
    xs = np.sort(x[np.isfinite(x)])
    return xs[-k:] - xs[-k - 1]


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
            m = fit_by_name("gpd", x)
            xs = np.sort(x)
            y = xs[-k:] - xs[-k - 1]
            ref = brute_force_gpd_nll(y)
            got = -m.fit_meta.loglik
            assert got == pytest.approx(gpd_nll(y, m.xi, m.sigma), rel=1e-12), name
            assert got <= ref + 1e-9 * abs(ref), (name, got, ref)
            assert m.fit_meta.converged
        assert fit_by_name("gpd", self.tails()["edge"]).xi == 2.0

    def test_each_row_equals_its_batch_of_one(self):
        mat = np.vstack(list(self.tails().values()))
        mat[0, ::7] = np.nan
        batch = fit_gpd_rows(mat, 25)
        for i in range(mat.shape[0]):
            (one,) = fit_gpd_rows(mat[i:i + 1], 25)
            assert (one.u, one.xi, one.sigma, one.fit_meta) == \
                (batch[i].u, batch[i].xi, batch[i].sigma, batch[i].fit_meta)
            np.testing.assert_array_equal(one.body, batch[i].body)

    def test_every_lane_as_good_as_the_scipy_polish(self):
        rng = np.random.default_rng(12)
        u = 1.0 - rng.random((20, 400))
        mat = np.vstack([rng.exponential(5.0, (4, 400)),
                         *[(u[i:i + 4] ** -xi - 1.0) / xi for i, xi in
                           zip(range(0, 16, 4), (0.2, 0.5, 1.0, 1.5))],
                         u[16:20] ** -4.0,  # beyond the xi = 2 edge
                         rng.uniform(0.0, 1.0, (4, 400)),  # bounded tails: xi < 0
                         rng.beta(2.0, 3.0, (4, 400)),
                         rng.beta(1.0, 0.7, (4, 400))])
        mat[rng.random(mat.shape) < 0.05] = np.nan
        fits = fit_gpd_rows(mat, 25)
        ref = scipy_polished_gpd(np.vstack([top_k_exceedances(x, 25) for x in mat]))
        for m, (xi, sigma, nll) in zip(fits, ref):
            got = -m.fit_meta.loglik
            assert got <= nll + 1e-12 * abs(nll), (got, nll, xi, m.xi)
            assert m.fit_meta.converged
        # both ends of the shape box won somewhere, so the edge search ran too
        assert {m.xi for m in fits} >= {stats.XI_MIN, stats.XI_MAX}

    def test_edge_sigma_is_searched_on_a_log_scale(self):
        # xi = 4 tails: at the xi = 2 edge the best sigma is about 1e-7 of the
        # largest exceedance, below an absolute tolerance scaled to that
        mat = (1.0 - np.random.default_rng(8).random((40, 1000))) ** -4.0
        edge = [(x, m) for x, m in zip(mat, fit_gpd_rows(mat, 25)) if m.xi == stats.XI_MAX]
        assert len(edge) >= 30
        for x, m in edge:
            y = top_k_exceedances(x, 25)
            hi = 100.0 * (y.mean() + y.max()) * 3.0
            _, ref = scipy_bounded(lambda s: gpd_nll(y, 2.0, math.exp(s)),
                                   math.log(1e-12), math.log(hi), 1e-12)
            assert -m.fit_meta.loglik == pytest.approx(ref, rel=1e-12)

    def test_failed_rows_carry_their_error(self):
        mat = np.vstack([np.arange(100.0), np.full(100, 5.0), np.arange(100.0)])
        mat[2, 10:] = np.nan  # k finite values leave no threshold below them
        fits = fit_gpd_rows(mat, 10)
        assert isinstance(fits[0], GpdTail)
        assert isinstance(fits[1], AllTiesAtThreshold)
        assert isinstance(fits[2], TooFew)

    def test_exceedances_past_float64_fail_the_fit(self):
        # their mean overflows; the fit once came back converged with xi = sigma = nan
        huge = np.concatenate([np.zeros(100), np.linspace(1e307, 1.7e308, 25)])
        plain = np.concatenate([np.zeros(100), np.linspace(1.0, 1.7, 25)])
        mat = np.vstack([huge, plain])
        fits = fit_rows("gpd", mat, [0, 0])  # no RuntimeWarning: pytest makes it an error
        assert isinstance(fits[0], InvalidRange)
        (alone,) = fit_gpd_rows(plain[None, :])
        assert (fits[1].xi, fits[1].sigma, fits[1].fit_meta) == \
            (alone.xi, alone.sigma, alone.fit_meta)
        grid = classify.fit_grid(mat, 2.0, [250.0], ["gpd"], 1.5)
        assert np.isnan(grid.p99["gpd"][0, 0]) and np.isnan(grid.exceedance["gpd"][0, 0])
        assert np.isfinite(grid.p99["gpd"][0, 1]) and np.isfinite(grid.exceedance["gpd"][0, 1])

    @pytest.mark.parametrize("shape", [np.linspace(1.0, 17.0, 25), np.r_[np.zeros(24), 1.0]])
    def test_the_largest_exceedance_sum_is_fitted(self, shape):
        # one top value over 24 ties reached the 1e-12 scale bracket's overflow at 1e300
        at, past = (np.r_[np.zeros(100), shape / shape.sum() * f * stats._GPD_SUM_MAX]
                    for f in (0.999, 1.001))
        m, failed = fit_gpd_rows(np.vstack([at, past]))
        assert math.isfinite(m.xi) and math.isfinite(m.sigma) and m.fit_meta.converged
        assert math.isfinite(m.quantile(0.99)) and 0.0 <= m.exceedance(at.max()) <= 1.0
        assert isinstance(failed, InvalidRange)


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

    def test_model_protocol_inventory(self):
        # the public methods and properties of every fitted model; a new
        # question asked of a model edits this on purpose
        expected = {cls: ["exceedance", "quantile"] for cls in (Uniform, Gaussian, Gmm, Empirical)}
        expected[GpdTail] = ["exceedance", "quantile", "tail_fraction", "tail_quantile"]
        assert {cls: sorted(name for name, v in vars(cls).items() if not name.startswith("_")
                            and (callable(v) or isinstance(v, property)))
                for cls in expected} == expected

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["uniform", "gaussian", "gmm1", "gmm3", "empirical", "gpd"]),
           x=latency_rows(), seed=st.integers(0, 1000))
    @example(name="gmm3", x=masked_rows(3)[0], seed=0)
    def test_fit_by_name_is_fit_rows_on_one_row(self, name, x, seed):
        (row,) = fit_rows(name, x[None, :], [seed])
        try:
            one = fit_by_name(name, x, seed=seed)
        except LlabError as e:
            assert type(e) is type(row)
            return
        assert model_to_json(one) == model_to_json(row)
        assert one.fit_meta.ll_history == row.fit_meta.ll_history

    @pytest.mark.parametrize("name", ["uniform", "gaussian", "gmm3", "empirical", "gpd"])
    def test_every_non_finite_value_is_a_lost_bin(self, name):
        x = masked_rows(3)[0]
        y = np.where(np.isnan(x), np.resize([np.inf, -np.inf, np.nan], x.size), x)
        assert model_to_json(fit_by_name(name, y, seed=1)) == \
            model_to_json(fit_by_name(name, x, seed=1))

    @pytest.mark.parametrize("name", ["uniform", "gaussian", "gmm3", "empirical", "gpd"])
    def test_rows_must_be_a_matrix(self, name):
        with pytest.raises(ValueError, match="2-D"):
            fit_rows(name, np.arange(40.0), [0])

    def test_no_knob_comes_back(self):
        # every setting of these steps is a module constant; a new parameter edits this
        expected = {
            segment.robust_threshold: ["series"],
            segment.refine_phase: ["histogram"],
            classify.label_period: ["core_values_ms", "lt_ms"],
            fit_by_name: ["name", "samples", "seed"],
            fit_rows: ["name", "rows", "seeds"],
            finite_median_count: ["x", "center"],
            bisect_increasing: ["f", "target", "lo", "hi"],
            classify.quantile_mse_from_grid: ["grid", "core"],
            classify.fit_grid: ["core", "dt_ms", "windows_ms", "model_names", "lt_ms", "seed"],
            classify.auprc_from_grid: ["grid", "labels"],
        }
        assert {f: list(inspect.signature(f).parameters) for f in expected} == expected

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
    def test_only_a_fitted_model_is_written(self):
        with pytest.raises(TypeError, match="not a fitted model"):
            model_to_json(object())

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
