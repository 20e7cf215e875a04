"""Latency model fits, quantiles, exceedance, and serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from llab._num import bisect_increasing
from llab.errors import (
    AllTiesAtThreshold,
    InvalidConfig,
    InvalidQ,
    OutOfTailRegion,
    TooFew,
    ZeroVariance,
)
from llab.stats import (
    Empirical,
    FitConfig,
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


class TestSharedEntryPoints:
    def test_fit_by_name(self):
        x = np.random.default_rng(1).normal(40, 5, 200)
        assert isinstance(fit_by_name("uniform", x), Uniform)
        assert isinstance(fit_by_name("gaussian", x), Gaussian)
        assert isinstance(fit_by_name("empirical", x), Empirical)
        gmm = fit_by_name("gmm2", x, seed=3)
        assert isinstance(gmm, Gmm) and len(gmm.means) == 2
        gpd = fit_by_name("gpd", x, FitConfig(gpd_k=25))
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
