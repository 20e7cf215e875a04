"""Synthetic generator: determinism, spike shape, ground-truth consistency."""

import json
import math

import numpy as np
import pytest

from llab.core import DEGRADED, GOOD
from llab.errors import InvalidConfig, InvalidWindow
from llab.segment import HEAD_EXCISE_MS, TAIL_EXCISE_MS, core_bounds
from llab.stats import empirical_quantile
from llab.synth import (
    GaussianNoise,
    GroundTruth,
    MixtureNoise,
    ParetoTailNoise,
    PeriodMeanModel,
    SpikeTemplate,
    SynthConfig,
    generate,
)


def small_config(**kw):
    defaults = dict(n_periods=3, T_ms=200.0, dt_ms=2.0,
                    spike=SpikeTemplate(head_duration_ms=20.0, tail_duration_ms=10.0))
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestNoiseModels:
    def test_gaussian_quantile_matches_cdf(self):
        n = GaussianNoise(sigma_ms=1.5)
        q = n.quantile(0.99)
        assert n.cdf(q) == pytest.approx(0.99, abs=1e-9)

    def test_mixture_recentred_to_zero_mean(self):
        n = MixtureNoise(weights=(0.7, 0.3), offsets_ms=(0.0, 10.0),
                         sigmas_ms=(1.0, 1.0))
        x = n.sample(np.random.default_rng(0), 200_000)
        assert abs(x.mean()) < 0.05

    def test_two_point_mixture_std(self):
        n = MixtureNoise(weights=(0.5, 0.5), offsets_ms=(-1.0, 1.0),
                         sigmas_ms=(0.0, 0.0))
        assert n.std == pytest.approx(1.0)
        assert set(np.round(n.sample(np.random.default_rng(0), 100), 9)) == {-1.0, 1.0}

    def test_pareto_tail_heavier_than_body(self):
        n = ParetoTailNoise()
        x = n.sample(np.random.default_rng(0), 200_000)
        assert abs(x.mean()) < 0.05
        # the 5% tail mixture pushes the upper quantile far beyond 3 sigma
        # of the unit body
        assert n.quantile(0.999) > 5.0

    def test_quantile_inverts_cdf(self):
        for n in (MixtureNoise((0.5, 0.5), (-1.0, 4.0), (0.5, 1.0)),
                  ParetoTailNoise()):
            for q in (0.5, 0.9, 0.99):
                assert n.cdf(n.quantile(q)) == pytest.approx(q, abs=1e-6)

    @pytest.mark.parametrize("make", [
        GaussianNoise,
        lambda sg: MixtureNoise((0.7, 0.3), (0.0, 6.0), (sg, sg)),
        ParetoTailNoise,
    ], ids=["gaussian", "mixture", "pareto"])
    def test_subnormal_sigma_cdf_is_the_point_mass_limit(self, make):
        # x / 1.1e-308 overflows to +-inf, where the normal CDF is exactly 1 or 0
        tiny, point = make(1.1e-308), make(0.0)
        for x in (np.float64(100.0), 100.0):
            assert tiny.cdf(x) == point.cdf(x)
            assert tiny.cdf(-x) == point.cdf(-x) == 0.0
        if not isinstance(tiny, ParetoTailNoise):  # its tail still has mass above 100
            assert tiny.cdf(np.float64(100.0)) == 1.0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidConfig):
            MixtureNoise(weights=(0.5, 0.4), offsets_ms=(0, 1), sigmas_ms=(1, 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_gaussian_sigma_must_be_finite(self, bad):
        with pytest.raises(InvalidConfig, match="sigma_ms"):
            GaussianNoise(sigma_ms=bad)

    @pytest.mark.parametrize("field,kw", [
        ("weights", dict(weights=(math.nan, 1.0))),  # nan also slips past the sum test
        ("weights", dict(weights=(math.inf, 1.0))),
        ("offsets_ms", dict(offsets_ms=(0.0, math.nan))),
        ("sigmas_ms", dict(sigmas_ms=(1.0, math.inf))),
        ("sigmas_ms", dict(sigmas_ms=(math.nan, 1.0))),
    ])
    def test_mixture_fields_must_be_finite(self, field, kw):
        args = dict(weights=(0.5, 0.5), offsets_ms=(0.0, 1.0), sigmas_ms=(1.0, 1.0))
        with pytest.raises(InvalidConfig, match=field):
            MixtureNoise(**{**args, **kw})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_pareto_body_sigma_must_be_finite(self, bad):
        with pytest.raises(InvalidConfig, match="body_sigma_ms"):
            ParetoTailNoise(body_sigma_ms=bad)

    @pytest.mark.parametrize("field,kw", [
        ("sigma_ms", dict(sigma_ms=math.nan)), ("sigma_ms", dict(sigma_ms=math.inf)),
        ("mean_ms", dict(mean_ms=math.nan)), ("mean_ms", dict(mean_ms=-math.inf)),
    ])
    def test_period_mean_fields_must_be_finite(self, field, kw):
        with pytest.raises(InvalidConfig, match=field):
            PeriodMeanModel(**kw)


class TestSpikeTemplate:
    def test_head_starts_at_peak(self):
        v = SpikeTemplate().values(7500, 2.0)
        assert v[0] == pytest.approx(74.0)
        assert np.all(np.diff(v[:70]) < 0)  # strictly decaying head

    def test_zero_outside_windows(self):
        v = SpikeTemplate().values(7500, 2.0)
        lo, hi = 70, 7500 - 38
        assert np.all(v[lo:hi] == 0.0)

    def test_spike_and_core_round_alike(self):
        # 140 ms is 70 + 5e-10 bins here: the spike must end where the core begins
        dt = 140 / (70 + 5e-10)
        cfg = SynthConfig(T_ms=7500 * dt, dt_ms=dt)
        lo, hi = core_bounds(cfg.S, dt, HEAD_EXCISE_MS, TAIL_EXCISE_MS)
        assert cfg.S == 7500
        assert np.all(cfg.spike.values(cfg.S, dt)[lo:hi] == 0.0)

    def test_windows_must_fit_period(self):
        with pytest.raises(InvalidWindow):
            SpikeTemplate().values(100, 2.0)  # 70 + 38 bins > 100


class TestGenerate:
    def test_bit_identical_for_same_seed(self):
        a, ta = generate(small_config(seed=9))
        b, tb = generate(small_config(seed=9))
        assert a == b
        assert np.array_equal(ta.period_means_ms, tb.period_means_ms)

    def test_seed_changes_trace(self):
        a, _ = generate(small_config(seed=1))
        b, _ = generate(small_config(seed=2))
        assert a != b

    def test_length_and_schedule(self):
        cfg = small_config()
        trace, _ = generate(cfg)
        assert len(trace) == cfg.n_periods * cfg.S
        assert np.all(np.diff(trace.t_send) == cfg.dt_ns)

    def test_degenerate_config_is_exact(self):
        # no noise, fixed mean: every off-spike sample is exactly the mean
        cfg = small_config(
            period_mean=PeriodMeanModel(mean_ms=40.0, sigma_ms=0.0),
            noise=GaussianNoise(sigma_ms=0.0),
        )
        trace, truth = generate(cfg)
        ul = trace.delay_ms("ul")
        spike = cfg.spike.values(cfg.S, cfg.dt_ms)
        expected = np.tile(40.0 + spike, cfg.n_periods)
        assert np.allclose(ul, expected)
        assert np.all(truth.period_means_ms == 40.0)

    def test_rtt_is_exact_sum(self):
        trace, _ = generate(small_config())
        ok = ~trace.lost
        assert np.array_equal(trace.rtt[ok], trace.ul[ok] + trace.dl[ok])

    def test_loss_rows_flagged(self):
        cfg = small_config(loss_rate=0.3, seed=4)
        trace, _ = generate(cfg)
        assert 0 < trace.n_lost < len(trace)
        assert np.all(trace.ul[trace.lost] == -1)

    def test_phase_shifts_regime_starts(self):
        cfg = small_config(
            phase_offset=30.0,
            period_mean=PeriodMeanModel(mean_ms=40.0, sigma_ms=0.0),
            noise=GaussianNoise(sigma_ms=0.0),
        )
        trace, truth = generate(cfg)
        assert truth.s_star == 30
        ul = trace.delay_ms("ul")
        # spike head lands at the regime start, not at bin zero
        assert ul[30] == pytest.approx(40.0 + cfg.spike.head_peak_ms)

    def test_truth_p99_matches_core_quantile(self):
        # within the stable core the process is mean + noise, so the
        # realized core p99 should sit on the configured one
        cfg = SynthConfig(
            n_periods=6,
            period_mean=PeriodMeanModel(mean_ms=40.0, sigma_ms=0.0),
            noise=GaussianNoise(sigma_ms=1.5),
            seed=11,
        )
        trace, truth = generate(cfg)
        ul = trace.delay_ms("ul")
        lo, hi = core_bounds(cfg.S, cfg.dt_ms, 140.0, 75.0)
        core = np.concatenate([
            ul[p * cfg.S + lo:p * cfg.S + hi] for p in range(cfg.n_periods)
        ])
        realized = empirical_quantile(core, 0.99)
        assert realized == pytest.approx(truth.p99_ms[0], rel=0.02)

    def test_labels_follow_latency_target(self):
        cfg = small_config(
            period_mean=PeriodMeanModel(mean_ms=40.0, sigma_ms=0.0),
            noise=GaussianNoise(sigma_ms=1.5),
        )
        _, truth = generate(cfg)
        # 40 ms + 2.33 sigma: Good at 50 ms, Degraded at 43 ms
        assert truth.labels_at(50.0) == (GOOD,) * 3
        assert truth.labels_at(43.0) == (DEGRADED,) * 3
        # a p99 exactly at the target meets it
        assert truth.labels_at(float(truth.p99_ms[0])) == (GOOD,) * 3

    def test_labels_match_the_noise_cdf_at_the_target(self):
        # Good where the noiseless distribution keeps 99% of a period under
        # the target, for every noise model and a spread of targets
        for noise in (GaussianNoise(1.5), ParetoTailNoise(1.0),
                      MixtureNoise((0.7, 0.3), (0.0, 6.0), (0.0, 1.5))):
            _, truth = generate(small_config(n_periods=40, noise=noise, seed=5))
            for lt in (35.0, 40.0, 45.0, 50.0, 60.0):
                expected = tuple(GOOD if noise.cdf(lt - m) >= 0.99 else DEGRADED
                                 for m in truth.period_means_ms)
                assert truth.labels_at(lt) == expected

    def test_truth_json_round_trip(self):
        _, truth = generate(small_config(seed=3))
        back = GroundTruth.from_json(truth.to_json())
        assert back.s_star == truth.s_star
        assert np.array_equal(back.period_means_ms, truth.period_means_ms)
        assert np.array_equal(back.p99_ms, truth.p99_ms)
        assert "labels" not in json.loads(truth.to_json())


class TestConfigValidation:
    def test_period_must_be_bin_multiple(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(T_ms=15.0, dt_ms=2.0)

    def test_phase_must_fit_period(self):
        with pytest.raises(InvalidConfig):
            small_config(phase_offset=100.0)

    def test_phase_must_be_whole_bins(self):
        with pytest.raises(InvalidConfig, match="whole bins"):
            small_config(phase_offset=12.6)
        _, truth = generate(small_config(phase_offset=12.0))
        assert truth.s_star == 12

    def test_loss_rate_range(self):
        with pytest.raises(InvalidConfig):
            small_config(loss_rate=1.0)
