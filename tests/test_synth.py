"""Synthetic generator: determinism, spike shape, ground-truth consistency."""

import hashlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llab._num import frozen
from llab.core import ABSENT, COLUMNS, DEGRADED, GOOD
from llab.errors import InvalidConfig, InvalidWindow
from llab.segment import HEAD_EXCISE_MS, TAIL_EXCISE_MS, core_bounds
from llab.stats import empirical_quantile
from llab.synth import (
    DL_MS,
    PARETO_TAIL_OFFSET_MS,
    PARETO_TAIL_PROB,
    PARETO_TAIL_SCALE_MS,
    PARETO_TAIL_SHAPE,
    PERIOD_MEAN_FLOOR_MS,
    START_TIME_NS,
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

    @pytest.mark.parametrize("kw", [dict(offsets_ms=(0.0,)), dict(sigmas_ms=(1.0, 1.0, 1.0)),
                                    dict(weights=(), offsets_ms=(), sigmas_ms=())])
    def test_mixture_fields_must_have_one_equal_nonzero_length(self, kw):
        args = dict(weights=(0.5, 0.5), offsets_ms=(0.0, 1.0), sigmas_ms=(1.0, 1.0))
        with pytest.raises(InvalidConfig, match="equal nonzero length"):
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

    def test_constant_period_mean_below_the_floor_rejected(self):
        with pytest.raises(InvalidConfig, match="below the floor"):
            PeriodMeanModel(mean_ms=10.0, sigma_ms=0.0)
        PeriodMeanModel(mean_ms=PERIOD_MEAN_FLOOR_MS, sigma_ms=0.0)


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

    @pytest.mark.parametrize("kw, match", [
        (dict(head_peak_ms=0.0), "head_peak_ms"),
        (dict(head_duration_ms=-1.0), "durations"),
        (dict(tail_duration_ms=-1.0), "durations"),
        (dict(tail_peak_ms=-1.0), "tail_peak_ms"),
    ])
    def test_fields_out_of_range_rejected(self, kw, match):
        with pytest.raises(InvalidConfig, match=match):
            SpikeTemplate(**kw)

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


def gather_generate(config):
    """The trace as ``generate`` built it with index arrays and gathers,
    with the Pareto tail evaluated on every draw: the oracle the in-place
    build must equal bit for bit."""
    rng = np.random.default_rng(config.seed)
    S, P = config.S, config.n_periods
    N = P * S
    s0 = int(config.phase_offset) % S
    means_all = config.period_mean.sample(rng, P + 1)
    noise = config.noise
    if isinstance(noise, ParetoTailNoise):
        is_tail = rng.random(N) < PARETO_TAIL_PROB
        sg = noise.body_sigma_ms
        body = rng.normal(0.0, sg, N) if sg else np.zeros(N)
        u = rng.random(N)
        xi = PARETO_TAIL_SHAPE
        excess = PARETO_TAIL_SCALE_MS / xi * ((1.0 - u) ** (-xi) - 1.0)
        shift = PARETO_TAIL_PROB * (PARETO_TAIL_OFFSET_MS
                                    + PARETO_TAIL_SCALE_MS / (1.0 - PARETO_TAIL_SHAPE))
        eps = np.where(is_tail, PARETO_TAIL_OFFSET_MS + excess, body) - shift
    elif isinstance(noise, MixtureNoise):
        comp = rng.choice(len(noise.weights), size=N, p=np.asarray(noise.weights))
        z = rng.standard_normal(N)
        off = np.asarray(noise.offsets_ms, dtype=float)
        c = off - float(np.dot(noise.weights, off))
        eps = c[comp] + np.asarray(noise.sigmas_ms, dtype=float)[comp] * z
    else:
        eps = noise.sample(rng, N)
    lost = rng.random(N) < config.loss_rate if config.loss_rate > 0 else np.zeros(N, dtype=bool)
    n = np.arange(N, dtype=np.int64)
    rel = (n - s0) % S
    regime = (n - s0) // S
    ul_ms = means_all[regime + 1] + config.spike.values(S, config.dt_ms)[rel] + eps
    ul = np.rint(np.maximum(ul_ms, 0.0) * 1e6).astype(np.int64)
    dl = np.full(N, int(round(DL_MS * 1e6)), dtype=np.int64)
    rtt = ul + dl
    for col in (ul, dl, rtt):
        col[lost] = ABSENT
    return {"seq": n.astype(np.uint64), "t_send": START_TIME_NS + n * config.dt_ns,
            "ul": ul, "dl": dl, "rtt": rtt, "lost": lost}, means_all[1:]


MIX = MixtureNoise((0.6, 0.3, 0.1), (0.0, 3.0, 9.0), (0.5, 0.0, 1.5))

#: sha256 of every column's bytes, as the index-and-gather build that the
#: in-place one replaced made them, and sha256 of the truth's JSON
GOLDEN = {
    "gaussian": (small_config(seed=1),
                 "796fd004be1f09149977dd0ceb774fa7443306440933425ff370c5799691c7db",
                 "7d676f1a1f064ecea8e94e9520c9cb30ec3ceedb842da83dd1b7e9b7d424fa1a"),
    "gaussian_phase_loss": (
        small_config(seed=2, n_periods=20, phase_offset=37.0, loss_rate=0.001),
        "a62f6de4c6565c794ad340d518bf450462fe248eb54a043c2513fbbaea2c3be2",
        "b969d814a9b64e2e2335e32f863277ebaef96214dbe3f47b44e35f89537db56c"),
    "mixture_phase": (small_config(seed=3, phase_offset=99.0, noise=MIX),
                      "d561d1b67c2d3ab816829439446b9bf285b975eeb31d0532553e5cd90ecac9ed",
                      "699570929a580313fc3cbc4122e390c829eef3c88a49d2b52264ce8126373e87"),
    "mixture_loss": (small_config(seed=4, n_periods=20, noise=MIX, loss_rate=0.001),
                     "03a0b246b5b62f45f5bd16e2961791e07b67615c22674244d4b470481f40b6bf",
                     "bcc0b264c40fbbcc4376f0a7a518c0bc885eb3efa8ece1574904a11baff2471d"),
    "pareto": (small_config(seed=5, noise=ParetoTailNoise()),
               "17e884db33057e743fe37cfc395efedd18eaa54912892376e35842f61a36ea01",
               "5ee04a5d1da82304cbd4b6cded7638ca21fc273f315de5160a3ab3ef96b85022"),
    "pareto_phase_loss": (
        small_config(seed=6, n_periods=20, noise=ParetoTailNoise(body_sigma_ms=0.7),
                     phase_offset=1.0, loss_rate=0.001),
        "d35b5dd5d6e216c05591aba2fc9b2119336648e6e06ba5de49dfc9d41648af47",
        "b5992715a504825e6c76340b8bf83f9b03e73808a48df8bc8cbe7ab68186d810"),
    "gaussian_sigma0": (
        small_config(seed=7, noise=GaussianNoise(sigma_ms=0.0), phase_offset=50.0),
        "fb8717aae6a769cc3ea000b4d2b363fb651f3be38e2dbd0d8c4b1bd173f49a26",
        "d9080aef1f1b12212295ff622e19f62a0243222bde6af4ccf3e817eab326a192"),
    "pareto_sigma0": (
        small_config(seed=8, n_periods=20, noise=ParetoTailNoise(body_sigma_ms=0.0),
                     loss_rate=0.001),
        "584943df70484fbb4d8a32aeec8ded0f6c483f9cb95fee72fc41679f413fd7b2",
        "837ae2b153fbb2945dff02d46e776d6cf313fc7ad5560a702cfd5c14bad6a6b2"),
    "pareto_default_period": (
        SynthConfig(n_periods=4, seed=9, noise=ParetoTailNoise(), phase_offset=1234.0,
                    loss_rate=0.001),
        "1168a3b6e1cf671e7f2d4d0ac86066ef8c6ac5602adf6e393bfe781e2a7d86d3",
        "88fa2882861582495aa0bde168822715b907d8b39e16dc20d36d4f2296c81d50"),
}


class TestInPlaceBuild:
    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_bytes(self, name):
        config, columns_digest, truth_digest = GOLDEN[name]
        trace, truth = generate(config)
        h = hashlib.sha256()
        for col in COLUMNS:
            h.update(getattr(trace, col).tobytes())
        assert h.hexdigest() == columns_digest
        assert hashlib.sha256(truth.to_json().encode()).hexdigest() == truth_digest

    @settings(max_examples=60, deadline=None)
    @given(
        periods=st.integers(1, 4),
        S=st.integers(16, 120),
        phase=st.floats(0.0, 1.0, exclude_max=True),
        noise=st.sampled_from([GaussianNoise(1.5), GaussianNoise(0.0), MIX,
                               MixtureNoise((0.5, 0.5), (-1.0, 1.0), (0.0, 0.0)),
                               ParetoTailNoise(), ParetoTailNoise(0.0)]),
        loss=st.sampled_from([0.0, 0.001, 0.3]),
        mean=st.sampled_from([PeriodMeanModel(), PeriodMeanModel(20.5, 3.0)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_index_and_gather_build(self, periods, S, phase, noise, loss, mean,
                                               seed):
        config = small_config(n_periods=periods, T_ms=2.0 * S, phase_offset=float(int(phase * S)),
                              noise=noise, loss_rate=loss, period_mean=mean, seed=seed)
        trace, truth = generate(config)
        columns, means = gather_generate(config)
        for name, expected in columns.items():
            got = getattr(trace, name)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes(), name
        assert means.tobytes() == truth.period_means_ms.tobytes()

    def test_trace_takes_the_columns_without_a_copy(self):
        taken = []

        def spy(arr, dtype=np.float64):
            out = frozen(arr, dtype)
            taken.append(out is arr)
            return out

        with mock.patch("llab.core.frozen", spy):
            generate(small_config(loss_rate=0.3))
        assert taken == [True] * len(COLUMNS)

    @pytest.mark.parametrize("noise", [GaussianNoise(1.5), MIX, ParetoTailNoise(1.5)],
                             ids=["gaussian", "mixture", "pareto"])
    def test_peak_memory_is_about_the_columns(self, noise):
        config = SynthConfig(n_periods=200, noise=noise, loss_rate=0.001,
                             phase_offset=1234.0, seed=3)
        generate(SynthConfig(n_periods=1, noise=noise, seed=3))  # one-time imports
        tracemalloc.start()
        try:
            trace, _ = generate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column_bytes = sum(getattr(trace, name).nbytes for name in COLUMNS)
        assert peak <= 1.25 * column_bytes, peak / column_bytes


class TestDelayRange:
    @pytest.mark.parametrize("config", [
        small_config(noise=GaussianNoise(sigma_ms=1e300)),
        small_config(noise=MixtureNoise((0.7, 0.3), (0.0, 6.0), (1e300, 1e300))),
        small_config(noise=ParetoTailNoise(body_sigma_ms=1e300)),
        small_config(period_mean=PeriodMeanModel(mean_ms=-100.0, sigma_ms=1.0)),
        small_config(period_mean=PeriodMeanModel(mean_ms=9.3e12, sigma_ms=0.0)),
    ], ids=["gaussian", "mixture", "pareto", "no-mass-above-floor", "past-int64"])
    def test_delay_past_int64_ns_is_refused(self, config):
        with pytest.raises(InvalidConfig, match=r"^uplink delay .* does not fit int64 ns$"):
            generate(config)

    def test_largest_delay_that_fits_is_exact(self):
        # 9.2e12 ms (292 years) plus the spike still fits int64 ns, as does its rtt
        config = small_config(period_mean=PeriodMeanModel(mean_ms=9.2e12, sigma_ms=0.0),
                              noise=GaussianNoise(sigma_ms=0.0))
        trace, _ = generate(config)
        peak = 9.2e12 + config.spike.head_peak_ms
        assert int(trace.ul.max()) == round(peak * 1e6)
        assert np.array_equal(trace.rtt, trace.ul + round(DL_MS * 1e6))
