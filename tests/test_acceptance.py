"""Shipping gate: the package's headline guarantees, one test per claim.

These exercise the toolkit the way a release checklist would: traces at the
real link's shape (15 s periods, 2 ms bins), full-size seed banks, and the
stated wall-clock budgets. The 500-period model study dominates the runtime
(about half a minute); run with -s to see one summary line per check.
"""

import math
import resource
import time

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import spearmanr

from llab.classify import (
    auprc,
    auprc_from_grid,
    discounted_availability,
    dsa_eval,
    fit_grid,
    label_period,
    quantile_mse_from_grid,
)
from llab.cli import main as cli_main
from llab.core import DEGRADED, GOOD, validate_trace
from llab.probe import ProbeConfig, ProbeServer, pacing_errors_ns, run_client
from llab.segment import (
    SegmentationConfig,
    core_bounds,
    detect_phase,
    mean_centered_profile,
    period_matrix,
    segment_trace,
    stable_core,
)
from llab.stats import (
    fit_by_name,
    fit_empirical,
    fit_gaussian,
    fit_rows,
    fit_uniform,
)
from llab.synth import (
    GaussianNoise,
    MixtureNoise,
    ParetoTailNoise,
    SpikeTemplate,
    SynthConfig,
    generate,
)

S = 7500
LT_MS = 50.0
WINDOWS = (250.0, 500.0, 750.0, 1000.0, 1600.0, 2500.0, 3500.0, 5000.0)
SUB_SECOND = tuple(w for w in WINDOWS if w <= 1000.0)


def check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def dataset500():
    """Heavy-tailed 500-period trace shared by the model-study checks."""
    cfg = SynthConfig(n_periods=500, noise=ParetoTailNoise(), seed=42)
    trace, truth = generate(cfg)
    seg = segment_trace(trace, 0.0, SegmentationConfig())
    core = stable_core(period_matrix(trace.delay_ms("ul"), seg), cfg.dt_ms)
    labels = [label_period(row, LT_MS).label for row in core]
    assert GOOD in labels and DEGRADED in labels
    return core, labels


@pytest.fixture(scope="module")
def window_curves(dataset500):
    """One fit per (family, window, period), shared by both trend checks.

    The tail family stops at 1 s: its claim is met there, and the fits are
    by far the most expensive cells of the study.
    """
    core, labels = dataset500
    families = ["uniform", "gaussian", "gmm3", "empirical"]
    grid = fit_grid(core, 2.0, WINDOWS, families, LT_MS, seed=0)
    tail = fit_grid(core, 2.0, SUB_SECOND, ["gpd"], LT_MS, seed=0)
    mse = quantile_mse_from_grid(grid, core)
    areas = auprc_from_grid(grid, labels)
    areas["gpd"] = auprc_from_grid(tail, labels)["gpd"]
    return mse, areas


def test_phase_recovery_accuracy_and_speed():
    noise_sigma = 0.5
    mad = noise_sigma * 0.6744897501960817
    spike = SpikeTemplate(head_peak_ms=5.0 * mad, tail_peak_ms=0.0)
    # uniform whole-bin phases in [0, S)
    phases = [round(float(x)) % S for x in np.random.default_rng(12345).uniform(0, S, 100)]

    t0 = time.perf_counter()
    hits = 0
    worst = 0.0
    for seed in range(100):
        cfg = SynthConfig(n_periods=100, phase_offset=phases[seed],
                          noise=GaussianNoise(sigma_ms=noise_sigma),
                          spike=spike, seed=seed)
        trace, truth = generate(cfg)
        det = detect_phase(trace.delay_ms("ul"), SegmentationConfig())
        d = abs(det.s_star - truth.s_star)
        d = min(d, S - d)
        worst = max(worst, d)
        hits += d <= 2.0
    elapsed = time.perf_counter() - t0
    check("phase-recovery", hits >= 99 and elapsed < 60.0,
          f"{hits}/100 within 2 bins (worst {worst:.2f}), {elapsed:.1f}s of 60s")


def test_profile_reproduces_spike_template():
    n_periods = 4
    noise = MixtureNoise(weights=(0.5, 0.5), offsets_ms=(-1.0, 1.0),
                         sigmas_ms=(0.0, 0.0))
    cfg = SynthConfig(n_periods=n_periods, noise=noise, seed=7)
    trace, truth = generate(cfg)
    seg = segment_trace(trace, 0.0, SegmentationConfig())
    prof = mean_centered_profile(period_matrix(trace.delay_ms("ul"), seg))

    template = cfg.spike.values(cfg.S, cfg.dt_ms)
    target = template - template.mean()
    lo, hi = core_bounds(cfg.S, cfg.dt_ms, 140.0, 75.0)
    dev = float(np.abs(prof.values - target)[lo:hi].max())
    bound = 3.0 * noise.std / math.sqrt(n_periods)
    check("profile-fidelity", dev < bound,
          f"max stable-core deviation {dev:.4f} < {bound:.4f}")


def test_body_quantiles_match_analytic_oracles():
    n = 100_000
    q = 0.99
    rng_u = np.random.default_rng(100)
    rng_g = np.random.default_rng(101)
    uni = rng_u.uniform(0.0, 100.0, n)
    gau = 40.0 + 5.0 * rng_g.standard_normal(n)

    oracle_u = 99.0
    oracle_g = 40.0 + 5.0 * float(ndtri(q))
    cases = [
        ("uniform", fit_uniform(uni).quantile(q), oracle_u),
        ("gaussian", fit_gaussian(gau).quantile(q), oracle_g),
        ("gmm1", fit_by_name("gmm1", gau, seed=0).quantile(q), oracle_g),
        ("empirical", fit_empirical(gau).quantile(q), oracle_g),
    ]
    rels = {name: abs(got - want) / want for name, got, want in cases}
    worst = max(rels.values())
    check("quantile-oracles", worst < 0.01,
          "q99 rel err " + ", ".join(f"{k}={v:.4%}" for k, v in rels.items()))


def test_tail_shape_and_extreme_quantile():
    n, k, seeds = 100_000, 25, 50
    families = [
        ("exponential", lambda r: r.exponential(5.0, n),
         0.0, 0.25, 5.0 * math.log(1000.0)),
        ("pareto", lambda r: 2.0 * ((1.0 - r.random(n)) ** -0.5 - 1.0),
         0.5, 0.2, 2.0 * (1000.0 ** 0.5 - 1.0)),
    ]
    details = []
    ok = True
    for name, draw, xi_true, xi_tol, q999 in families:
        xis, qs = [], []
        for seed in range(seeds):
            m = fit_by_name("gpd", draw(np.random.default_rng(1000 + seed)))
            xis.append(m.xi)
            qs.append(m.tail_quantile(0.999))
        med_xi = float(np.median(xis))
        rel = abs(float(np.median(qs)) - q999) / q999
        ok = ok and abs(med_xi - xi_true) <= xi_tol and rel < 0.10
        details.append(f"{name} xi {med_xi:+.3f} (true {xi_true}), q999 rel {rel:.2%}")
    check("tail-fit", ok, "; ".join(details))


def test_em_iterations_never_lose_likelihood():
    rng = np.random.default_rng(777)
    samples = {1: [], 2: [], 3: []}  # per K: (seed, sample) of each fit
    for i in range(1000):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(10 * k, 300))
        centers = rng.uniform(0, 60, k)
        scales = rng.uniform(0.1, 6.0, k)
        comp = rng.integers(0, k, n)
        samples[k].append((i, rng.normal(centers[comp], scales[comp])))
    violations = 0
    for k, fits in samples.items():
        # one NaN-padded batch per K, the way fit_grid fits a window; the padding
        # reorders the EM's sums, so a history can differ from the unpadded
        # fit's in its last bits or follow another restart of the same optimum
        rows = np.full((len(fits), 300), np.nan)
        for r, (_, x) in enumerate(fits):
            rows[r, :x.size] = x
        for model in fit_rows(f"gmm{k}", rows, [i for i, _ in fits]):
            h = np.asarray(model.fit_meta.ll_history)
            violations += int(np.count_nonzero(np.diff(h) < -1e-9 * (1.0 + np.abs(h[:-1]))))
    check("em-monotonicity", violations == 0,
          f"{violations} decreasing steps across 1000 fits")


def test_ranking_area_matches_exhaustive_reference():
    def ref_auprc(scores, labels):
        pos = [lab == DEGRADED for lab in labels]
        n_pos = sum(pos)
        pts = [(0.0, 1.0)]
        for t in sorted(set(scores), reverse=True):
            tp = sum(1 for s, p in zip(scores, pos) if s >= t and p)
            pred = sum(1 for s in scores if s >= t)
            pts.append((tp / n_pos, tp / pred))
        return sum((r1 - r0) * (p1 + p0) / 2.0
                   for (r0, p0), (r1, p1) in zip(pts, pts[1:]))

    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = 0
    while cases < 10_000:
        n = int(rng.integers(2, 13))
        scores = rng.integers(0, 6, n) / 5.0  # coarse grid forces score ties
        flags = rng.integers(0, 2, n)
        if flags.all() or not flags.any():
            continue
        labels = [DEGRADED if f else GOOD for f in flags]
        worst = max(worst, abs(auprc(scores, labels) - ref_auprc(list(scores), labels)))
        cases += 1
    check("auprc-exactness", worst <= 1e-12,
          f"worst |diff| {worst:.2e} over {cases} cases of size <= 12")


def test_quantile_error_shrinks_with_window(window_curves):
    mse, _ = window_curves
    curves = {name: [s.mse_ms2 for s in mse[name]]
              for name in ("gmm3", "empirical", "uniform")}
    assert all(v is not None for c in curves.values() for v in c)
    rho_g = float(spearmanr(WINDOWS, curves["gmm3"]).statistic)
    rho_e = float(spearmanr(WINDOWS, curves["empirical"]).statistic)
    uni = dict(zip(WINDOWS, curves["uniform"]))
    ok = rho_g < -0.9 and rho_e < -0.9 and uni[5000.0] > uni[500.0]
    check("mse-trend", ok,
          f"spearman gmm3 {rho_g:.3f}, empirical {rho_e:.3f} (< -0.9); "
          f"uniform mse 5s {uni[5000.0]:.0f} > 0.5s {uni[500.0]:.0f}")


def test_ranking_improves_with_window(window_curves):
    _, areas = window_curves
    best_early = {}
    for name, pts in areas.items():
        vals = [p.auprc for p in pts if p.w_ms <= 1000.0]
        assert all(v is not None for v in vals)
        best_early[name] = max(vals)
    gmm = [p.auprc for p in areas["gmm3"]]
    rho = float(spearmanr(WINDOWS, gmm).statistic)
    ok = all(v >= 0.85 for v in best_early.values()) and rho > 0.9
    check("auprc-trend", ok,
          "best <=1s " + ", ".join(f"{k}={v:.3f}" for k, v in best_early.items())
          + f"; gmm3 spearman {rho:.3f}")


def test_availability_discount_bound_and_calibration(dataset500):
    rng = np.random.default_rng(31)
    worst = -math.inf
    for _ in range(100_000):
        sa = float(rng.random())
        tpr = float(rng.random())
        w = float(rng.random() * 15000.0)
        worst = max(worst, discounted_availability(sa, tpr, w, 15000.0) - sa)
    bound_ok = worst <= 1e-12

    core, labels = dataset500
    transfers = []
    cal_ok = True
    for model in ("gaussian", "empirical"):
        pts = dsa_eval(core, labels, 2.0, 1000.0, model, LT_MS,
                       [0.05, 0.10], 15000.0, seed=0)
        for p in pts:
            cal_ok = cal_ok and p.fpr <= 1.5 * p.max_fpr
            transfers.append(f"{model}@{p.max_fpr:.2f} fpr={p.fpr:.3f}")
    check("dsa-bound", bound_ok and cal_ok,
          f"max(dsa - sa) {worst:.1e} over 1e5 draws; " + "; ".join(transfers))


def steal_ticks() -> int | None:
    """CPU time the hypervisor has taken from the machine running the test, in
    ticks (the steal field of the ``cpu`` line of /proc/stat); None where
    that cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def test_probe_loopback_fidelity():
    with ProbeServer() as srv:
        cfg = ProbeConfig(port=srv.port, interval_ns=2_000_000, duration_s=10.0,
                          receive_timeout_ms=1000)
        steal_before = steal_ticks()
        trace = run_client(cfg)
        steal_after = steal_ticks()
    steal = ("n/a" if steal_before is None or steal_after is None
             else steal_after - steal_before)
    delivered = ~trace.lost
    reply = float(delivered.mean())
    decomposed = bool(np.all(trace.rtt[delivered]
                             >= trace.ul[delivered] + trace.dl[delivered] - 1_000_000))
    split_viol = validate_trace(trace).delay_split_violations
    p99_us = float(np.percentile(np.abs(pacing_errors_ns(trace)), 99)) / 1000.0
    ok = reply >= 0.999 and decomposed and split_viol == 0 and p99_us < 500.0
    check("probe-loopback", ok,
          f"replies {reply:.2%}, delay split holds on every sample "
          f"({split_viol} violations), pacing p99 {p99_us:.0f}us of 500us; "
          f"host CPU steal {steal} ticks over the client run")


def test_pipeline_reruns_are_bit_identical(tmp_path):
    def run(d):
        d.mkdir()
        p = lambda n: str(d / n)
        steps = [
            ["synth", "--seed", "1", "--periods", "30", "--T-ms", "1000",
             "--dt-ms", "2", "--phase", "40", "--noise-sigma", "1.5",
             "--out", p("t.csv"), "--truth", p("g.json")],
            ["segment", "--trace", p("t.csv"), "--S", "500", "--out", p("seg.json")],
            ["fit", "--trace", p("t.csv"), "--seg", p("seg.json"),
             "--model", "gmm3", "--period", "0", "--out", p("m.json")],
            ["evaluate", "--trace", p("t.csv"), "--seg", p("seg.json"),
             "--models", "uniform,gaussian,empirical", "--windows", "100,300",
             "--out", p("report.json")],
            ["dsa", "--trace", p("t.csv"), "--seg", p("seg.json"),
             "--model", "gaussian", "--window", "300", "--out", p("dsa.csv")],
        ]
        for s in steps:
            assert cli_main(s) == 0, s
        return [d / n for n in
                ("t.csv", "g.json", "seg.json", "m.json", "report.json", "dsa.csv")]

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    same = [a.read_bytes() == b.read_bytes() for a, b in zip(first, second)]
    check("pipeline-determinism", all(same),
          f"{sum(same)}/{len(same)} artifacts byte-identical across reruns")


def test_eight_hour_trace_in_budget():
    cfg = SynthConfig(n_periods=1920, noise=GaussianNoise(sigma_ms=1.5),
                      phase_offset=1234.0, seed=0)
    trace, truth = generate(cfg)
    assert len(trace) == 14_400_000
    # the process's peak after generation (kB on Linux), which the stages may raise
    generate_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the stages of perfbench's eight_hour unit, each timed on its own
    stage_s: dict[str, float] = {}

    def timed(stage, f, *args, **kwargs):
        t0 = time.perf_counter()
        out = f(*args, **kwargs)
        stage_s[stage] = time.perf_counter() - t0
        return out

    series = timed("delay_ms", trace.delay_ms, "ul")
    det = timed("detect_phase", detect_phase, series, SegmentationConfig())
    seg = timed("segment_trace", segment_trace, trace, det.s_star, SegmentationConfig(),
                histogram=det.histogram)
    mat = timed("period_matrix", period_matrix, series, seg)
    timed("mean_centered_profile", mean_centered_profile, mat)
    core = timed("stable_core", stable_core, mat, cfg.dt_ms)
    timed("label_period", lambda: [label_period(row, LT_MS) for row in core])
    fits = timed("gaussian_fits",
                 lambda: [fit_by_name("gaussian", row[np.isfinite(row)]) for row in core])
    elapsed = sum(stage_s.values())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    d = abs(det.s_star - truth.s_star)
    d = min(d, S - d)
    stages = ", ".join(f"{k} {v:.2f}s" for k, v in stage_s.items())
    check("throughput", elapsed < 30.0 and d <= 2.0 and len(fits) == 1919,
          f"the eight_hour unit with {len(fits)} fits on 14.4M samples in {elapsed:.1f}s "
          f"of 30s ({stages}), ru_maxrss {generate_mb:.0f} MB after generate and "
          f"{peak_mb:.0f} MB after the stages, phase err {d:.2f} bins")
