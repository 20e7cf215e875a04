"""
Five ways to model one period's latency
=======================================

Each period's stable core is a sample from some distribution; what we
want from it is a high quantile (for capacity questions) and an
exceedance probability (for "will this period miss the target?").
Five families trade bias against variance differently:

  uniform    two parameters, pathologically outlier-sensitive
  gaussian   right scale, but thin-tailed
  gmm3       mixture of three Gaussians, flexible body
  empirical  the sample itself, no assumptions
  gpd        Pareto tail grafted onto the empirical body, built for
             extrapolating beyond the observed maximum

Every fitted object answers quantile(q) and exceedance(x), and serializes
to JSON, which is what the `llab fit` artifact contains.
"""

import numpy as np

from llab.errors import OutOfTailRegion
from llab.segment import SegmentationConfig, period_matrix, segment_trace, stable_core
from llab.stats import empirical_quantile, fit_by_name, model_to_json
from llab.synth import ParetoTailNoise, SynthConfig, generate

cfg = SynthConfig(n_periods=8, noise=ParetoTailNoise(), seed=21)
trace, truth = generate(cfg)
seg = segment_trace(trace, 0.0, SegmentationConfig())
core = stable_core(period_matrix(trace.delay_ms("ul"), seg), cfg.dt_ms)

row = core[3]
xs = row[np.isfinite(row)]
lt = 50.0
print(f"period 3: {xs.size} core samples, realized p99 "
      f"{empirical_quantile(xs, 0.99):.2f} ms, "
      f"realized P(>{lt:.0f}ms) {np.mean(xs > lt):.4f}\n")

# the four body models all estimate the same two numbers
print(f"{'model':10s} {'q99 (ms)':>9s} {'P(>50ms)':>9s}")
for name in ("uniform", "gaussian", "gmm3", "empirical"):
    m = fit_by_name(name, xs, seed=0)
    print(f"{name:10s} {m.quantile(0.99):9.2f} {m.exceedance(lt):9.5f}")

# the tail model is different in kind: it only claims to describe the
# top k/n of the mass, and refuses quantile levels below that
gpd = fit_by_name("gpd", xs)
print(f"\ngpd: threshold u={gpd.u:.2f} ms, shape xi={gpd.xi:+.3f}, "
      f"fitted region q >= {1 - gpd.tail_fraction:.5f}")
try:
    gpd.quantile(0.99)
except OutOfTailRegion as e:
    print(f"gpd.quantile(0.99) -> OutOfTailRegion: {e}")
print(f"gpd q99.9 {gpd.quantile(0.999):.2f} ms, "
      f"P(>50ms) {gpd.exceedance(lt):.5f} (body path, exact counts)")

# and it can extrapolate past the data, which the others cannot do honestly
print(f"gpd q99.99 extrapolation: {gpd.tail_quantile(0.9999):.1f} ms "
      f"(observed max {xs.max():.1f} ms)")

# every model writes itself as JSON; this is the `llab fit --out` artifact
print(f"\ngaussian fit as json:\n{model_to_json(fit_by_name('gaussian', xs))}")
