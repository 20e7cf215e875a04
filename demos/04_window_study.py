"""
How long must you measure before you can trust the answer?
==========================================================

A probe that watches the first w milliseconds of each period pays for
its estimate twice: the window costs measurement time, and a short
window gives noisy fits. This script sweeps the window length and asks
three questions per model family:

  1. how wrong is the fitted p99 versus the period's realized p99 (MSE)
  2. how well does the fitted exceedance score rank Degraded periods
     above Good ones (area under the precision/recall curve)
  3. once a false-positive budget is imposed and a threshold calibrated
     on held-out periods, how much discounted availability is left

The full study in the evaluation suite uses 500 periods and the slower
mixture and tail families; here 80 periods and the closed-form fits
keep the run under a few seconds.
"""

import numpy as np

from llab.classify import (
    auprc_from_grid,
    dsa_eval,
    fit_grid,
    label_period,
    quantile_mse_from_grid,
    service_availability,
)
from llab.segment import SegmentationConfig, period_matrix, segment_trace, stable_core
from llab.synth import ParetoTailNoise, SynthConfig, generate

cfg = SynthConfig(n_periods=80, noise=ParetoTailNoise(), seed=42)
trace, truth = generate(cfg)
seg = segment_trace(trace, 0.0, SegmentationConfig())
core = stable_core(period_matrix(trace.delay_ms("ul"), seg), cfg.dt_ms)

lt = 50.0
labels = [label_period(row, lt).label for row in core]
sa = service_availability(labels)
print(f"{core.shape[0]} periods, {labels.count('Degraded')} Degraded, "
      f"service availability {sa:.3f}\n")

windows = (250.0, 500.0, 1000.0, 2000.0, 5000.0)
models = ("uniform", "gaussian", "empirical")
grid = fit_grid(core, cfg.dt_ms, windows, models, lt, seed=0)

# question 1: squared error of the windowed p99 against the realized p99
mse = quantile_mse_from_grid(grid, core)
print("p99 MSE (ms^2) by window:")
print(f"{'model':10s}" + "".join(f"{w / 1000:>9.2f}s" for w in windows))
for name in models:
    cells = "".join(f"{pt.mse_ms2:10.2f}" for pt in mse[name])
    print(f"{name:10s}{cells}")
print("longer windows help gaussian and empirical; uniform gets worse,\n"
      "because a longer window catches more outliers to latch onto\n")

# question 2: ranking quality of the exceedance score
areas = auprc_from_grid(grid, labels)
print("AUPRC by window (1.0 = Degraded periods perfectly ranked first):")
print(f"{'model':10s}" + "".join(f"{w / 1000:>9.2f}s" for w in windows))
for name in models:
    cells = "".join(f"{pt.auprc:10.3f}" for pt in areas[name])
    print(f"{name:10s}{cells}")

# question 3: impose a false-positive budget, calibrate on the first
# half of the periods, realize rates on the second half
print("\ndiscounted availability, gaussian at w=1s:")
print(f"{'fpr cap':>8s} {'threshold':>10s} {'tpr':>6s} {'fpr':>6s} {'dsa':>6s}")
for pt in dsa_eval(core, labels, cfg.dt_ms, 1000.0, "gaussian", lt,
                   max_fprs=(0.05, 0.10, 0.25), period_ms=cfg.T_ms, seed=0):
    print(f"{pt.max_fpr:8.2f} {pt.threshold:10.2e} {pt.tpr:6.2f} "
          f"{pt.fpr:6.2f} {pt.dsa:6.3f}")
print(f"\nthe dsa column never exceeds the held-out availability, and the\n"
      f"window itself costs a factor of {(cfg.T_ms - 1000.0) / cfg.T_ms:.3f} "
      f"even for a perfect detector")
