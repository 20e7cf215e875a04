"""
Finding the period boundary and the shape inside it
===================================================

The link reconfigures every 15 s, but a capture starts at an arbitrary
moment, so the first job is recovering the boundary phase from the data
alone. Latency jumps are scored against a robust threshold, candidate
edges vote in a circular histogram, and the winning bin is refined to
sub-bin precision. With the phase in hand, every period folds onto a
common axis and the mean-centered average exposes the boundary spike
that any single period hides under noise.
"""

import numpy as np

from llab.segment import (
    SegmentationConfig,
    detect_phase,
    mean_centered_profile,
    period_matrix,
    segment_trace,
    stable_core,
)
from llab.synth import GaussianNoise, SynthConfig, generate

cfg = SynthConfig(
    n_periods=40,
    phase_offset=5678,  # in whole bins
    noise=GaussianNoise(sigma_ms=1.5),
    seed=11,
)
trace, truth = generate(cfg)
series = trace.delay_ms("ul")

# --- phase detection --------------------------------------------------------
det = detect_phase(series, SegmentationConfig())
err = abs(det.s_star - truth.s_star)
err = min(err, cfg.S - err)
print(f"true phase {truth.s_star}, recovered {det.s_star:.2f} "
      f"({err:.2f} bins off, from {len(det.candidates)} candidate edges)")

# --- slicing ----------------------------------------------------------------
seg = segment_trace(trace, det.s_star, SegmentationConfig(),
                    histogram=det.histogram)
print(f"{len(seg.excluded)} complete periods, {len(seg.kept)} kept "
      f"(loss-heavy cores are excluded)")

# --- the folded profile -----------------------------------------------------
mat = period_matrix(series, seg)
prof = mean_centered_profile(mat)
peak = int(np.nanargmax(prof.values))
print(f"\nprofile peak: {prof.values[peak]:+.1f} ms at bin {peak} "
      f"(the reconfiguration spike)")
print(f"profile mean magnitude outside the boundary windows: "
      f"{np.abs(stable_core(prof.values[None, :], cfg.dt_ms)).mean():.3f} ms")

# the stable core drops the first 140 ms and last 75 ms of each period;
# fits and labels only ever see these bins
core = stable_core(mat, cfg.dt_ms)
print(f"stable core: {core.shape[0]} periods x {core.shape[1]} bins")

# prof.to_csv() is the plot-ready artifact; here just show its head
print("\nprofile csv head:")
print("\n".join(prof.to_csv().splitlines()[:4]))
