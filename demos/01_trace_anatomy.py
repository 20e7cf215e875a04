"""
A first look at a periodic latency trace
========================================

Generates ten 15-second cycles of synthetic uplink latency, the way a
Starlink-style link produces them: a per-cycle mean level, a boundary
spike when the link reconfigures, heavy-tailed noise, and a little loss.
Then runs the data-quality report every capture should pass before any
analysis is trusted.
"""

import numpy as np

from llab.core import validate_trace, write_trace
from llab.synth import ParetoTailNoise, SynthConfig, generate

# ten periods of 15 s at one sample per 2 ms = 75 000 samples
cfg = SynthConfig(
    n_periods=10,
    phase_offset=2345.0,      # the first capture rarely starts on a boundary
    noise=ParetoTailNoise(),  # Gaussian body, occasional Pareto excursions
    loss_rate=0.01,
    seed=4,
)
trace, truth = generate(cfg)

print(f"{len(trace):,} samples, {trace.n_lost:,} lost")
print(f"true phase: bin {truth.s_star} of {cfg.S}")
print(f"true per-period p99: {np.round(truth.p99_ms, 2)}")
print(f"period labels at a 50 ms target: {truth.labels_at(50.0)}")

# the delay columns are nanoseconds on the wire, milliseconds for analysis
ul = trace.delay_ms("ul")
print(f"\nuplink ms: min {np.nanmin(ul):.2f}, median {np.nanmedian(ul):.2f}, "
      f"max {np.nanmax(ul):.2f} (the boundary spikes)")

# every capture gets the same five-line physical sanity check:
# loss accounting, rtt = ul + dl agreement, and send-pacing stability
report = validate_trace(trace)
print(f"\nloss fraction      {report.loss_fraction:.3%}")
print(f"rtt split checked  {report.delay_split_checked:,} samples, "
      f"{report.delay_split_violations} violations")
print(f"inter-send median  {report.intersend_median_ns / 1e6:.3f} ms "
      f"(MAD {report.intersend_mad_ns / 1e3:.0f} us)")
print(f"direction flags    consistent: {report.direction_flags_consistent}")

# round-trip through the on-disk format: this is what the CLI writes
blob = write_trace(trace)
print(f"\ncsv artifact: {len(blob):,} bytes, first row: "
      f"{blob.splitlines()[1].decode()}")
