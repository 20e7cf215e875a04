"""Latency-trace analysis for periodically reconfiguring links.

The toolkit covers the full loop: capture or synthesize a probe trace,
recover the reconfiguration phase and slice the trace into periods,
average the within-period latency profile, fit per-period latency models
over growing measurement windows, and score how well those models rank and
bound the periods against what a full period reveals.
Names are imported from their modules; the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
