"""Defaults that the command line shows and the analysis shares.

Standard library only, so that the parser and the reflector load no numpy.
"""

#: The delay columns of a trace, in CSV order.
DIRECTIONS = ("ul", "dl", "rtt")

#: The 500 Hz probe schedule, 2 ms: the default send interval of
#: ``probe-client`` and bin width of ``synth``, the bin width of the default
#: period length, and the nominal interval of a trace too short to infer one.
DEFAULT_DT_NS = 2_000_000

#: Length of one reconfiguration period.
PERIOD_MS = 15_000.0
