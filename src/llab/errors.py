"""Exception types raised across the package.

Every error that callers are expected to catch derives from LlabError so a
pipeline can fail soft on a single period or trace without masking plain
bugs (which surface as ordinary ValueError/TypeError).
"""

from __future__ import annotations


class LlabError(Exception):
    """Base class for all package-specific errors."""


# --- trace I/O ---------------------------------------------------------


class MalformedRow(LlabError):
    """A row of an input stream failed to parse.

    :param line: 1-based line number within the stream.
    """

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateSeq(LlabError):
    """Two rows carried the same sequence number."""


class EmptyTrace(LlabError):
    """The trace contains no samples."""


# --- synthesis ----------------------------------------------------------


class InvalidConfig(LlabError):
    """A configuration value violates its documented range."""


# --- segmentation -------------------------------------------------------


class TooShort(LlabError):
    """Not enough present samples for the requested statistic."""


class EmptyHistogram(LlabError):
    """The phase histogram has no counts; no edges were detected."""


class NoCompletePeriod(LlabError):
    """The series is shorter than one full period at the given phase."""


class InvalidWindow(LlabError):
    """Excision windows leave no stable core inside the period, or a
    measurement window is longer than the core (or shorter than one bin)."""


class EmptyInput(LlabError):
    """An aggregate was requested over zero items."""


# --- distribution fitting ----------------------------------------------


class TooFew(LlabError):
    """Sample count below the minimum for the requested fit."""


class ZeroVariance(LlabError):
    """All samples identical where a scale parameter is required."""


class AllTiesAtThreshold(LlabError):
    """Every tail exceedance is zero; the tail cannot be fitted."""


class OutOfTailRegion(LlabError):
    """Requested quantile lies below the fitted tail threshold."""


class InvalidQ(LlabError):
    """Quantile level outside (0, 1)."""


# --- classification -----------------------------------------------------


class SingleClass(LlabError):
    """PR analysis needs at least one positive and one negative label."""


class InvalidRange(LlabError):
    """An argument lies outside its documented numeric range."""


# --- probe --------------------------------------------------------------


class BadMagic(LlabError):
    """Datagram does not start with the probe magic."""


class UnsupportedVersion(LlabError):
    """Probe packet version not understood by this implementation."""


class Truncated(LlabError):
    """Datagram shorter than the fixed probe header."""


class BindFailure(LlabError):
    """The echo server could not bind its address."""


class SocketFailure(LlabError):
    """A probe socket operation failed."""


# --- reporting ----------------------------------------------------------


class MissingSeries(LlabError):
    """The report lacks the series needed for the requested figure."""
