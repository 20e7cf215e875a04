"""Exception types raised across the package.

Every error that callers are expected to catch derives from LlabError so a
pipeline can fail soft on a single period or trace without masking plain
bugs (which surface as ordinary ValueError/TypeError).
"""

from __future__ import annotations

import sys


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


def _json_value(v, kind: str, name: str):
    """``v`` if ``json.loads`` made it a JSON ``kind``, where a bool is no number and a
    number is finite in float64; else an ``InvalidConfig`` that names ``name``."""
    types = {"integer": (int,), "number": (int, float), "boolean": (bool,), "array": (list,),
             "object": (dict,)}[kind]
    if type(v) not in types or kind == "number" and not abs(v) <= sys.float_info.max:
        raise InvalidConfig(f"{name} must be a JSON {kind}, got {v!r:.60}")
    return v


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
