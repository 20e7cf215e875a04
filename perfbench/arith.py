"""The arithmetic the benchmark reports with.

Kept apart from the workloads so it can be tested without running llab:
tail percentiles, self time of nested spans, failure fractions and the
quartile spread used to judge whether the benchmark is steady.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: Percentile levels a tail may be reported at, lowest first.
LEVELS = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest-rank position of the q-quantile among n sorted samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    # the epsilon keeps q*n that is whole in exact arithmetic from rounding up
    return max(1, math.ceil(q * n - 1e-9))


def n_beyond(n: int, q: float) -> int:
    """How many of n samples rank above the nearest-rank q-quantile."""
    return n - rank(n, q)


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile: a sample value, never an interpolation."""
    xs = sorted(values)
    return float(xs[rank(len(xs), q) - 1])


def tail_level(n: int) -> float | None:
    """Highest of ``LEVELS`` with at least ``MIN_BEYOND`` of n samples beyond it.

    None when even the lowest level has too few samples beyond it.
    """
    ok = [q for q in LEVELS if n >= 1 and n_beyond(n, q) >= MIN_BEYOND]
    return max(ok) if ok else None


def level_name(q: float) -> str:
    """'p90' for 0.9, 'p99.9' for 0.999."""
    return "p" + f"{q * 100:.4f}".rstrip("0").rstrip(".")


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span, or None."""

    name: str
    start: float
    end: float
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval, and overlapping
    children count once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [s.duration - _covered(children.get(i, ())) for i, s in enumerate(spans)]


def fail_frac(attempted: int, failed: int) -> float:
    """Failed operations as a share of attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


def model_study_counts(ev: dict, dsa: dict) -> tuple[int, int]:
    """Attempted and failed fit cells of one model_study unit.

    ``ev`` and ``dsa`` are the JSON reports of ``llab evaluate`` and ``llab
    dsa``. A cell is one period fitted at one window with one family, and it
    fails when its fit is None. An evaluate grid cell is counted once, from
    the AUPRC curve (its MSE curve scores the same fits). dsa fits its grid
    once and reports one point per false-positive cap, so its cells are
    counted from the first point only.
    """
    n_p = ev["n_periods"]
    attempted = failed = 0
    for curves in ev["per_model"].values():
        for a in curves["auprc_curve"]:
            attempted += n_p
            failed += n_p - a["n_scored"]
    if dsa["points"]:
        first = dsa["points"][0]
        attempted += n_p
        failed += n_p - first["n_calibrate"] - first["n_evaluate"]
    return attempted, failed


def quartile_spread(values) -> float:
    """Distance between first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
