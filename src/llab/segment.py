"""Phase detection and period segmentation of a latency series.

The link reconfigures on a fixed schedule: every period of S bins opens
with a latency spike and a new mean level. Segmentation recovers the
within-period phase of those boundaries from nothing but the latency
series, then slices the trace into aligned periods:

1. first differences of the series (gaps stay absent), taken a block at
   a time (``_num.block_diffs``) and never stored whole,
2. a robust threshold (median + c scaled MADs) marks upward jumps; the
   median and the MAD each take one ``_num.map_blocks`` pass that
   differences the series (another where a sampled bracket misses), and
   the jump search one more,
3. jump candidates thinned so survivors are at least a period apart,
4. a histogram of candidate positions modulo S,
5. a weighted circular mean around the histogram peak refines the phase.

Sample position stands in for time throughout: traces keep lost probes as
placeholder rows, so bin index i is the probe sent at t0 + i*dt.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ._num import block_diffs, finite_median_count, frozen, map_blocks
from .core import Trace
from .defaults import DEFAULT_DT_NS, PERIOD_MS
from .errors import (
    EmptyHistogram,
    EmptyInput,
    InvalidConfig,
    InvalidWindow,
    NoCompletePeriod,
    TooShort,
    _json_value,
)

#: Consistency factor making the MAD estimate sigma for Gaussian data.
MAD_SCALE = 1.4826


def period_bins(dt_ns: int) -> int:
    """Bins in one ``PERIOD_MS`` period at a trace interval of ``dt_ns``,
    taken to whole microseconds: a probe trace's send times are wall-clock
    readings, so its median gap sits some ppm off the client's schedule."""
    dt_us = round(dt_ns / 1000)
    period_us = round(PERIOD_MS * 1000)
    if dt_us < 1 or period_us % dt_us:
        raise InvalidConfig(f"a {PERIOD_MS:g} ms period is no whole number of "
                            f"{dt_ns / 1e6:g} ms bins: give the period in bins with "
                            "`segment --S`")
    return period_us // dt_us


#: Boundary windows excised from every period to leave its stable core: the
#: handover spike after the period start and the ramp before its end.
HEAD_EXCISE_MS = 140.0
TAIL_EXCISE_MS = 75.0

#: Jump threshold scale, in scaled MADs above the median difference.
JUMP_THRESHOLD_C = 8.0
#: Width of the histogram window the phase refinement averages over; odd,
#: so that the window centers on the peak.
REFINE_TOP_K_BINS = 5
#: Share of its stable-core samples a period may lose before it is flagged
#: and kept out of profile averaging.
MAX_CORE_LOSS = 0.05


@dataclass(frozen=True)
class SegmentationConfig:
    """The period length ``S`` in bins (by default ``PERIOD_MS`` at
    ``DEFAULT_DT_NS``, 7500); it must hold the phase refinement window of
    ``REFINE_TOP_K_BINS``."""

    S: int = period_bins(DEFAULT_DT_NS)

    def __post_init__(self) -> None:
        if self.S < REFINE_TOP_K_BINS:
            raise InvalidConfig(f"S must be >= {REFINE_TOP_K_BINS}")


# -- edge detection ----------------------------------------------------------


@dataclass(frozen=True)
class ThresholdEstimate:
    """Jump threshold with the statistics it was built from.

    ``degenerate`` marks the fallback used when over half the differences
    are identical (MAD zero): the threshold is then placed halfway between
    the median and the smallest deviating value, which still separates every
    deviating bin from the bulk.
    """

    theta: float
    median: float
    mad: float
    degenerate: bool = False


def robust_threshold(series) -> ThresholdEstimate:
    """Threshold for upward jumps of a series: median + ``JUMP_THRESHOLD_C``
    * 1.4826 * MAD of its present first differences (at least 100), both
    exactly ``np.median``'s (``finite_median_count`` widens a selection
    bracket that misses) unless a difference lies too far from the median
    for float64: that deviation overflows to inf and drops out of the MAD.
    Each takes one blocked pass over the series (the median's also counts
    the differences), as does the MAD-0 fallback's search for the smallest
    deviation, and no full-size difference or deviation array is made.
    """
    x = np.asarray(series, dtype=np.float64)
    med, n = finite_median_count(x)
    if n < 100:
        raise TooShort(f"need >= 100 present differences, got {n}")
    mad, _ = finite_median_count(x, center=med)  # absent diffs stay NaN or inf, and are skipped
    if mad > 0:
        return ThresholdEstimate(theta=med + JUMP_THRESHOLD_C * MAD_SCALE * mad, median=med,
                                 mad=mad)

    def least(a, b, buf):
        """The smallest positive deviation from difference a to b (inf for none)."""
        dev = np.abs(np.subtract(block_diffs(x, a, b, buf[0]), med, out=buf[0]), out=buf[0])
        pos = np.greater(dev, 0, out=buf[1])  # an inf is no less than initial
        return float(np.min(dev, where=pos, initial=math.inf))

    smallest = min(map_blocks(least, x.size - 1, np.float64, bool))
    theta = med if smallest == math.inf else med + 0.5 * smallest
    return ThresholdEstimate(theta=theta, median=med, mad=0.0, degenerate=True)


def detect_edges(series, theta: float, min_spacing: int) -> np.ndarray:
    """Indices j where the difference series[j+1] - series[j] exceeds
    theta, thinned to a minimum spacing.

    Among candidates closer than ``min_spacing`` the largest difference
    wins, ties going to the earliest index. Returned sorted ascending. The
    differences are thresholded block by block; only the candidates' own
    are taken again. The greedy that defines the result runs over blocks of
    the ranking, each as long as all before it: every edge kept in an
    earlier block outranks the whole block, so one search against them
    drops the candidates near one before the loop sees the rest. The loop
    files each edge under j // spacing, a stretch no two edges share, and
    looks for one near j in three stretches: no sorted list to insert into.
    """
    if not min_spacing >= 1:  # NaN too
        raise InvalidConfig("min_spacing must be >= 1")
    x = np.asarray(series, dtype=np.float64)

    def candidates(a, b, buf):
        """The candidates from difference a to b, ascending."""
        return a + np.flatnonzero(np.greater(block_diffs(x, a, b, buf[0]), theta, out=buf[1]))

    with np.errstate(invalid="ignore"):  # map_blocks runs every block under it
        blocks = map_blocks(candidates, max(x.size - 1, 0), np.float64, bool)
    cand = np.concatenate([np.empty(0, dtype=np.int64)] + blocks)
    if cand.size == 0:
        return cand
    order = np.argsort(-(x[cand + 1] - x[cand]), kind="stable")  # largest, then earliest
    spacing = min(min_spacing, x.size)  # as wide as it acts, and x.size + spacing fits int64
    kept, lo, hi = {}, 0, 1  # kept: stretch -> its edge; the ranking's block is [lo, hi)
    while True:
        edges = np.sort(np.fromiter(kept.values(), np.int64, len(kept)))
        if lo >= order.size:
            return edges
        block, lo, hi = cand[order[lo:hi]], hi, 2 * hi
        k = np.r_[-spacing, edges, x.size + spacing]  # no candidate is near either end
        i = np.searchsorted(k, block)
        free = block[(block - k[i - 1] >= spacing) & (k[i] - block >= spacing)]
        for j, s in zip(free.tolist(), (free // spacing).tolist()):
            if (s not in kept and j - kept.get(s - 1, -spacing) >= spacing
                    and kept.get(s + 1, x.size + spacing) - j >= spacing):
                kept[s] = j


def phase_histogram(candidates, S: int) -> np.ndarray:
    """Counts of candidate bin indices folded modulo the period length."""
    if S < 1:
        raise InvalidConfig("S must be >= 1")
    cand = np.asarray(candidates, dtype=np.int64)
    return np.bincount(cand % S, minlength=S).astype(np.int64, copy=False)


def refine_phase(histogram) -> float:
    """Sub-bin phase: weighted circular mean around the histogram peak.

    The window is the ``REFINE_TOP_K_BINS`` contiguous bins centered on the
    argmax (ties resolved to the smallest index). Offsets are taken relative
    to the peak so a symmetric window returns the peak exactly; wraparound
    across bin S-1/0 is handled by the circular mean.
    """
    h = np.asarray(histogram, dtype=np.float64)
    S = h.size
    if S < REFINE_TOP_K_BINS:
        raise InvalidConfig(f"a histogram of {S} bins is narrower than the "
                            f"{REFINE_TOP_K_BINS}-bin refinement window")
    if not np.any(h > 0):
        raise EmptyHistogram("no candidates to refine")
    s0 = int(np.argmax(h))
    half = REFINE_TOP_K_BINS // 2
    d = np.arange(-half, half + 1)
    w = h[(s0 + d) % S]
    ang = 2.0 * np.pi * d / S
    offset = math.atan2(np.dot(w, np.sin(ang)), np.dot(w, np.cos(ang))) * S / (2.0 * np.pi)
    phase = float((s0 + offset) % S)
    # a tiny negative phase rounds to S under % in floats; on the circle it is 0
    return phase if phase < S else 0.0


@dataclass(frozen=True)
class PhaseDetection:
    """Everything the phase pipeline produced for one series."""

    s_star: float
    histogram: np.ndarray
    threshold: ThresholdEstimate
    candidates: np.ndarray


def detect_phase(series, config: SegmentationConfig | None = None) -> PhaseDetection:
    """Run the full phase pipeline on a latency series (ms, NaN = absent).

    Edge candidates are found on the first differences and shifted by one
    so they index the first bin of the new level, i.e. the period start.
    Under 100 present differences raise ``TooShort``. No full-size array
    besides the float64 series is made.
    """
    cfg = config or SegmentationConfig()
    x = np.asarray(series, dtype=np.float64)
    thr = robust_threshold(x)
    edges = detect_edges(x, thr.theta, cfg.S)
    candidates = edges + 1
    hist = phase_histogram(candidates, cfg.S)
    s_star = refine_phase(hist)
    return PhaseDetection(s_star=s_star, histogram=hist, threshold=thr, candidates=candidates)


# -- period slicing -----------------------------------------------------------


def _first_bin(s_star: float, S: int) -> int:
    """The first bin at or after the phase ``s_star`` in [0, S): period 0's start."""
    if not 0.0 <= s_star < S:
        raise InvalidConfig(f"s_star {s_star!r} does not lie in [0, {S})")
    return math.ceil(s_star - 1e-9)


@dataclass(frozen=True)
class Segmentation:
    """A phase and the grid of complete periods it induces on one trace:
    period p spans bins [b0 + p*S, b0 + (p+1)*S), b0 the first bin at or
    after ``s_star``, and ``excluded[p]`` flags it. ``core_bins`` is the
    within-period range [lo, hi) left after boundary excision; every
    consumer of the stable core slices with it."""

    s_star: float
    S: int
    excluded: tuple[bool, ...]
    core_bins: tuple[int, int]
    histogram: np.ndarray | None = None

    @property
    def kept(self) -> tuple[int, ...]:
        """The numbers p of the periods not excluded, ascending."""
        return tuple(p for p, ex in enumerate(self.excluded) if not ex)

    def _periods(self) -> list[dict]:
        b0 = _first_bin(self.s_star, self.S)
        return [{"p": p, "start_bin": b0 + p * self.S, "end_bin": b0 + (p + 1) * self.S,
                 "excluded": ex} for p, ex in enumerate(self.excluded)]

    def to_json(self) -> str:
        nonzero: dict[str, int] = {}
        if self.histogram is not None:
            h = np.asarray(self.histogram)
            for s in np.flatnonzero(h):
                nonzero[str(int(s))] = int(h[s])
        return json.dumps(
            {
                "s_star": self.s_star,
                "S": self.S,
                "core_bins": list(self.core_bins),
                "periods": self._periods(),
                "histogram_nonzero": nonzero,
            },
            indent=2,
            allow_nan=False,
        )

    @classmethod
    def from_json(cls, text: str) -> "Segmentation":
        """What ``to_json`` wrote, typed as it wrote it; its periods the whole grid, in order."""
        obj = _json_value(json.loads(text), "object", "a segmentation")
        S = _json_value(obj["S"], "integer", "S")
        if "core_bins" not in obj:
            raise InvalidConfig("segmentation holds no core_bins; segment the trace again")
        bins = _json_value(obj["core_bins"], "array", "core_bins")
        if len(bins) != 2:
            raise InvalidConfig(f"core_bins must hold 2 bins, got {len(bins)}")
        lo, hi = (_json_value(b, "integer", "core_bins") for b in bins)
        if not 0 <= lo < hi <= S:
            raise InvalidConfig(f"core_bins [{lo}, {hi}) do not lie inside a period of {S}")
        hist = None
        if obj.get("histogram_nonzero"):
            hist = np.zeros(S, dtype=np.int64)
            nonzero = _json_value(obj["histogram_nonzero"], "object", "histogram_nonzero")
            for k, v in nonzero.items():
                count = _json_value(v, "integer", "a histogram count")
                if not (k.isascii() and k.isdigit() and int(k) < S and 0 <= count < 2**63):
                    raise InvalidConfig(f"histogram bin {k!r} holds {v!r}: need a bin in "
                                        f"[0, {S}) in ASCII digits and a count in [0, 2**63)")
                hist[int(k)] = count
        periods = [_json_value(p, "object", "a period")
                   for p in _json_value(obj["periods"], "array", "periods")]
        excluded = tuple(_json_value(p["excluded"], "boolean", "excluded") for p in periods)
        seg = cls(s_star=float(_json_value(obj["s_star"], "number", "s_star")), S=S,
                  core_bins=(lo, hi), histogram=hist, excluded=excluded)
        fields = ("p", "start_bin", "end_bin")
        grid = [tuple(_json_value(p[f], "integer", f) for f in fields) for p in periods]
        if grid != list(map(itemgetter(*fields), seg._periods())):
            raise InvalidConfig(f"periods are not the grid of {S}-bin periods from phase "
                                f"{seg.s_star!r}: exclude a period with its flag instead")
        return seg


def excision_bins(ms: float, dt_ms: float) -> int:
    """Whole bins an excision window of ``ms`` covers at ``dt_ms``.

    Fractional windows round outward (more excised, never less). The core
    the segmentation keeps and the spike ``synth`` writes both come from
    ``core_bounds``, which applies this rule and its one guard, so the two
    cannot disagree by a bin.
    """
    return math.ceil(ms / dt_ms - 1e-9)


def core_bounds(S: int, dt_ms: float, head_ms: float, tail_ms: float) -> tuple[int, int]:
    """Within-period bin range [lo, hi) that survives boundary excision."""
    hb = excision_bins(head_ms, dt_ms)
    tb = excision_bins(tail_ms, dt_ms)
    if hb + tb >= S:
        raise InvalidWindow("excision windows leave no stable core")
    return hb, S - tb


def stable_core(period_values, dt_ms: float) -> np.ndarray:
    """Slice of one period's values with both boundary windows excised."""
    x = np.asarray(period_values)
    lo, hi = core_bounds(x.shape[-1], dt_ms, HEAD_EXCISE_MS, TAIL_EXCISE_MS)
    return x[..., lo:hi]


def segment_trace(
    trace: Trace,
    s_star: float,
    config: SegmentationConfig | None = None,
    histogram: np.ndarray | None = None,
) -> Segmentation:
    """Slice a trace into maximal complete periods aligned at the phase.

    The first period starts at the first bin at or after ``s_star``; partial
    head and tail data fall outside every slice. Periods losing more than
    ``MAX_CORE_LOSS`` of their stable core are flagged ``excluded``.
    """
    cfg = config or SegmentationConfig()
    S = cfg.S
    n = len(trace)
    b0 = _first_bin(s_star, S)
    n_periods = (n - b0) // S
    if n_periods <= 0:
        raise NoCompletePeriod(f"{n} bins hold no complete period of {S} at phase {s_star:.1f}")
    dt_ms = trace.dt_nominal / 1e6
    lo, hi = core_bounds(S, dt_ms, HEAD_EXCISE_MS, TAIL_EXCISE_MS)
    grid = trace.lost[b0:b0 + n_periods * S].reshape(n_periods, S)
    core_lost = np.count_nonzero(grid[:, lo:hi], axis=1)
    return Segmentation(s_star=float(s_star), S=S,
                        excluded=tuple((core_lost / (hi - lo) > MAX_CORE_LOSS).tolist()),
                        core_bins=(lo, hi), histogram=histogram)


# -- per-bin profile ----------------------------------------------------------


@dataclass(frozen=True)
class MeanCenteredProfile:
    """Average within-period shape after removing each period's own mean."""

    values: np.ndarray
    n_periods: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", frozen(self.values))

    def to_csv(self) -> str:
        lines = ["s,ms"]
        lines += [f"{s},{float(v)!r}" for s, v in enumerate(self.values)]
        lines.append("")
        return "\n".join(lines)


#: Periods per block of the profile pass: a block of 7,500-bin rows and its
#: temporaries stay in L2.
PROFILE_ROWS = 8


def mean_centered_profile(period_matrix) -> MeanCenteredProfile:
    """Per-bin average of mean-centered periods.

    Rows are periods, columns within-period bins; NaN marks absent samples.
    Each row is centered on its own mean over present bins, then bins are
    averaged over the periods where they are present.

    The matrix is read in blocks of ``PROFILE_ROWS`` rows, centered in one
    reused buffer whose first row carries the bin sums of the blocks before:
    numpy sums axis 0 row by row, so the carried sum is the whole matrix's
    bit for bit. Absent samples are zeroed and counted by their flat indices.
    """
    m = np.asarray(period_matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise EmptyInput("need at least one period")
    buf = np.empty((min(len(m), PROFILE_ROWS) + 1, m.shape[1]))
    bin_counts = np.full(m.shape[1], len(m))
    for a in range(0, len(m), PROFILE_ROWS):
        blk = m[a:a + PROFILE_ROWS]
        centered = buf[1:1 + len(blk)]
        flat = centered.reshape(-1)  # a view: the rows are contiguous
        np.copyto(centered, blk)
        absent = np.flatnonzero(~np.isfinite(blk))
        rows, bins = np.divmod(absent, m.shape[1])
        flat[absent] = 0.0
        row_counts = m.shape[1] - np.bincount(rows, minlength=len(blk))
        bin_counts -= np.bincount(bins, minlength=m.shape[1])
        row_means = np.divide(centered.sum(axis=1), row_counts, out=np.zeros(len(blk)),
                              where=row_counts > 0)
        centered -= row_means[:, None]
        flat[absent] = 0.0
        buf[0] = (centered if a == 0 else buf[:1 + len(blk)]).sum(axis=0)
    empty = np.flatnonzero(bin_counts == 0)
    if empty.size:
        raise EmptyInput(f"bin {int(empty[0])} is present in no period")
    return MeanCenteredProfile(values=buf[0] / bin_counts, n_periods=len(m))


def period_matrix(series, seg: Segmentation) -> np.ndarray:
    """The kept periods of a series as a (periods, S) matrix.

    The grid must be the one ``segment_trace`` builds on this series, every
    complete period from the phase on. With no period excluded the matrix
    is a read-only view of the series (which stays as writable as it was);
    otherwise the kept rows are gathered into a new array.
    """
    x = np.asarray(series, dtype=np.float64)
    if not seg.kept:
        raise EmptyInput("segmentation holds no usable periods")
    b0, n_periods = _first_bin(seg.s_star, seg.S), len(seg.excluded)
    fits = max(x.size - b0, 0) // seg.S
    if fits != n_periods:
        raise InvalidConfig(f"segmentation holds {n_periods} periods of {seg.S} bins from bin "
                            f"{b0}, but the series of {x.size} bins holds {fits}: it was "
                            "not made from this trace")
    grid = x[b0:b0 + n_periods * seg.S].reshape(n_periods, seg.S)
    if len(seg.kept) < n_periods:
        return grid[list(seg.kept)]
    grid.flags.writeable = False
    return grid


def profile_from_trace(
    trace: Trace,
    seg: Segmentation,
    column: str = "ul",
) -> MeanCenteredProfile:
    """Mean-centered within-period profile of one delay column."""
    series = trace.delay_ms(column)
    return mean_centered_profile(period_matrix(series, seg))
