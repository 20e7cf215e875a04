"""Phase detection and period segmentation of a latency series.

The link reconfigures on a fixed schedule: every period of S bins opens
with a latency spike and a new mean level. Segmentation recovers the
within-period phase of those boundaries from nothing but the latency
series, then slices the trace into aligned periods:

1. first differences of the series (gaps stay absent),
2. a robust threshold (median + c scaled MADs) marks upward jumps,
3. jump candidates thinned so survivors are at least a period apart,
4. a histogram of candidate positions modulo S,
5. a weighted circular mean around the histogram peak refines the phase.

Sample position stands in for time throughout: traces keep lost probes as
placeholder rows, so bin index i is the probe sent at t0 + i*dt.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from .core import Trace
from .errors import (
    EmptyHistogram,
    EmptyInput,
    InvalidConfig,
    InvalidWindow,
    NoCompletePeriod,
    TooShort,
)

#: Consistency factor making the MAD estimate sigma for Gaussian data.
MAD_SCALE = 1.4826

#: Boundary windows excised from every period to leave its stable core: the
#: handover spike after the period start and the ramp before its end.
HEAD_EXCISE_MS = 140.0
TAIL_EXCISE_MS = 75.0

#: Jump threshold scale, in scaled MADs above the median difference.
JUMP_THRESHOLD_C = 8.0
#: Width of the histogram window the phase refinement averages over.
REFINE_TOP_K_BINS = 5


@dataclass(frozen=True)
class SegmentationConfig:
    """Tuning for phase detection and period slicing.

    ``c`` scales the jump threshold in units of scaled MAD above the median
    difference. The excision windows cut the boundary spike out of each
    period: the head window from the period start, the tail window before
    the period end, both rounded outward to whole bins. Periods losing more
    than ``max_core_loss`` of their stable-core samples are flagged and kept
    out of profile averaging.
    """

    S: int = 7500
    c: float = JUMP_THRESHOLD_C
    top_k_bins: int = REFINE_TOP_K_BINS
    head_excise_ms: float = HEAD_EXCISE_MS
    tail_excise_ms: float = TAIL_EXCISE_MS
    max_core_loss: float = 0.05

    def __post_init__(self) -> None:
        if self.S < 2:
            raise InvalidConfig("S must be >= 2")
        if self.c <= 0:
            raise InvalidConfig("c must be > 0")
        if self.top_k_bins < 1 or self.top_k_bins % 2 == 0 or self.top_k_bins > self.S:
            raise InvalidConfig("top_k_bins must be odd, >= 1, and <= S")
        if self.head_excise_ms < 0 or self.tail_excise_ms < 0:
            raise InvalidConfig("excision windows must be >= 0")
        if not 0.0 <= self.max_core_loss <= 1.0:
            raise InvalidConfig("max_core_loss must be in [0, 1]")


# -- edge detection ----------------------------------------------------------


def diff_series(series) -> np.ndarray:
    """First differences; entry j is series[j+1] - series[j].

    Differences spanning an absent sample are NaN. Requires at least two
    present samples.
    """
    x = np.asarray(series, dtype=np.float64)
    if int(np.isfinite(x).sum()) < 2:
        raise TooShort("need at least 2 present samples to difference")
    return x[1:] - x[:-1]


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


def robust_threshold(diffs, c: float = JUMP_THRESHOLD_C) -> ThresholdEstimate:
    """Threshold for upward jumps: median + c * 1.4826 * MAD of the diffs.

    ``c = 0`` returns the median itself. Needs at least 100 present
    differences for the scale estimate to mean anything.
    """
    x = np.asarray(diffs, dtype=np.float64)
    x = x[np.isfinite(x)]
    if x.size < 100:
        raise TooShort(f"need >= 100 present differences, got {x.size}")
    if c < 0:
        raise InvalidConfig("c must be >= 0")
    med = float(np.median(x))
    dev = np.abs(x - med)
    mad = float(np.median(dev))
    if c == 0:
        return ThresholdEstimate(theta=med, median=med, mad=mad, degenerate=(mad == 0))
    if mad > 0:
        return ThresholdEstimate(theta=med + c * MAD_SCALE * mad, median=med, mad=mad)
    pos = dev[dev > 0]
    theta = med if pos.size == 0 else med + 0.5 * float(pos.min())
    return ThresholdEstimate(theta=theta, median=med, mad=0.0, degenerate=True)


def detect_edges(diffs, theta: float, min_spacing: int) -> np.ndarray:
    """Indices where diffs exceed theta, thinned to a minimum spacing.

    Among candidates closer than ``min_spacing`` the largest difference
    wins, ties going to the earliest index. Returned sorted ascending.
    """
    if min_spacing < 1:
        raise InvalidConfig("min_spacing must be >= 1")
    x = np.asarray(diffs, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        cand = np.flatnonzero(x > theta)
    if cand.size == 0:
        return np.empty(0, dtype=np.int64)
    # largest first, earliest first among ties
    order = np.lexsort((cand, -x[cand]))
    accepted: list[int] = []
    for i in order:
        c = int(cand[i])
        j = bisect_left(accepted, c)
        if j > 0 and c - accepted[j - 1] < min_spacing:
            continue
        if j < len(accepted) and accepted[j] - c < min_spacing:
            continue
        insort(accepted, c)
    return np.asarray(accepted, dtype=np.int64)


def phase_histogram(candidates, S: int) -> np.ndarray:
    """Counts of candidate bin indices folded modulo the period length."""
    if S < 1:
        raise InvalidConfig("S must be >= 1")
    cand = np.asarray(candidates, dtype=np.int64)
    if cand.size == 0:
        return np.zeros(S, dtype=np.int64)
    return np.bincount(cand % S, minlength=S).astype(np.int64)


def refine_phase(histogram, top_k_bins: int = REFINE_TOP_K_BINS) -> float:
    """Sub-bin phase: weighted circular mean around the histogram peak.

    The window is the ``top_k_bins`` contiguous bins centered on the argmax
    (ties resolved to the smallest index). Offsets are taken relative to the
    peak so a symmetric window returns the peak exactly; wraparound across
    bin S-1/0 is handled by the circular mean.
    """
    h = np.asarray(histogram, dtype=np.float64)
    S = h.size
    if S < 1:
        raise InvalidConfig("histogram is empty")
    if top_k_bins < 1 or top_k_bins % 2 == 0 or top_k_bins > S:
        raise InvalidConfig("top_k_bins must be odd, >= 1, and <= S")
    if not np.any(h > 0):
        raise EmptyHistogram("no candidates to refine")
    s0 = int(np.argmax(h))
    half = top_k_bins // 2
    d = np.arange(-half, half + 1)
    w = h[(s0 + d) % S]
    if w[d != 0].sum() == 0:
        return float(s0)
    ang = 2.0 * np.pi * d / S
    x = float(np.dot(w, np.cos(ang)))
    y = float(np.dot(w, np.sin(ang)))
    if x == 0.0 and y == 0.0:
        return float(s0)
    offset = math.atan2(y, x) * S / (2.0 * np.pi)
    return float((s0 + offset) % S)


@dataclass(frozen=True)
class PhaseDetection:
    """Everything the phase pipeline produced for one series."""

    s_star: float
    histogram: np.ndarray
    threshold: ThresholdEstimate
    candidates: np.ndarray


def detect_phase(series, config: SegmentationConfig | None = None) -> PhaseDetection:
    """Run the full phase pipeline on a latency series (ms, NaN = absent).

    Edge candidates are found on the difference series and shifted by one so
    they index the first bin of the new level, i.e. the period start.
    """
    cfg = config or SegmentationConfig()
    diffs = diff_series(series)
    thr = robust_threshold(diffs, cfg.c)
    edges = detect_edges(diffs, thr.theta, cfg.S)
    candidates = edges + 1
    hist = phase_histogram(candidates, cfg.S)
    s_star = refine_phase(hist, cfg.top_k_bins)
    return PhaseDetection(s_star=s_star, histogram=hist, threshold=thr, candidates=candidates)


# -- period slicing -----------------------------------------------------------


@dataclass(frozen=True)
class PeriodSlice:
    """Half-open bin range [start_bin, end_bin) of one complete period."""

    p: int
    start_bin: int
    end_bin: int
    excluded: bool = False


@dataclass(frozen=True)
class Segmentation:
    """Phase plus the complete-period slices it induces on one trace.

    ``core_bins`` is the within-period bin range [lo, hi) left after
    boundary excision; every consumer of the stable core slices with it.
    """

    s_star: float
    S: int
    periods: tuple[PeriodSlice, ...]
    core_bins: tuple[int, int]
    histogram: np.ndarray | None = None

    @property
    def kept(self) -> tuple[PeriodSlice, ...]:
        return tuple(s for s in self.periods if not s.excluded)

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
                "periods": [
                    {
                        "p": sl.p,
                        "start_bin": sl.start_bin,
                        "end_bin": sl.end_bin,
                        "excluded": sl.excluded,
                    }
                    for sl in self.periods
                ],
                "histogram_nonzero": nonzero,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Segmentation":
        obj = json.loads(text)
        S = int(obj["S"])
        if "core_bins" not in obj:
            raise InvalidConfig("segmentation holds no core_bins; segment the trace again")
        lo, hi = (int(b) for b in obj["core_bins"])
        if not 0 <= lo < hi <= S:
            raise InvalidConfig(f"core_bins [{lo}, {hi}) do not lie inside a period of {S}")
        hist = None
        if obj.get("histogram_nonzero"):
            hist = np.zeros(S, dtype=np.int64)
            for k, v in obj["histogram_nonzero"].items():
                hist[int(k)] = int(v)
        return cls(
            s_star=float(obj["s_star"]),
            S=S,
            periods=tuple(
                PeriodSlice(int(p["p"]), int(p["start_bin"]), int(p["end_bin"]),
                            bool(p["excluded"]))
                for p in obj["periods"]
            ),
            core_bins=(lo, hi),
            histogram=hist,
        )


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


def stable_core(period_values, dt_ms: float, head_ms: float = HEAD_EXCISE_MS,
                tail_ms: float = TAIL_EXCISE_MS) -> np.ndarray:
    """Slice of one period's values with both boundary windows excised."""
    x = np.asarray(period_values)
    lo, hi = core_bounds(x.shape[-1], dt_ms, head_ms, tail_ms)
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
    ``max_core_loss`` of their stable core are flagged ``excluded``.
    """
    cfg = config or SegmentationConfig()
    S = cfg.S
    if not 0.0 <= s_star < S:
        raise InvalidConfig("s_star must lie in [0, S)")
    n = len(trace)
    b0 = math.ceil(s_star - 1e-9)
    n_periods = (n - b0) // S
    if n_periods <= 0:
        raise NoCompletePeriod(f"{n} bins hold no complete period of {S} at phase {s_star:.1f}")
    dt_ms = trace.dt_nominal / 1e6
    lo, hi = core_bounds(S, dt_ms, cfg.head_excise_ms, cfg.tail_excise_ms)
    lost = trace.lost
    slices = []
    for p in range(n_periods):
        start = b0 + p * S
        core_lost = float(np.count_nonzero(lost[start + lo:start + hi])) / (hi - lo)
        slices.append(
            PeriodSlice(p=p, start_bin=start, end_bin=start + S,
                        excluded=core_lost > cfg.max_core_loss)
        )
    return Segmentation(s_star=float(s_star), S=S, periods=tuple(slices), core_bins=(lo, hi),
                        histogram=histogram)


# -- per-bin profile ----------------------------------------------------------


@dataclass(frozen=True)
class MeanCenteredProfile:
    """Average within-period shape after removing each period's own mean."""

    values: np.ndarray
    n_periods: int

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def to_csv(self) -> str:
        lines = ["s,ms"]
        lines += [f"{s},{float(v)!r}" for s, v in enumerate(self.values)]
        lines.append("")
        return "\n".join(lines)


def mean_centered_profile(period_matrix) -> MeanCenteredProfile:
    """Per-bin average of mean-centered periods.

    Rows are periods, columns within-period bins; NaN marks absent samples.
    Each row is centered on its own mean over present bins, then bins are
    averaged over the periods where they are present.
    """
    m = np.asarray(period_matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise EmptyInput("need at least one period")
    present = np.isfinite(m)
    row_counts = present.sum(axis=1)
    row_sums = np.where(present, m, 0.0).sum(axis=1)
    row_means = np.divide(row_sums, row_counts, out=np.zeros_like(row_sums),
                          where=row_counts > 0)
    centered = np.where(present, m - row_means[:, None], 0.0)
    bin_counts = present.sum(axis=0)
    empty = np.flatnonzero(bin_counts == 0)
    if empty.size:
        raise EmptyInput(f"bin {int(empty[0])} is present in no period")
    profile = centered.sum(axis=0) / bin_counts
    return MeanCenteredProfile(values=profile, n_periods=int(m.shape[0]))


def period_matrix(series, seg: Segmentation) -> np.ndarray:
    """Stack the kept period slices of a series into a (periods, S) matrix."""
    x = np.asarray(series, dtype=np.float64)
    slices = seg.kept
    if not slices:
        raise EmptyInput("segmentation holds no usable periods")
    starts = np.asarray([sl.start_bin for sl in slices], dtype=np.int64)
    if int(starts.max()) + seg.S > x.size:
        raise InvalidConfig("series shorter than the segmentation that indexes it")
    idx = starts[:, None] + np.arange(seg.S)[None, :]
    return x[idx]


def profile_from_trace(
    trace: Trace,
    seg: Segmentation,
    column: str = "ul",
) -> MeanCenteredProfile:
    """Mean-centered within-period profile of one delay column."""
    series = trace.delay_ms(column)
    return mean_centered_profile(period_matrix(series, seg))
