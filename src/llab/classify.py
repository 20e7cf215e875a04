"""Period classification, precision-recall machinery, and availability scoring.

A period is Good when at least 99% of its stable-core bins meet the latency
target (a lost bin never meets it). Detectors score periods by the modeled
probability of exceeding the target, so higher scores mean more likely
Degraded; thresholds on that score trade recall against false alarms, and
the discounted availability folds the detection quality and the time spent
measuring into a single number a capacity planner can use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DEGRADED, GOOD, MEET_FRACTION_GOOD
from .errors import (
    EmptyInput,
    InvalidRange,
    InvalidWindow,
    LlabError,
    OutOfTailRegion,
    SingleClass,
    TooFew,
)
from .stats import empirical_quantile, fit_rows

#: Fewest stable-core bins a period is labeled from.
MIN_LABEL_BINS = 100


@dataclass(frozen=True)
class PeriodLabel:
    label: str
    meet_fraction: float
    n_bins: int
    n_lost: int


def label_period(core_values_ms, lt_ms: float) -> PeriodLabel:
    """Label one period from its stable-core latencies (NaN marks loss)."""
    v = np.asarray(core_values_ms, dtype=np.float64).ravel()
    if v.size < MIN_LABEL_BINS:
        raise TooFew(f"need at least {MIN_LABEL_BINS} bins to label, got {v.size}")
    frac = int(np.count_nonzero(v <= lt_ms)) / v.size  # NaN compares False, and quietly
    label = GOOD if frac >= MEET_FRACTION_GOOD else DEGRADED
    return PeriodLabel(label=label, meet_fraction=frac, n_bins=v.size,
                       n_lost=int(np.count_nonzero(np.isnan(v))))


def _pos_mask(labels) -> np.ndarray:
    lab = np.asarray(labels, dtype=str)
    pos = lab == DEGRADED
    unknown = ~pos & (lab != GOOD)
    if unknown.any():
        raise ValueError(f"unknown label {str(lab[unknown][0])!r}")
    return pos


def _tie_sweep(s: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower the threshold from the top score one run of tied scores at a time.

    Returns, per step, the threshold, the true positives and the number of
    predicted positives at that threshold.
    """
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    # group score ties: keep only the last index of each run of equal scores
    ends = np.nonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))[0]
    return s_sorted[ends], np.cumsum(pos[order])[ends], ends + 1


def auprc(scores, labels) -> float:
    """Area under the precision-recall curve, Degraded the positive class.

    The curve starts at the conventional anchor (recall 0, precision 1) and
    steps through the distinct score values, ties grouped; the area is the
    trapezoid sum over those points.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    if s.size == 0:
        raise EmptyInput("no scores")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    pos = _pos_mask(labels)
    if pos.size != s.size:
        raise ValueError("scores and labels length mismatch")
    n_pos = int(pos.sum())
    if n_pos == 0 or n_pos == pos.size:
        raise SingleClass("both classes are required for a PR curve")

    _, tp, predicted = _tie_sweep(s, pos)
    r = np.concatenate(([0.0], tp / n_pos))
    p = np.concatenate(([1.0], tp / predicted))
    return float(np.sum((r[1:] - r[:-1]) * (p[1:] + p[:-1]) * 0.5))


def _threshold_at_fpr(scores: np.ndarray, pos: np.ndarray, max_fpr: float) -> float:
    """Lowest score threshold whose false-positive rate stays within max_fpr.

    A score at or above the threshold predicts Degraded. Lower thresholds
    catch more Degraded periods, so the best feasible choice is the smallest
    one. When even the strictest finite threshold overshoots the cap, +inf
    is returned (predict nothing Degraded), which trivially has zero false
    positives.
    """
    n_neg = pos.size - int(pos.sum())
    if n_neg == 0 or n_neg == pos.size:
        raise SingleClass("both classes are required to place a threshold")
    thresholds, tp, predicted = _tie_sweep(scores, pos)
    feasible = np.nonzero((predicted - tp) / n_neg <= max_fpr)[0]
    # fpr grows as the threshold drops, so take the last feasible step
    return float(thresholds[feasible[-1]]) if feasible.size else math.inf


def service_availability(labels) -> float:
    """Fraction of periods labeled Good."""
    if len(labels) == 0:
        raise EmptyInput("no period labels")
    pos = _pos_mask(labels)
    return float(np.count_nonzero(~pos)) / pos.size


def discounted_availability(sa: float, tpr: float, window_ms: float,
                            period_ms: float) -> float:
    """Availability discounted by measurement time and detector recall.

    A period only counts when the detector would pass it and the fraction
    of it left after the measurement window is still usable, so the result
    never exceeds the plain availability.
    """
    if not 0.0 <= sa <= 1.0:
        raise InvalidRange(f"sa must lie in [0, 1], got {sa}")
    if not 0.0 <= tpr <= 1.0:
        raise InvalidRange(f"tpr must lie in [0, 1], got {tpr}")
    if not 0.0 <= window_ms <= period_ms:
        raise InvalidRange(f"window must lie in [0, {period_ms}] ms, got {window_ms}")
    return sa * (period_ms - window_ms) / period_ms * tpr


# -- windowed evaluation ---------------------------------------------------------


def window_bins(w_ms: float, dt_ms: float, n_core: int) -> int:
    """Number of leading core bins inside a w-millisecond window."""
    n = int(round(w_ms / dt_ms))
    if n < 1 or n > n_core:
        raise InvalidWindow(f"window {w_ms} ms maps to {n} of {n_core} core bins")
    return n


@dataclass(frozen=True)
class FitGrid:
    """Each family's answers per (window, period), fitted once and shared by
    the quantile, ranking and availability evaluations.

    ``p99``, ``exceedance`` and ``unconverged`` map a family name to a
    (windows, periods) array. ``p99`` is the fitted model's
    ``MEET_FRACTION_GOOD`` quantile, NaN where the fit failed or that level
    lies outside a tail fit (``OutOfTailRegion``). ``exceedance`` is the
    modeled probability of exceeding ``lt_ms``, NaN where the fit failed.
    ``unconverged`` is True for a fitted cell whose ``fit_meta.converged``
    is False.
    """

    windows_ms: tuple[float, ...]
    model_names: tuple[str, ...]
    n_periods: int
    lt_ms: float
    p99: dict = field(repr=False)
    exceedance: dict = field(repr=False)
    unconverged: dict = field(repr=False)


def fit_grid(core, dt_ms: float, windows_ms, model_names, lt_ms: float,
             seed: int = 0) -> FitGrid:
    """Fit every model family to every window prefix of every period.

    ``core`` is the (periods, core bins) latency matrix in ms with NaN for
    lost bins. Fits use only the finite values inside the window. Each
    (family, window) is fitted for all periods at once (``stats.fit_rows``),
    asked for its p99 and its exceedance at ``lt_ms``, and dropped. Seeds
    are derived from the period and the window's bin count, so a cell does
    not depend on which other cells the grid holds.
    """
    mat = np.asarray(core, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise EmptyInput("core matrix must be 2-D and non-empty")
    if math.isnan(lt_ms):  # its exceedance would read as a failed fit
        raise InvalidRange("latency target must be a number, got nan")
    names = tuple(model_names)
    windows = tuple(float(w) for w in windows_ms)
    n_p, n_core = mat.shape
    bins = [window_bins(w, dt_ms, n_core) for w in windows]

    shape = (len(windows), n_p)
    p99 = {name: np.full(shape, np.nan) for name in names}
    exceedance = {name: np.full(shape, np.nan) for name in names}
    unconverged = {name: np.zeros(shape, dtype=bool) for name in names}
    for name in names:
        for wi, nb in enumerate(bins):
            q, e, u = p99[name][wi], exceedance[name][wi], unconverged[name][wi]
            seeds = [seed + 100003 * nb + p for p in range(n_p)]
            for p, model in enumerate(fit_rows(name, mat[:, :nb], seeds)):
                if isinstance(model, LlabError):
                    continue
                e[p] = model.exceedance(lt_ms)
                u[p] = not model.fit_meta.converged
                try:
                    q[p] = model.quantile(MEET_FRACTION_GOOD)
                except OutOfTailRegion:
                    pass
    return FitGrid(windows_ms=windows, model_names=names, n_periods=n_p, lt_ms=float(lt_ms),
                   p99=p99, exceedance=exceedance, unconverged=unconverged)


@dataclass(frozen=True)
class WindowScore:
    """Quantile error at one window.

    ``n_fitted`` periods were scored and ``n_skipped`` were not. Of the
    cells the grid fitted, ``n_unconverged`` have ``fit_meta.converged``
    False: EM fits that hit ``stats.GMM_MAX_ITER``, tail fits that fell
    back to probability-weighted moments.
    """

    w_ms: float
    mse_ms2: float | None
    n_fitted: int
    n_skipped: int
    n_unconverged: int


def quantile_mse_from_grid(grid: FitGrid, core) -> dict:
    """Mean squared error of each model's p99 against the realized one.

    The realized value is the empirical ``MEET_FRACTION_GOOD`` quantile of
    the period's full stable core; predictions are the grid's ``p99``, from
    fits on window prefixes. Periods whose ``p99`` is NaN (failed fit, or a
    tail level outside the fitted region) are skipped and counted.
    """
    truths = np.array([empirical_quantile(row, MEET_FRACTION_GOOD)
                       for row in np.asarray(core, dtype=np.float64)])
    out: dict = {}
    for name in grid.model_names:
        sq = np.square(grid.p99[name] - truths)  # x*x, correctly rounded
        scores = []
        for w, e, u in zip(grid.windows_ms, sq, grid.unconverged[name]):
            e = e[~np.isnan(e)]
            scores.append(WindowScore(w_ms=w, mse_ms2=float(np.mean(e)) if e.size else None,
                                      n_fitted=e.size, n_skipped=grid.n_periods - e.size,
                                      n_unconverged=int(np.count_nonzero(u))))
        out[name] = scores
    return out


@dataclass(frozen=True)
class AuprcPoint:
    w_ms: float
    auprc: float | None
    n_scored: int


def auprc_from_grid(grid: FitGrid, labels) -> dict:
    """Ranking quality of each model's exceedance score per window, over the
    periods whose ``exceedance`` is not NaN (the fitted ones)."""
    if len(labels) != grid.n_periods:
        raise ValueError("labels must align with grid periods")
    labs = np.asarray(labels, dtype=str)
    out: dict = {}
    for name in grid.model_names:
        points = []
        for w, s in zip(grid.windows_ms, grid.exceedance[name]):
            scored = ~np.isnan(s)
            try:
                area = auprc(s[scored], labs[scored])
            except (EmptyInput, SingleClass):
                area = None
            points.append(AuprcPoint(w_ms=w, auprc=area, n_scored=int(np.count_nonzero(scored))))
        out[name] = points
    return out


@dataclass(frozen=True)
class DsaPoint:
    max_fpr: float
    threshold: float
    w_ms: float
    sa: float
    tpr: float
    fpr: float
    dsa: float
    n_calibrate: int
    n_evaluate: int


def dsa_eval(core, labels, dt_ms: float, w_ms: float, model_name: str,
             lt_ms: float, max_fprs, period_ms: float, seed: int = 0) -> list[DsaPoint]:
    """Calibrated discounted availability at each false-positive cap.

    Periods are split chronologically: thresholds are placed on the first
    half and every reported rate (and the availability they discount) is
    realized on the second half, so the numbers estimate forward-looking
    operation rather than in-sample fit.
    """
    mat = np.asarray(core, dtype=np.float64)
    n_p = mat.shape[0]
    if len(labels) != n_p:
        raise ValueError("labels must align with core periods")
    if n_p < 4:
        raise TooFew("need at least 4 periods to calibrate and evaluate")

    for cap in max_fprs:
        if not 0.0 <= cap <= 1.0:  # nan fails the range too
            raise InvalidRange(f"false-positive cap must lie in [0, 1], got {cap}")
    pos = _pos_mask(labels)
    scores = fit_grid(mat, dt_ms, [w_ms], [model_name], lt_ms, seed).exceedance[model_name][0]
    first_half = np.arange(n_p) < n_p // 2
    cal, ev = ~np.isnan(scores) & first_half, ~np.isnan(scores) & ~first_half
    n_cal, n_ev = int(np.count_nonzero(cal)), int(np.count_nonzero(ev))
    if not n_cal or not n_ev:
        raise TooFew("every fit failed in one of the halves")
    cal_s, cal_pos, ev_s, ev_pos = scores[cal], pos[cal], scores[ev], pos[ev]
    n_pos = int(np.count_nonzero(ev_pos))
    n_neg = n_ev - n_pos
    sa = n_neg / n_ev

    points = []
    for cap in max_fprs:
        threshold = _threshold_at_fpr(cal_s, cal_pos, cap)
        predicted = ev_s >= threshold
        tp = int(np.count_nonzero(predicted & ev_pos))
        fp = int(np.count_nonzero(predicted)) - tp
        tpr = tp / n_pos if n_pos else 0.0
        points.append(DsaPoint(
            max_fpr=float(cap), threshold=threshold, w_ms=float(w_ms),
            sa=sa, tpr=tpr, fpr=fp / n_neg if n_neg else 0.0,
            dsa=discounted_availability(sa, tpr, w_ms, period_ms),
            n_calibrate=n_cal, n_evaluate=n_ev,
        ))
    return points
