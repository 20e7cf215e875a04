"""Small numeric helpers shared across modules.

No llab module imports scipy at load time. The normal law's CDF and
quantile come from ``scipy.special`` (cephes), imported on their first
call, so commands that never evaluate them never load scipy.

The exact median of large arrays (``finite_median_count``) is a selection
that streams its input in cache-sized blocks, one pass per bracket, and
makes no full-size temporary; ``np.median`` would copy and partition the
whole array.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


def frozen(arr, dtype=np.float64) -> np.ndarray:
    """``arr`` as a read-only C-contiguous ``dtype`` array, copied where it
    must be and never by freezing the caller's own array."""
    a = np.asarray(arr)
    if a.dtype == dtype and a.flags.c_contiguous and not a.flags.writeable:
        return a
    out = np.ascontiguousarray(a, dtype=dtype)
    if out is a:
        out = a.copy()
    out.flags.writeable = False
    return out


#: Strided sample size, sample ranks the bracket reaches past the middle ones
#: (4 sd of a middle rank in a random sample), values per pass block (512 KB
#: of float64, so a block and its temporaries stay in L2).
SELECT_SAMPLE, SELECT_MARGIN, SELECT_BLOCK = 16_384, 256, 1 << 16


def finite_median_count(x, center=None) -> tuple[float, int]:
    """``float(np.median(x[np.isfinite(x)]))`` exactly (but for the sign of a
    zero median where x holds both -0.0 and 0.0), with no full copy or sort
    of ``x``, and the number of finite values it is taken over; NaN and 0
    when no value is finite. With a ``center`` c it is the same median of
    the float64 deviations |x - c|, and those are never stored whole either.

    Floyd and Rivest's selection (CACM 1975): the middle ranks of a sorted
    strided sample bracket the median. One pass in blocks of
    ``SELECT_BLOCK`` values counts the finite values, the -inf values and
    the values at or below the bracket, and gathers those strictly inside
    it; only those are partitioned, so ties at a bracket end (a constant
    input, say) are counted, never copied. Where a middle rank falls on a
    bracket end, a second pass counts the values below the bracket and
    those up to its top. With a center, each block's deviations are
    computed into one reused buffer first. A bracket that misses a middle
    rank is widened on that side to the whole finite range and the pass
    repeated: a miss costs time, never exactness.
    """
    x = np.asarray(x).ravel()

    def values(v, out=None):
        """The values ranked: ``v`` itself, or |v - center| written to ``out``."""
        if center is None:
            return v
        d = np.subtract(v, center, out=out, dtype=np.float64)
        return np.abs(d, out=d)

    def blocks():
        """The values ranked, ``SELECT_BLOCK`` at a time."""
        for start in range(0, x.size, SELECT_BLOCK):
            blk = x[start:start + SELECT_BLOCK]
            yield values(blk, buf[:blk.size])

    sample = values(x[::max(1, x.size // SELECT_SAMPLE)])
    info = np.finfo(sample.dtype) if sample.dtype.kind == "f" else np.iinfo(sample.dtype)
    sample = np.sort(sample[np.isfinite(sample)])
    buf = np.empty(min(x.size, SELECT_BLOCK))  # a block's deviations, when centered
    i = (sample.size - 1) // 2 - SELECT_MARGIN
    j = sample.size // 2 + SELECT_MARGIN
    lo, hi = sample[i] if i >= 0 else info.min, sample[j] if j < sample.size else info.max
    while True:
        n = neg = at_lo = 0
        parts = []
        for v in blocks():
            n += int(np.count_nonzero(np.isfinite(v)))
            neg += int(np.count_nonzero(v < info.min))
            le = v <= lo
            at_lo += int(np.count_nonzero(le))
            parts.append(np.compress((v < hi) > le, v))  # lo < v < hi
        if n == 0:
            return math.nan, 0
        k_lo = neg + (n - 1) // 2  # ranks -inf values first
        k_hi = k_lo + 1 - n % 2
        inside = np.concatenate(parts)
        at_hi = at_lo + inside.size  # ranks [at_lo, at_hi) are inside the bracket
        below, up_to_hi = at_lo, at_hi  # ranks [below, at_lo) hold lo, [at_hi, up_to_hi) hi
        if k_lo < at_lo or k_hi >= at_hi:
            below = up_to_hi = 0
            for v in blocks():
                below += int(np.count_nonzero(v < lo))
                up_to_hi += int(np.count_nonzero(v <= hi))
        if below <= k_lo and k_hi < up_to_hi:
            break
        lo, hi = (info.min, hi) if below > k_lo else (lo, info.max)
    ranks = sorted({k_lo, k_hi})
    mid = [k - at_lo for k in ranks if at_lo <= k < at_hi]
    if mid:
        inside.partition(mid)
    pick = [lo if k < at_lo else hi if k >= at_hi else inside[k - at_lo] for k in ranks]
    return float(np.mean(np.array(pick, dtype=inside.dtype))), n


#: Width at which ``bisect_increasing`` stops, and its most halvings.
BISECT_TOL, BISECT_MAX_ITER = 1e-9, 200


def bisect_increasing(f: Callable[[float], float], target: float, lo: float,
                      hi: float) -> float:
    """Smallest x >= lo with f(x) >= target, for non-decreasing f, to within
    ``BISECT_TOL``; ``hi`` is a first guess at an upper end, and the bracket
    doubles its width from ``lo`` until f(hi) reaches the target.

    Plain interval bisection; unlike a derivative-based or secant solver it
    converges on the jump location when f is a step function (empirical or
    point-mass CDFs).
    """
    if f(lo) >= target:
        return lo
    while f(hi) < target:
        hi = lo + 2.0 * (hi - lo)
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def ndtr(x):
    """Standard normal CDF, elementwise: ``scipy.special.ndtr``."""
    from scipy.special import ndtr as cephes_ndtr
    return cephes_ndtr(x)


def ndtri(q):
    """Standard normal quantile, elementwise: ``scipy.special.ndtri``."""
    from scipy.special import ndtri as cephes_ndtri
    return cephes_ndtri(q)
