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
    the values below the bracket, and gathers those inside it; only those
    are partitioned. With a center, each block's deviations are computed
    into one reused buffer first. A bracket that misses a middle rank is
    widened on that side to the whole finite range and the pass repeated: a
    miss costs time, never exactness.
    """
    x = np.asarray(x).ravel()

    def values(v, out=None):
        """The values ranked: ``v`` itself, or |v - center| written to ``out``."""
        if center is None:
            return v
        d = np.subtract(v, center, out=out, dtype=np.float64)
        return np.abs(d, out=d)

    sample = values(x[::max(1, x.size // SELECT_SAMPLE)])
    info = np.finfo(sample.dtype) if sample.dtype.kind == "f" else np.iinfo(sample.dtype)
    sample = np.sort(sample[np.isfinite(sample)])
    buf = np.empty(min(x.size, SELECT_BLOCK))  # a block's deviations, when centered
    i = (sample.size - 1) // 2 - SELECT_MARGIN
    j = sample.size // 2 + SELECT_MARGIN
    lo, hi = sample[i] if i >= 0 else info.min, sample[j] if j < sample.size else info.max
    while True:
        n = neg = below = 0
        parts = []
        for start in range(0, x.size, SELECT_BLOCK):
            blk = x[start:start + SELECT_BLOCK]
            v = values(blk, buf[:blk.size])
            n += int(np.count_nonzero(np.isfinite(v)))
            neg += int(np.count_nonzero(v < info.min))
            lt = v < lo
            below += int(np.count_nonzero(lt))
            parts.append(np.compress(lt ^ (v <= hi), v))  # v < lo implies v <= hi
        if n == 0:
            return math.nan, 0
        k_lo = neg + (n - 1) // 2  # ranks -inf values first
        k_hi = k_lo + 1 - n % 2
        inside = np.concatenate(parts)
        if below <= k_lo and below + inside.size > k_hi:
            break
        lo, hi = (info.min, hi) if below > k_lo else (lo, info.max)
    mid = sorted({k_lo - below, k_hi - below})
    inside.partition(mid)
    return float(np.mean(inside[mid])), n


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
