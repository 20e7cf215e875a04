"""Small numeric helpers shared across modules.

No llab module imports scipy at load time. The normal law's CDF and
quantile come from ``scipy.special`` (cephes), imported on their first
call, so commands that never evaluate them never load scipy.
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
#: (4 sd of a middle rank in a random sample), values per counting-pass block.
SELECT_SAMPLE, SELECT_MARGIN, SELECT_BLOCK = 16_384, 256, 1 << 20


def finite_median(x) -> float:
    """``float(np.median(x[np.isfinite(x)]))`` exactly (but for the sign of a
    zero median where x holds both -0.0 and 0.0), with no full copy or sort
    of ``x``; NaN when no value is finite.

    Floyd and Rivest's selection (CACM 1975): a sorted strided sample
    brackets the middle rank(s); one pass in blocks counts the values below
    the bracket and gathers those inside it, and only those are partitioned.
    A bracket that misses a middle rank is widened on that side to the whole
    finite range and the pass repeated: a miss costs time, never exactness.
    """
    x = np.asarray(x).ravel()
    info = np.finfo(x.dtype) if x.dtype.kind == "f" else np.iinfo(x.dtype)
    n = int(np.count_nonzero(np.isfinite(x)))
    if n == 0:
        return math.nan
    sample = x[::max(1, x.size // SELECT_SAMPLE)]
    sample = np.sort(sample[np.isfinite(sample)])
    i = (n - 1) // 2 * sample.size // n - SELECT_MARGIN
    j = n // 2 * sample.size // n + SELECT_MARGIN
    lo, hi = sample[i] if i >= 0 else info.min, sample[j] if j < sample.size else info.max
    k_lo = int(np.count_nonzero(x < info.min)) + (n - 1) // 2  # ranks -inf values first
    k_hi = k_lo + 1 - n % 2
    while True:
        below, parts = 0, []
        for blk in np.split(x, range(SELECT_BLOCK, x.size, SELECT_BLOCK)):
            lt = blk < lo
            below += int(np.count_nonzero(lt))
            parts.append(blk[lt ^ (blk <= hi)])  # blk < lo implies blk <= hi
        inside = np.concatenate(parts)
        if below <= k_lo and below + inside.size > k_hi:
            break
        lo, hi = (info.min, hi) if below > k_lo else (lo, info.max)
    mid = sorted({k_lo - below, k_hi - below})
    inside.partition(mid)
    return float(np.mean(inside[mid]))


def bisect_increasing(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> float:
    """Smallest x in [lo, hi] with f(x) >= target, for non-decreasing f.

    Plain interval bisection; unlike a derivative-based or secant solver it
    converges on the jump location when f is a step function (empirical or
    point-mass CDFs).
    """
    if f(lo) >= target:
        return lo
    if f(hi) < target:
        raise ValueError("target not bracketed")
    for _ in range(max_iter):
        if hi - lo <= tol:
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
