"""Small numeric helpers shared across modules.

The exact median of the first differences of a large column
(``finite_median_count``) is a selection that streams the column in
cache-sized blocks, differencing each block into one reused buffer
(``diff_blocks``), one pass per bracket; neither the differences nor a
copy of them is ever made whole, where ``np.median(np.diff(x))`` would
make both.
"""

from __future__ import annotations

import math
import statistics
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


def _diff_dtype(x: np.ndarray) -> type:
    """What ``x``'s differences are taken in: float64, or uint64 (modulo
    2**64) for integers."""
    return np.uint64 if x.dtype.kind in "iu" else np.float64


def diff_blocks(x):
    """The first differences x[j+1] - x[j] of a 1-d column, ``SELECT_BLOCK``
    at a time, as (j0, block) pairs: block[i] is the difference at j0 + i.

    Each block is written into one buffer that the next overwrites. Float
    columns are differenced in float64, so a difference spanning NaN is
    NaN. Integer differences are read modulo 2**64 as uint64, which is
    exact for a non-decreasing column (send times more than 2**63 ns apart
    wrap in int64).
    """
    x = np.asarray(x).ravel()
    buf = np.empty(min(max(x.size - 1, 0), SELECT_BLOCK), dtype=_diff_dtype(x))
    for j0 in range(0, x.size - 1, SELECT_BLOCK):
        pair = x[j0:j0 + SELECT_BLOCK + 1]  # one sample of overlap with the next block
        yield j0, np.subtract(pair[1:], pair[:-1], out=buf[:pair.size - 1], dtype=buf.dtype,
                              casting="unsafe")


def finite_median_count(x, center=None) -> tuple[float, int]:
    """The median of the finite first differences d of ``x`` (as
    ``diff_blocks`` takes them), ``float(np.median(d[np.isfinite(d)]))``
    exactly (but for the sign of a zero median where d holds both -0.0 and
    0.0), with no full-size array of d, and the number of finite differences
    it is taken over; NaN and 0 when no difference is finite. With a
    ``center`` c it is the same median of the float64 deviations |d - c|.

    Floyd and Rivest's selection (CACM 1975): the middle ranks of a sorted
    strided sample of the differences bracket the median. One pass over
    ``diff_blocks`` counts the finite values, the -inf values and the values
    at or below the bracket, and gathers those strictly inside it; only
    those are partitioned, so ties at a bracket end (a constant input, say)
    are counted, never copied. Where a middle rank falls on a bracket end,
    a second pass counts the values below the bracket and those up to its
    top. With a center, each block's deviations overwrite its float64
    differences (an integer column's fill one float64 buffer). A bracket
    that misses a middle rank is widened on that side to the whole finite
    range and the pass repeated: a miss costs time, never exactness.
    """
    x = np.asarray(x).ravel()
    if x.size < 2:
        return math.nan, 0
    dev = None if _diff_dtype(x) is np.float64 else np.empty(min(x.size - 1, SELECT_BLOCK))

    def values(d, buf=None):
        """The values ranked: the differences ``d``, or their deviations
        |d - center|, written into ``buf`` where one is given."""
        if center is None:
            return d
        dv = np.subtract(d, center, out=None if buf is None else buf[:d.size], dtype=np.float64)
        return np.abs(dv, out=dv)

    def blocks():
        """The values ranked, ``SELECT_BLOCK`` at a time."""
        for _, d in diff_blocks(x):
            yield values(d, d if dev is None else dev)  # float deviations: in place

    step = max(1, (x.size - 1) // SELECT_SAMPLE)
    # the differences at 0, step, 2 * step, ...
    sample = values(np.subtract(x[1::step], x[:-1:step], dtype=_diff_dtype(x),
                                casting="unsafe"))
    info = np.finfo(sample.dtype) if sample.dtype.kind == "f" else np.iinfo(sample.dtype)
    sample = np.sort(sample[np.isfinite(sample)])
    i = (sample.size - 1) // 2 - SELECT_MARGIN
    j = sample.size // 2 + SELECT_MARGIN
    lo, hi = sample[i] if i >= 0 else info.min, sample[j] if j < sample.size else info.max
    while True:
        n = neg = at_lo = 0
        parts = []
        for v in blocks():
            finite, le = np.isfinite(v), v <= lo
            n += int(np.count_nonzero(finite))
            if center is None:  # a deviation is never -inf
                neg += int(np.count_nonzero(le > finite))  # -inf lies at or below lo
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
    """Standard normal CDF, elementwise: 0.5 erfc(-x / sqrt 2)."""
    if np.isscalar(x):
        return 0.5 * math.erfc(-x / _SQRT2)
    return np.asarray(_NDTR_EACH(x), dtype=np.float64)


def ndtri(q):
    """Standard normal quantile, elementwise: Wichura's AS241 (Appl. Stat.
    1988) as ``statistics.NormalDist.inv_cdf`` computes it, with cephes' edge
    values: -inf at 0, +inf at 1, NaN outside [0, 1] and at NaN."""
    if not np.isscalar(q):
        return np.asarray(_NDTRI_EACH(q), dtype=np.float64)
    if math.isnan(q) or not 0.0 <= q <= 1.0:  # no ordered comparison with NaN, which flags it
        return math.nan
    return _STANDARD_NORMAL.inv_cdf(q) if 0.0 < q < 1.0 else math.copysign(math.inf, q - 0.5)


_SQRT2, _STANDARD_NORMAL = math.sqrt(2.0), statistics.NormalDist()
# one Python call per element of an array, a third of np.vectorize's cost
_NDTR_EACH, _NDTRI_EACH = np.frompyfunc(ndtr, 1, 1), np.frompyfunc(ndtri, 1, 1)
