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
import os
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


#: CPUs this process may use: the series passes and the mixture EM run one
#: thread per CPU (the numpy passes release the GIL).
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

#: Values from which ``map_spans`` splits a series. On a 2-core VM one
#: ``finite_median_count`` pass in two spans took 1.14x the time of one span
#: at 2**18 values, 1.17x at 2**19, 0.90x at 2**20, 0.77x at 2**21 and 0.71x
#: at 2**23: below 2**21 the threads cost more than the second CPU saves.
SPLIT_MIN = 1 << 21


def map_workers(fn: Callable, items) -> list:
    """``[fn(item) for item in items]`` on a pool of up to ``WORKERS`` threads
    made for the call, each under the caller's numpy error state (which is
    per thread); on the calling thread where one thread would do."""
    workers = min(WORKERS, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor
    err = np.geterr()

    def run(item):
        with np.errstate(**err):
            return fn(item)

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, items))


def map_spans(fn: Callable, size: int, scratch: Callable) -> list:
    """``fn(a, b, buffers)`` over contiguous spans [a, b) that cover
    range(size), in span order: one span per worker, cut at ``SELECT_BLOCK``
    multiples, from ``SPLIT_MIN`` values on, else one. ``scratch(n)`` makes
    the buffers of a span of blocks of at most n values on the calling
    thread, as what a worker allocates stays in its own malloc arena."""
    blocks = -(-size // SELECT_BLOCK)
    k = min(WORKERS, blocks) if size >= SPLIT_MIN else 1
    cuts = [min(size, blocks * i // k * SELECT_BLOCK) for i in range(k + 1)]
    return map_workers(lambda span: fn(*span), [(a, b, scratch(min(b - a, SELECT_BLOCK)))
                                                for a, b in zip(cuts, cuts[1:])])


def _diff_dtype(x: np.ndarray) -> type:
    """What ``x``'s differences are taken in: float64, or uint64 (modulo
    2**64) for integers."""
    return np.uint64 if x.dtype.kind in "iu" else np.float64


def diff_blocks(x, buf=None):
    """The first differences x[j+1] - x[j] of a 1-d column, ``SELECT_BLOCK``
    at a time, as (j0, block) pairs: block[i] is the difference at j0 + i.

    Each block is written into one buffer (``buf`` where one is given) that
    the next overwrites. Float columns are differenced in float64, so a
    difference spanning NaN is NaN. Integer differences are read modulo
    2**64 as uint64, which is exact for a non-decreasing column (send times
    more than 2**63 ns apart wrap in int64).
    """
    x = np.asarray(x).ravel()
    if buf is None:
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

    def values(d, buf=None):
        """The values ranked: the differences ``d``, or their deviations
        |d - center|, written into ``buf`` where one is given."""
        if center is None:
            return d
        dv = np.subtract(d, center, out=None if buf is None else buf[:d.size], dtype=np.float64)
        return np.abs(dv, out=dv)

    def scratch(n):
        """A span's differences, three masks, and an integer column's deviations."""
        return (np.empty(n, _diff_dtype(x)), np.empty((3, n), bool),
                None if _diff_dtype(x) is np.float64 else np.empty(n))

    def blocks(a, b, bufs):
        """The values ranked from difference a to b, a block at a time, with
        three masks of their size."""
        diff, masks, dev = bufs
        for _, d in diff_blocks(x[a:b + 1], diff):
            yield values(d, d if dev is None else dev), masks[:, :d.size]  # float: in place

    def count(a, b, bufs):
        """Of the values from difference a to b: how many are finite, -inf and
        at most lo, and those in (lo, hi), in order."""
        n = neg = at_lo = 0
        parts = []
        for v, (finite, le, m) in blocks(a, b, bufs):
            n += int(np.count_nonzero(np.isfinite(v, out=finite)))
            at_lo += int(np.count_nonzero(np.less_equal(v, lo, out=le)))
            if center is None:  # a deviation is never -inf
                neg += int(np.count_nonzero(np.greater(le, finite, out=m)))  # -inf: at or below lo
            parts.append(np.compress(np.greater(np.less(v, hi, out=m), le, out=m), v))
        return n, neg, at_lo, parts

    def count_ends(a, b, bufs):
        """How many of the values from difference a to b lie below lo and up to hi."""
        below = up_to_hi = 0
        for v, (m, _, _) in blocks(a, b, bufs):
            below += int(np.count_nonzero(np.less(v, lo, out=m)))
            up_to_hi += int(np.count_nonzero(np.less_equal(v, hi, out=m)))
        return below, up_to_hi

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
        # the spans' counts add, and their members join in span order
        n, neg, at_lo, parts = map(sum, zip(*map_spans(count, x.size - 1, scratch)), (0, 0, 0, []))
        if n == 0:
            return math.nan, 0
        k_lo = neg + (n - 1) // 2  # ranks -inf values first
        k_hi = k_lo + 1 - n % 2
        inside = np.concatenate(parts)
        at_hi = at_lo + inside.size  # ranks [at_lo, at_hi) are inside the bracket
        below, up_to_hi = at_lo, at_hi  # ranks [below, at_lo) hold lo, [at_hi, up_to_hi) hi
        if k_lo < at_lo or k_hi >= at_hi:
            below, up_to_hi = map(sum, zip(*map_spans(count_ends, x.size - 1, scratch)))
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
