"""Small numeric helpers shared across modules.

Every pass over a long series is a function of one block and its scratch
that ``map_blocks`` runs, a contiguous span of blocks per CPU: it alone
knows the block size and where a series splits. The exact median of a
column's first differences (``finite_median_count``) is one such pass per
bracket over differences taken a block at a time (``block_diffs``), never
made whole as ``np.median(np.diff(x))`` makes them and a copy of them.
"""

from __future__ import annotations

import collections
import math
import os
import statistics
from typing import Callable, Iterator

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

#: Values from which ``map_blocks`` splits a series. On a 2-core VM one
#: ``finite_median_count`` pass in two spans took 1.14x the time of one span
#: at 2**18 values, 1.17x at 2**19, 0.90x at 2**20, 0.77x at 2**21 and 0.71x
#: at 2**23: below 2**21 the threads cost more than the second CPU saves.
SPLIT_MIN = 1 << 21


def map_workers(fn: Callable, items, most: int | None = None,
                scratch: Callable | None = None) -> Iterator:
    """``fn(item)`` for each of the sized ``items``, handed back in item order
    as they are iterated: on a pool of up to ``WORKERS`` threads (and up to
    ``most``) made for the call, each under the caller's numpy error state
    (which is per thread); on the calling thread, one item at a time, where
    one thread would do. The pool ends with the iteration: close an iterator
    left unfinished.

    An item is submitted only when the caller asks for the result after the
    one it was handling, so at most one item a thread is in flight. With
    ``scratch``, each call is ``fn(item, buf)``, ``buf`` being one of the
    sets that ``scratch()`` makes on the calling thread, one a thread (what
    a worker allocates stays in its own malloc arena); an item's set passes
    to another item only once the caller asks for the next result, so a
    result may be a view into its set."""
    workers = min(WORKERS, len(items), WORKERS if most is None else most)
    free = collections.deque((scratch(),) if scratch else () for _ in range(workers))
    if workers <= 1:
        yield from (fn(item, *free[0]) for item in items)
        return
    from concurrent.futures import ThreadPoolExecutor
    err = np.geterr()

    def run(item, buf):
        with np.errstate(**err):
            return fn(item, *buf)

    pool, pending = ThreadPoolExecutor(workers), collections.deque()
    try:
        for item in items:
            if len(pending) == workers:
                done, buf = pending.popleft()
                yield done.result()
                free.append(buf)
            buf = free.popleft()
            pending.append((pool.submit(run, item, buf), buf))
        while pending:
            yield pending.popleft()[0].result()
    finally:
        pool.shutdown(cancel_futures=True)


def map_blocks(fn: Callable, size: int, *dtypes) -> list:
    """``fn(a, b, buf)`` for each ``SELECT_BLOCK`` block [a, b) of range(size),
    in block order. The blocks run in one contiguous span per worker from
    ``SPLIT_MIN`` values on, else in one span on the calling thread; ``buf``
    is the span's scratch, one block of each of ``dtypes`` cut to b - a
    values, made on the calling thread (what a worker allocates stays in its
    own malloc arena)."""
    block = SELECT_BLOCK
    blocks = -(-size // block)
    k = min(WORKERS, blocks) if size >= SPLIT_MIN else 1
    cuts = [min(size, blocks * i // k * block) for i in range(k + 1)]

    def span(a, b, scratch):
        return [fn(c, min(c + block, b), [s[:min(block, b - c)] for s in scratch])
                for c in range(a, b, block)]

    spans = [(a, b, [np.empty(min(b - a, block), t) for t in dtypes])
             for a, b in zip(cuts, cuts[1:])]
    return [r for rs in map_workers(lambda s: span(*s), spans) for r in rs]


def block_diffs(x: np.ndarray, a: int, b: int, buf: np.ndarray) -> np.ndarray:
    """The first differences x[j+1] - x[j] of a 1-d column for j in [a, b),
    written into the float64 block ``buf``. Float columns are differenced in
    float64, so a difference spanning NaN is NaN; integer differences are
    read modulo 2**64 in a uint64 view of ``buf``, which is exact for a
    non-decreasing column (send times more than 2**63 ns apart wrap in
    int64)."""
    d = buf.view(np.uint64) if x.dtype.kind in "iu" else buf
    return np.subtract(x[a + 1:b + 1], x[a:b], out=d, dtype=d.dtype, casting="unsafe")


def finite_median_count(x, center=None) -> tuple[float, int]:
    """The median of the finite first differences d of ``x`` (as
    ``block_diffs`` takes them), ``float(np.median(d[np.isfinite(d)]))``
    exactly (but for the sign of a zero median where d holds both -0.0 and
    0.0), with no full-size array of d, and the number of finite differences
    it is taken over; NaN and 0 when no difference is finite. With a
    ``center`` c it is the same median of the float64 deviations |d - c|.

    Floyd and Rivest's selection (CACM 1975): the middle ranks of a sorted
    strided sample of the differences bracket the median. One
    ``map_blocks`` pass counts the finite values, the -inf values and the
    values at or below the bracket, and gathers those strictly inside it;
    only those are partitioned, so ties at a bracket end (a constant input,
    say) are counted, never copied. Where a middle rank falls on a bracket
    end, a second pass counts the values below the bracket and those up to
    its top. With a center, each block's deviations overwrite its float64
    differences (an integer column's fill a float64 block of their own). A
    bracket that misses a middle rank is widened on that side to the whole
    finite range and the pass repeated: a miss costs time, never exactness.
    """
    x = np.asarray(x).ravel()
    if x.size < 2:
        return math.nan, 0
    # the differences (buf[-4]) and three masks; an integer column's deviations get a block
    # (buf[0]): a ufunc copies an input that shares its output's bytes in another dtype
    kit = (np.float64,) * (2 if center is not None and x.dtype.kind in "iu" else 1) + (bool,) * 3

    def values(d, out=None):
        """The values ranked: the differences ``d``, or their deviations
        |d - center|, written into ``out`` where one is given."""
        if center is None:
            return d
        dv = np.subtract(d, center, out=out, dtype=np.float64)
        return np.abs(dv, out=dv)

    def count(a, b, buf):
        """Of the values from difference a to b: how many are finite, -inf and
        at most lo, and those in (lo, hi), in order."""
        v, (finite, le, m) = values(block_diffs(x, a, b, buf[-4]), buf[0]), buf[-3:]
        n = int(np.count_nonzero(np.isfinite(v, out=finite)))
        at_lo = int(np.count_nonzero(np.less_equal(v, lo, out=le)))
        # -inf: at or below lo and not finite; a deviation is never -inf
        neg = 0 if center is not None else int(np.count_nonzero(np.greater(le, finite, out=m)))
        return n, neg, at_lo, np.compress(np.greater(np.less(v, hi, out=m), le, out=m), v)

    def count_ends(a, b, buf):
        """How many of the values from difference a to b lie below lo and up to hi."""
        v, m = values(block_diffs(x, a, b, buf[-4]), buf[0]), buf[-1]
        return (int(np.count_nonzero(np.less(v, lo, out=m))),
                int(np.count_nonzero(np.less_equal(v, hi, out=m))))

    step = max(1, (x.size - 1) // SELECT_SAMPLE)
    # the differences at 0, step, 2 * step, ...
    sample = values(np.subtract(x[1::step], x[:-1:step], casting="unsafe",
                                dtype=np.uint64 if x.dtype.kind in "iu" else np.float64))
    info = np.finfo(sample.dtype) if sample.dtype.kind == "f" else np.iinfo(sample.dtype)
    sample = np.sort(sample[np.isfinite(sample)])
    i = (sample.size - 1) // 2 - SELECT_MARGIN
    j = sample.size // 2 + SELECT_MARGIN
    lo, hi = sample[i] if i >= 0 else info.min, sample[j] if j < sample.size else info.max
    while True:
        # the blocks' counts add, and their members join in block order
        n, neg, at_lo, parts = zip(*map_blocks(count, x.size - 1, *kit))
        n, neg, at_lo, inside = sum(n), sum(neg), sum(at_lo), np.concatenate(parts)
        if n == 0:
            return math.nan, 0
        k_lo = neg + (n - 1) // 2  # ranks -inf values first
        k_hi = k_lo + 1 - n % 2
        at_hi = at_lo + inside.size  # ranks [at_lo, at_hi) are inside the bracket
        below, up_to_hi = at_lo, at_hi  # ranks [below, at_lo) hold lo, [at_hi, up_to_hi) hi
        if k_lo < at_lo or k_hi >= at_hi:
            below, up_to_hi = map(sum, zip(*map_blocks(count_ends, x.size - 1, *kit)))
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
