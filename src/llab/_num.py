"""Small numeric helpers shared across modules."""

from __future__ import annotations

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
