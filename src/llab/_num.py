"""Small numeric helpers shared across modules.

No llab module imports scipy at load time. The normal law's CDF and
quantile come from ``scipy.special`` (cephes), imported on their first
call, so commands that never evaluate them never load scipy; the one
scalar minimizer llab needs is a port of scipy's bounded Brent search.
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


#: Most evaluations ``minimize_bounded`` spends.
BOUNDED_MAXITER = 500


def minimize_bounded(
    f: Callable[[float], float], lo: float, hi: float, xatol: float,
) -> tuple[float, float]:
    """(x, f(x)) at the least value of ``f`` that Brent's method finds on
    [lo, hi] to within about ``xatol``, after at most ``BOUNDED_MAXITER``
    evaluations.

    A line-for-line port of scipy's scalar minimizer with method
    "bounded": golden-section steps, parabolic steps where the parabola
    through the three best points is acceptable, and the same tolerances
    and branch order, so x, f(x) and the evaluation count are scipy's bit
    for bit.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bounds must be finite")
    if lo > hi:
        raise ValueError("lower bound exceeds upper bound")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    # xf is the best point so far, nfc the second best, fulc the previous nfc
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= BOUNDED_MAXITER:
            break
    return float(xf), float(fx)
