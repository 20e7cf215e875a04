"""Parametric and empirical latency models over stable-core samples.

Five model families cover the shapes a period can take: Uniform and
Gaussian as cheap baselines, a Gaussian mixture for multi-modal periods,
the raw empirical distribution, and a generalized Pareto tail fitted to the
largest observations for extreme quantiles. Every fitted model answers the
same two questions: the q-quantile and the probability of exceeding a
latency bound.

The mixture EM and the tail search fit many rows at once; an EM iteration
is two batched matrix products plus a few elementwise passes. All fits are
deterministic: the mixture EM is seeded and restarts are compared by final
log-likelihood, so a (samples, seed) pair pins the model.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from . import _num
from ._num import bisect_increasing, frozen, map_workers, ndtr, ndtri
from .errors import (
    AllTiesAtThreshold,
    EmptyInput,
    InvalidConfig,
    InvalidQ,
    InvalidRange,
    LlabError,
    OutOfTailRegion,
    TooFew,
    ZeroVariance,
)

_LOG_2PI = math.log(2.0 * math.pi)

#: Below this |xi| the generalized Pareto collapses to the exponential.
XI_EXPONENTIAL = 1e-6
#: The shape box of the tail fit.
XI_MIN, XI_MAX = -0.5, 2.0


#: Mixture EM: iteration budget, relative log-likelihood tolerance, seeded
#: restarts per fit, and the floor on component scales.
GMM_MAX_ITER = 200
GMM_TOL = 1e-6
GMM_RESTARTS = 3
GMM_MIN_SIGMA = 1e-3
#: Exceedances in the peaks-over-threshold tail fit.
GPD_K = 25


@dataclass(frozen=True)
class FitMeta:
    """Bookkeeping attached to every fitted model.

    ``converged`` is False only when a mixture EM hit ``GMM_MAX_ITER`` (the
    model is still usable, best parameters so far); every other fit, the
    tail fit included, is converged. ``ll_history`` is kept for the mixture
    so the non-decreasing EM guarantee stays checkable after the fact.
    """

    n: int
    loglik: float | None
    converged: bool = True
    seed: int | None = None
    ll_history: tuple[float, ...] | None = None


# -- model types ---------------------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    """Uniform on [a, b]; a == b degenerates to a point mass."""

    a: float
    b: float
    fit_meta: FitMeta

    def quantile(self, q: float) -> float:
        return self.a + q * (self.b - self.a)

    def exceedance(self, x: float) -> float:
        if x >= self.b:
            return 0.0
        if x >= self.a:  # so b > a
            return 1.0 - (x - self.a) / (self.b - self.a)
        return 1.0


@dataclass(frozen=True)
class Gaussian:
    mu: float
    sigma: float
    fit_meta: FitMeta

    def quantile(self, q: float) -> float:
        return float(self.mu + self.sigma * ndtri(q))

    def exceedance(self, x: float) -> float:
        return float(ndtr((self.mu - x) / self.sigma))


@dataclass(frozen=True)
class Gmm:
    """Gaussian mixture with components in ascending mean order."""

    weights: tuple[float, ...]
    means: tuple[float, ...]
    sigmas: tuple[float, ...]
    fit_meta: FitMeta

    def _cdf(self, x: float) -> float:
        z = (x - np.asarray(self.means)) / np.asarray(self.sigmas)
        return float(np.dot(self.weights, ndtr(z)))

    def exceedance(self, x: float) -> float:
        z = (np.asarray(self.means) - x) / np.asarray(self.sigmas)
        return float(np.dot(self.weights, ndtr(z)))

    def quantile(self, q: float) -> float:
        mu = np.asarray(self.means)
        sg = np.asarray(self.sigmas)
        lo = float((mu - 10.0 * sg).min())
        hi = float((mu + 10.0 * sg).max())
        return bisect_increasing(self._cdf, q, lo, hi)


@dataclass(frozen=True)
class Empirical:
    """The sample itself; quantiles are nearest-rank order statistics."""

    samples: np.ndarray
    fit_meta: FitMeta

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", frozen(self.samples))

    def quantile(self, q: float) -> float:
        return empirical_quantile(self.samples, q, _presorted=True)

    def exceedance(self, x: float) -> float:
        return 1.0 - float(np.searchsorted(self.samples, x, side="right")) / self.samples.size


@dataclass(frozen=True)
class GpdTail:
    """Generalized Pareto fit to the k largest of n samples.

    ``u`` is the (k+1)-th largest sample; the tail models exceedances above
    it. ``body`` keeps the n-k sub-threshold samples (sorted) so exceedance
    probabilities below u stay exact and self-contained.
    """

    u: float
    sigma: float
    xi: float
    k: int
    n: int
    body: np.ndarray
    fit_meta: FitMeta

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", frozen(self.body))

    @property
    def tail_fraction(self) -> float:
        return self.k / self.n

    def tail_quantile(self, q: float) -> float:
        """Tail-model quantile at level q.

        Exact in the fitted region q >= 1 - k/n; below it this extrapolates
        the tail form downward (useful when the tail family is known to hold
        everywhere, misleading otherwise).
        """
        ratio = (self.n / self.k) * (1.0 - q)
        if abs(self.xi) < XI_EXPONENTIAL:
            return self.u - self.sigma * math.log(ratio)
        return self.u + self.sigma / self.xi * (ratio ** (-self.xi) - 1.0)

    def quantile(self, q: float) -> float:
        # small slack so the exact boundary level survives float rounding
        if q < 1.0 - self.k / self.n - 1e-12:
            raise OutOfTailRegion(
                f"q={q} below the fitted tail (needs q >= {1.0 - self.k / self.n})"
            )
        return self.tail_quantile(q)

    def exceedance(self, x: float) -> float:
        if x >= self.u:
            z = x - self.u
            if abs(self.xi) < XI_EXPONENTIAL:
                return self.tail_fraction * math.exp(-z / self.sigma)
            base = 1.0 + self.xi * z / self.sigma
            if base <= 0.0:
                return 0.0  # beyond the finite endpoint of a xi<0 tail
            return self.tail_fraction * base ** (-1.0 / self.xi)
        above = self.body.size - int(np.searchsorted(self.body, x, side="right"))
        return (above + self.k) / self.n


FittedModel = Union[Uniform, Gaussian, Gmm, Empirical, GpdTail]


# -- fitting -------------------------------------------------------------------


def _clean(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64).ravel()
    return x[np.isfinite(x)]


def _as_rows(rows) -> np.ndarray:
    mat = np.asarray(rows, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("rows must be a 2-D (rows, bins) matrix")
    return mat


def _only(results: list):
    """The one result of a batch of one; a failed row raises its error."""
    (out,) = results
    if isinstance(out, LlabError):
        raise out
    return out


def fit_uniform(samples) -> Uniform:
    """Maximum-likelihood uniform: the sample range."""
    x = _clean(samples)
    if x.size < 2:
        raise TooFew("uniform fit needs at least 2 samples")
    a, b = float(x.min()), float(x.max())
    ll = None if a == b else -x.size * math.log(b - a)
    return Uniform(a=a, b=b, fit_meta=FitMeta(n=x.size, loglik=ll))


def fit_gaussian(samples) -> Gaussian:
    """Maximum-likelihood Gaussian (population variance), summed as
    ``np.mean`` sums; a finite sum shows every sample finite, so only a row
    with a lost bin is copied clean."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    if not math.isfinite(total := np.add.reduce(x)):
        total = np.add.reduce(x := _clean(x))
    if x.size < 2:
        raise TooFew("gaussian fit needs at least 2 samples")
    mu = float(total / x.size)
    dev = np.subtract(x, mu)
    var = float(np.add.reduce(np.multiply(dev, dev, out=dev)) / x.size)
    if var == 0.0:
        raise ZeroVariance("all samples identical")
    sigma = math.sqrt(var)
    ll = -0.5 * x.size * (_LOG_2PI + math.log(var) + 1.0)
    return Gaussian(mu=mu, sigma=sigma, fit_meta=FitMeta(n=x.size, loglik=ll))


def _gmm_init(x: np.ndarray, K: int, rng: np.random.Generator):
    # k-means++ style spread: each next center drawn proportional to squared
    # distance from the chosen ones
    centers = [float(x[rng.integers(x.size)])]
    for _ in range(K - 1):
        d2 = np.min((x[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(centers[0])
            continue
        centers.append(float(x[rng.choice(x.size, p=d2 / total)]))
    sigma0 = max(float(np.std(x)), GMM_MIN_SIGMA)
    return (
        np.full(K, 1.0 / K),
        np.asarray(centers, dtype=np.float64),
        np.full(K, sigma0),
    )


#: Lane-bins in one block of the batched EM. The budget covers the arrays a
#: block holds for its whole EM: the (lanes, 2, bins) ``P`` and the
#: (lanes, K, bins) ``u**2`` and responsibilities, 8 * (2K + 2) bytes a
#: lane-bin (4 MB at K = 3), however many periods a window holds.
_EM_BLOCK_LANE_BINS = 1 << 16

#: Lane-bins below which a block is not split further: smaller blocks spend
#: more on handing the GIL between threads than a second CPU saves.
_EM_MIN_BLOCK_LANE_BINS = 1 << 14


def _gmm_em(x, w, mu, sg):
    """EM on every lane until its own tolerance test passes or it reaches
    ``GMM_MAX_ITER``; a finished lane is frozen, so its history, its
    parameters and ``converged`` are those of a fit on that lane alone.

    ``x`` is (lanes, bins), a non-finite value being a lost bin; ``w``,
    ``mu`` and ``sg`` are (lanes, K). With c a lane's kept mean, the
    (lanes, 2, bins) P = [kept, (x - c) * kept] is built once and gives
    both products of an iteration: the E-step's u = (x - mu) /
    (sqrt(2) sigma) and the M-step's (sum r, sum r (x - c)). The new spread is 2 sigma**2 sum r u**2 about the old
    mean less n_k (mu_new - mu)**2 (Chan, Golub and LeVeque's shifted data),
    so no power sum of x costs narrow, far-apart modes their precision.

    Returns the final (w, mu, sg), the (lanes, GMM_MAX_ITER) history with
    each lane's length, and the converged flags.
    """
    lanes, bins = x.shape
    keep = np.isfinite(x)
    n = keep.sum(axis=1)
    c = np.where(keep, x, 0.0).sum(axis=1) / n
    P = np.stack([keep, np.where(keep, x - c[:, None], 0.0)], axis=1)
    m = mu - c[:, None]  # means about c
    u2, resp = np.empty((2, lanes, w.shape[1], bins))
    hist = np.empty((lanes, GMM_MAX_ITER))
    length = np.zeros(lanes, dtype=np.int64)
    converged = np.zeros(lanes, dtype=bool)
    active = np.arange(lanes)  # P and n hold the active lanes' rows
    for it in range(GMM_MAX_ITER):
        wa, ma, sa = w[active], m[active], sg[active]
        ua, ra = u2[:active.size], resp[:active.size]
        # E-step: log of w_k * N(x | mu_k, sigma_k) is a_k - u**2, then the
        # max-shifted log-sum-exp whose one exp gives the responsibilities
        scale = 1.0 / (math.sqrt(2.0) * sa)
        np.matmul(np.stack([-ma * scale, scale], axis=2), P, out=ua)
        np.square(ua, out=ua)
        np.subtract((np.log(wa) - np.log(sa) - 0.5 * _LOG_2PI)[:, :, None], ua, out=ra)
        top = ra.max(axis=1)
        ra -= top[:, None]
        np.exp(ra, out=ra)
        total = ra.sum(axis=1)
        top += np.log(total)
        ll = np.einsum("lb,lb->l", P[:, 0], top)
        ra *= np.reciprocal(total, out=total)[:, None]
        hist[active, it] = ll
        length[active] = it + 1
        if it == 0:
            done = np.zeros(active.size, dtype=bool)
        else:
            done = np.abs(ll - hist[active, it - 1]) <= GMM_TOL * (1.0 + np.abs(ll))
        step = ~done
        sums = np.matmul(P, ra.transpose(0, 2, 1))
        nk = np.maximum(sums[:, 0], 1e-300)
        nm = sums[:, 1] / nk
        spread = 2.0 * sa * sa * np.einsum("lkb,lkb->lk", ra, ua) - nk * (nm - ma) ** 2
        ns = np.maximum(np.sqrt(np.maximum(spread, 0.0) / nk), GMM_MIN_SIGMA)
        w[active[step]] = (nk / n[:, None])[step]
        m[active[step]] = nm[step]
        sg[active[step]] = ns[step]
        if done.any():
            converged[active[done]] = True
            active, P, n = active[step], P[step], n[step]
            if active.size == 0:
                break
    return (w, m + c[:, None], sg), hist, length, converged


def fit_gmm_rows(rows, n_components: int, seeds) -> list[Gmm | TooFew]:
    """EM fits of a 1-D Gaussian mixture to every row of a NaN-masked matrix.

    Row ``i`` is fitted to its finite values with restarts seeded
    ``seeds[i]``, ``seeds[i] + 1``, ...; each (row, restart) is one lane of
    a single batched EM, so a row's fit does not depend on the other rows'
    values. At rounding level it does depend on the matrix width and where
    the row's NaNs lie, which order the EM's sums: ``fit --window`` (one
    row of finite samples) may differ in the last bits from the matching
    ``evaluate`` cell. The lanes run in blocks, on one thread per CPU, and
    the fits do not depend on how many blocks or CPUs there are. Component
    scales are floored at ``GMM_MIN_SIGMA`` (the constrained M-step
    maximizer, so the likelihood still never decreases). The best final
    log-likelihood wins, the first restart on ties. Hitting
    the iteration budget is reported via ``fit_meta.converged``. A row with
    fewer than 10 finite values per component gets a ``TooFew``.
    """
    K = int(n_components)
    if K < 1:
        raise InvalidConfig("n_components must be >= 1")
    mat = _as_rows(rows)
    if len(seeds) != mat.shape[0]:
        raise ValueError("one seed per row is required")
    keep = np.isfinite(mat)
    n = keep.sum(axis=1)
    out: list = [TooFew(f"mixture of {K} needs at least {10 * K} samples, got {c}")
                 if c < 10 * K else None for c in n]
    R = GMM_RESTARTS

    def fit_block(block: np.ndarray) -> list[Gmm]:
        lanes = np.repeat(block, R)
        inits = [_gmm_init(mat[p][keep[p]], K, np.random.default_rng(seeds[p] + r))
                 for p in block for r in range(R)]
        w, mu, sg = (np.stack(c) for c in zip(*inits))
        (w, mu, sg), hist, length, converged = _gmm_em(mat[lanes], w, mu, sg)
        final = hist[np.arange(lanes.size), length - 1]
        fits = []
        for j, p in enumerate(block):
            best = j * R + int(np.argmax(final[j * R:j * R + R]))  # first restart on ties
            order = np.argsort(mu[best], kind="stable")
            fits.append(Gmm(
                weights=tuple(float(v) for v in w[best, order]),
                means=tuple(float(v) for v in mu[best, order]),
                sigmas=tuple(float(v) for v in sg[best, order]),
                fit_meta=FitMeta(n=int(n[p]), loglik=float(final[best]),
                                 converged=bool(converged[best]), seed=int(seeds[p]),
                                 ll_history=tuple(float(v)
                                                  for v in hist[best, :length[best]])),
            ))
        return fits

    # equal blocks, as many as the lane budget needs rounded up to a
    # multiple of the workers so that none idles while another ends, but
    # none under the size at which threads stop paying
    ok = np.nonzero(n >= 10 * K)[0]
    row_lane_bins = R * max(1, mat.shape[1])
    need = -(-ok.size // max(1, _EM_BLOCK_LANE_BINS // row_lane_bins))
    most = max(1, ok.size * row_lane_bins // _EM_MIN_BLOCK_LANE_BINS)
    n_blocks = min(ok.size, max(need, min(most, -(-need // _num.WORKERS) * _num.WORKERS)))
    blocks = np.array_split(ok, n_blocks) if n_blocks else []
    for block, block_fits in zip(blocks, list(map_workers(fit_block, blocks))):
        for p, fit in zip(block, block_fits):
            out[p] = fit
    return out


def fit_empirical(samples) -> Empirical:
    """Keep the (sorted) sample as its own distribution."""
    x = _clean(samples)
    if x.size < 1:
        raise TooFew("empirical fit needs at least 1 sample")
    return Empirical(samples=np.sort(x), fit_meta=FitMeta(n=x.size, loglik=None))


def _gpd_nll(y: np.ndarray, xi: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Negative log-likelihood of each row of ``y`` (lanes, k) under the
    generalized Pareto law with that lane's ``xi`` and ``sigma`` > 0; inf
    where a value lies beyond the law's finite endpoint."""
    k = y.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = 1.0 + xi[:, None] * y / sigma[:, None]
        nll = k * np.log(sigma) + (1.0 + 1.0 / xi) * np.log(z).sum(axis=1)
    nll[(z <= 0).any(axis=1)] = np.inf
    return np.where(np.abs(xi) < XI_EXPONENTIAL, k * np.log(sigma) + y.sum(axis=1) / sigma, nll)


#: Largest sum of a row's exceedances that a tail fit takes. The search's
#: scale brackets reach from 1e-12 (where xi > 0) to under 600 times the
#: sum, so below it xi * y / sigma and every bracket stay finite in float64.
_GPD_SUM_MAX = np.finfo(np.float64).max * 1e-13

#: Points of the theta grid each tail fit's search starts from.
_GPD_GRID = 126
#: Halvings of the bisections that place the theta ends of the shape box, and
#: the most times the upper end's bracket is widened.
_GPD_BISECT = 64
#: Golden-section steps of each lockstep search; they shrink every bracket
#: by 0.618**60, about 3e-13.
_GPD_GOLDEN = 60


def _gpd_xi(y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Grimshaw's profile shape xi(theta) = mean log1p(theta * y).

    ``y`` is (lanes, k) and ``theta`` (lanes, points); xi increases with
    theta.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log1p(theta[:, :, None] * y[:, None, :]).mean(axis=2)


def _gpd_profile_nll(y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Negative log-likelihood at theta = xi/sigma with xi profiled out.

    With xi = xi(theta) and sigma = xi/theta it is k*log(xi/theta) +
    k*(1 + xi); where |xi| < XI_EXPONENTIAL (theta = 0 included) it is the
    exponential limit k*log(mean y) + k.
    """
    k = y.shape[1]
    xi = _gpd_xi(y, theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        nll = k * np.log(xi / theta) + k * (1.0 + xi)
    return np.where(np.abs(xi) < XI_EXPONENTIAL, k * np.log(y.mean(axis=1))[:, None] + k, nll)


def _bisect_lanes(f, target: float, lo: np.ndarray, hi: np.ndarray):
    """Per-lane bisection of an increasing ``f`` with f(lo) < target <= f(hi).

    Returns the final (lo, hi) bracket.
    """
    for _ in range(_GPD_BISECT):
        mid = 0.5 * (lo + hi)
        up = f(mid) >= target
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return lo, hi


def _golden_lanes(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane golden-section search for the least value of ``f`` on [lo, hi].

    ``f`` maps a (lanes,) array of points to their values, and each of the
    ``_GPD_GOLDEN`` steps calls it once. Returns (x, f(x)) at each lane's
    best point.
    """
    g = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(_GPD_GOLDEN):
        left = fc <= fd  # the least value lies in [lo, d]
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        x = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        fx = f(x)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))
    best = fc <= fd
    return np.where(best, c, d), np.where(best, fc, fd)


def _gpd_theta_box(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per lane, the theta interval on which xi(theta) stays in the shape box."""
    def xi_at(t):
        return _gpd_xi(y, t[:, None])[:, 0]

    ymax = y.max(axis=1)
    # xi(theta) falls to -inf at theta = -1/ymax
    lo = _bisect_lanes(xi_at, XI_MIN, -1.0 / ymax, np.zeros_like(ymax))[1]
    # by Jensen xi(theta) <= log1p(theta * mean y): start where that is XI_MAX
    # and grow until xi reaches it (should it never, the grid stops short)
    top = np.expm1(XI_MAX) / y.mean(axis=1)
    for _ in range(_GPD_BISECT):
        short = xi_at(top) < XI_MAX
        if not short.any():
            break
        top = np.where(short, 4.0 * top, top)
    return lo, _bisect_lanes(xi_at, XI_MAX, np.zeros_like(top), top)[0]


def _gpd_fit_lanes(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xi, sigma, nll) of the tail fit of each row of ``y``, as (lanes,)
    arrays, from one lockstep search for all rows.

    Grimshaw's reparametrization theta = xi/sigma leaves one profile
    variable. The box xi in [XI_MIN, XI_MAX] maps to a theta interval; a
    grid on it, even in log1p(theta * mean y) so that it is nearly even in
    xi, is evaluated for all lanes at once, and a golden-section search on
    the grid neighbours of each lane's best point polishes it. Lanes whose
    best point is an end of the grid also search log sigma at that edge of
    the box, and take the edge if it is better.
    """
    lo, hi = _gpd_theta_box(y)
    ybar = y.mean(axis=1)
    theta = np.expm1(np.linspace(np.log1p(lo * ybar), np.log1p(hi * ybar), _GPD_GRID,
                                 axis=1)) / ybar[:, None]
    theta[:, 0], theta[:, -1] = lo, hi
    grid_nll = _gpd_profile_nll(y, theta)
    grid_nll[~np.isfinite(grid_nll)] = np.inf
    lanes = np.arange(y.shape[0])
    i = np.argmin(grid_nll, axis=1)
    nll_grid = grid_nll[lanes, i]
    with np.errstate(divide="ignore", invalid="ignore"):
        t, nll = _golden_lanes(lambda t: _gpd_profile_nll(y, t[:, None])[:, 0],
                               theta[lanes, np.maximum(i - 1, 0)],
                               theta[lanes, np.minimum(i + 1, _GPD_GRID - 1)])
        slipped = nll > nll_grid  # keep the grid point if polishing slipped
        t, nll = np.where(slipped, theta[lanes, i], t), np.where(slipped, nll_grid, nll)
        xi = _gpd_xi(y, t[:, None])[:, 0]
        sigma = np.where(np.abs(xi) < XI_EXPONENTIAL, ybar, xi / t)
        e = np.nonzero((i == 0) | (i == _GPD_GRID - 1))[0]
        xi_e = np.where(i[e] == 0, XI_MIN, XI_MAX)
        ymax = y[e].max(axis=1)
        s_lo = np.where(xi_e > 0, 1e-12, -xi_e * ymax * (1.0 + 1e-9) + 1e-12)
        s_hi = 100.0 * (ybar[e] + ymax) * (1.0 + np.abs(xi_e))
        s, nll_e = _golden_lanes(lambda s: _gpd_nll(y[e], xi_e, np.exp(s)),
                                 np.log(s_lo), np.log(s_hi))
    won = nll_e < nll[e]
    xi[e[won]], sigma[e[won]], nll[e[won]] = xi_e[won], np.exp(s[won]), nll_e[won]
    return xi, sigma, nll


def fit_gpd_rows(rows, k: int = GPD_K) -> list[GpdTail | LlabError]:
    """Peaks-over-threshold fits to the k largest finite values of every row.

    The threshold is the (k+1)-th largest value. The shape is the maximum
    likelihood over xi in [XI_MIN, XI_MAX], found by one lockstep search for
    all rows (see ``_gpd_fit_lanes``); a row's fit does not depend on the
    other rows. A row with at most k finite values gets a ``TooFew``, one
    whose top k all tie with the threshold an ``AllTiesAtThreshold``, and
    one whose exceedances sum past ``_GPD_SUM_MAX`` an ``InvalidRange``.
    """
    if not isinstance(k, (int, np.integer)) or k < 10:
        raise InvalidConfig(f"k must be an integer >= 10, got {k!r}")
    mat = _as_rows(rows)
    keep = np.isfinite(mat)
    n = keep.sum(axis=1)
    xs = np.sort(np.where(keep, mat, np.nan), axis=1)  # lost bins (any non-finite) sort last
    out: list = [TooFew(f"need more than k={k} samples, got {c}") if c <= k else None
                 for c in n]
    ok = np.nonzero(n > k)[0]
    u = xs[ok, n[ok] - k - 1]
    with np.errstate(over="ignore"):  # a sum past float64 is inf, and refused
        y = xs[ok[:, None], (n[ok] - k)[:, None] + np.arange(k)] - u[:, None]
        total = y.sum(axis=1)
    tied = y[:, -1] <= 0.0
    for p in ok[tied]:
        out[p] = AllTiesAtThreshold("all top-k samples tie with the threshold")
    huge = ~tied & ~(total <= _GPD_SUM_MAX)
    for p, t in zip(ok[huge], total[huge]):
        out[p] = InvalidRange(f"top-k exceedances sum to {t:.3g}, over the {_GPD_SUM_MAX:.3g}"
                              " a tail fit can search in float64")
    keep = ~(tied | huge)
    ok, u, y = ok[keep], u[keep], y[keep]
    xi, sigma, nll = (a.tolist() for a in _gpd_fit_lanes(y))
    for p, up, xi_p, sigma_p, nll_p in zip(ok, u, xi, sigma, nll):
        out[p] = GpdTail(
            u=float(up), sigma=sigma_p, xi=xi_p, k=k, n=int(n[p]), body=xs[p, :n[p] - k],
            fit_meta=FitMeta(n=int(n[p]), loglik=-nll_p if math.isfinite(nll_p) else None),
        )
    return out


# -- shared entry points --------------------------------------------------------


def empirical_quantile(samples, q: float, _presorted: bool = False) -> float:
    """Nearest-rank sample quantile: the ceil(q*n)-th smallest value."""
    if not 0.0 < q < 1.0:
        raise InvalidQ(f"q must lie in (0, 1), got {q}")
    x = np.asarray(samples, dtype=np.float64)
    if not _presorted:
        x = np.sort(x[np.isfinite(x)])
    if x.size == 0:
        raise EmptyInput("no samples")
    rank = max(1, math.ceil(q * x.size - 1e-12))
    return float(x[rank - 1])


#: The closed-form families, which cost microseconds a row.
_CLOSED_FORM = {"uniform": fit_uniform, "gaussian": fit_gaussian, "empirical": fit_empirical}
_GMM_NAME = re.compile(r"^gmm(\d+)$")


def fit_rows(name: str, rows, seeds) -> list:
    """Fit a family by its CLI name (uniform, gaussian, gmmK, empirical, gpd)
    to every row of a NaN-masked matrix.

    The iterative families (gmmK, gpd) are fitted for all rows at once,
    ``seeds`` giving each row's mixture seed; the closed-form ones one row
    at a time. A row that cannot be fitted gets its error in place of a
    model.
    """
    fit = _CLOSED_FORM.get(name)
    if fit is not None:
        out: list = []
        for row in _as_rows(rows):
            try:
                out.append(fit(row))
            except (TooFew, ZeroVariance) as e:
                out.append(e)
        return out
    if name == "gpd":
        return fit_gpd_rows(rows, GPD_K)
    m = _GMM_NAME.match(name)
    if m is None:
        raise InvalidConfig(f"unknown model name {name!r}")
    return fit_gmm_rows(rows, int(m.group(1)), seeds)


def fit_by_name(name: str, samples, seed: int = 0) -> FittedModel:
    """``fit_rows`` on the one row ``samples``, raising the error of a failed
    fit; a NaN among the samples is a lost bin."""
    return _only(fit_rows(name, np.asarray(samples, np.float64).reshape(1, -1), [seed]))


# -- serialization ---------------------------------------------------------------


def _meta_dict(meta: FitMeta) -> dict:
    return {
        "n": meta.n,
        "loglik": meta.loglik,
        "converged": meta.converged,
        "seed": meta.seed,
    }


#: JSON type tag of each model family. Parameters are the dataclass fields
#: other than ``fit_meta``, in declaration order.
_MODEL_TAGS = {Uniform: "uniform", Gaussian: "gaussian", Gmm: "gmm",
               Empirical: "empirical", GpdTail: "gpd"}


def model_to_json(model: FittedModel) -> str:
    tag = _MODEL_TAGS.get(type(model))
    if tag is None:
        raise TypeError(f"not a fitted model: {type(model)!r}")
    params = {}
    for f in fields(model):
        if f.name != "fit_meta":
            v = getattr(model, f.name)
            params[f.name] = [float(x) for x in v] if isinstance(v, (tuple, np.ndarray)) else v
    body = {"type": tag, "params": params, "fit_meta": _meta_dict(model.fit_meta)}
    return json.dumps(body, indent=2, allow_nan=False)
