"""Parametric and empirical latency models over stable-core samples.

Five model families cover the shapes a period can take: Uniform and
Gaussian as cheap baselines, a Gaussian mixture for multi-modal periods,
the raw empirical distribution, and a generalized Pareto tail fitted to the
largest observations for extreme quantiles. Every fitted model answers the
same two questions: the q-quantile and the probability of exceeding a
latency bound.

All fits are deterministic: the mixture EM is seeded and restarts are
compared by final log-likelihood, so a (samples, seed) pair pins the model.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields, replace
from typing import Union

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp, ndtr, ndtri

from ._num import bisect_increasing
from .errors import (
    AllTiesAtThreshold,
    EmptyInput,
    InvalidConfig,
    InvalidQ,
    OutOfTailRegion,
    TooFew,
    ZeroVariance,
)

_LOG_2PI = math.log(2.0 * math.pi)

#: Below this |xi| the generalized Pareto collapses to the exponential.
XI_EXPONENTIAL = 1e-6


@dataclass(frozen=True)
class FitConfig:
    """Knobs shared by the fitting routines."""

    gmm_max_iter: int = 200
    gmm_tol: float = 1e-6
    gmm_restarts: int = 3
    gmm_min_sigma: float = 1e-3
    gpd_k: int = 25

    def __post_init__(self) -> None:
        if self.gmm_max_iter < 1 or self.gmm_restarts < 1:
            raise InvalidConfig("gmm_max_iter and gmm_restarts must be >= 1")
        if self.gmm_tol <= 0 or self.gmm_min_sigma <= 0:
            raise InvalidConfig("gmm_tol and gmm_min_sigma must be > 0")
        if self.gpd_k < 10:
            raise InvalidConfig("gpd_k must be >= 10")


@dataclass(frozen=True)
class FitMeta:
    """Bookkeeping attached to every fitted model.

    ``converged`` is False when an iterative fit hit its budget (the model
    is still usable, best parameters so far) or when a closed-form fallback
    replaced the likelihood optimum. ``ll_history`` is kept for the mixture
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

    @property
    def degenerate(self) -> bool:
        return self.a == self.b

    def quantile(self, q: float) -> float:
        if self.degenerate:
            return self.a
        return self.a + q * (self.b - self.a)

    def cdf(self, x: float) -> float:
        if self.degenerate:
            return 1.0 if x >= self.a else 0.0
        if x < self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def exceedance(self, x: float) -> float:
        return 1.0 - self.cdf(x)


@dataclass(frozen=True)
class Gaussian:
    mu: float
    sigma: float
    fit_meta: FitMeta

    def quantile(self, q: float) -> float:
        return float(self.mu + self.sigma * ndtri(q))

    def cdf(self, x: float) -> float:
        return float(ndtr((x - self.mu) / self.sigma))

    def exceedance(self, x: float) -> float:
        return float(ndtr((self.mu - x) / self.sigma))


@dataclass(frozen=True)
class Gmm:
    """Gaussian mixture with components in ascending mean order."""

    weights: tuple[float, ...]
    means: tuple[float, ...]
    sigmas: tuple[float, ...]
    fit_meta: FitMeta

    def cdf(self, x: float) -> float:
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
        return bisect_increasing(self.cdf, q, lo, hi, tol=1e-9)


@dataclass(frozen=True)
class Empirical:
    """The sample itself; quantiles are nearest-rank order statistics."""

    samples: np.ndarray
    fit_meta: FitMeta

    def __post_init__(self) -> None:
        s = np.ascontiguousarray(self.samples, dtype=np.float64)
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    def quantile(self, q: float) -> float:
        return empirical_quantile(self.samples, q, _presorted=True)

    def cdf(self, x: float) -> float:
        return float(np.searchsorted(self.samples, x, side="right")) / self.samples.size

    def exceedance(self, x: float) -> float:
        return 1.0 - self.cdf(x)


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
        b = np.ascontiguousarray(self.body, dtype=np.float64)
        b.flags.writeable = False
        object.__setattr__(self, "body", b)

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

    def cdf(self, x: float) -> float:
        return 1.0 - self.exceedance(x)


FittedModel = Union[Uniform, Gaussian, Gmm, Empirical, GpdTail]


# -- fitting -------------------------------------------------------------------


def _clean(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64).ravel()
    return x[np.isfinite(x)]


def fit_uniform(samples) -> Uniform:
    """Maximum-likelihood uniform: the sample range."""
    x = _clean(samples)
    if x.size < 2:
        raise TooFew("uniform fit needs at least 2 samples")
    a, b = float(x.min()), float(x.max())
    ll = None if a == b else -x.size * math.log(b - a)
    return Uniform(a=a, b=b, fit_meta=FitMeta(n=x.size, loglik=ll))


def fit_gaussian(samples) -> Gaussian:
    """Maximum-likelihood Gaussian (population variance)."""
    x = _clean(samples)
    if x.size < 2:
        raise TooFew("gaussian fit needs at least 2 samples")
    mu = float(np.mean(x))
    var = float(np.mean((x - mu) ** 2))
    if var == 0.0:
        raise ZeroVariance("all samples identical")
    sigma = math.sqrt(var)
    ll = -0.5 * x.size * (_LOG_2PI + math.log(var) + 1.0)
    return Gaussian(mu=mu, sigma=sigma, fit_meta=FitMeta(n=x.size, loglik=ll))


def _gmm_loglik(x: np.ndarray, w, mu, sg) -> tuple[float, np.ndarray]:
    # log of w_k * N(x | mu_k, sigma_k) for every sample/component pair
    z = (x[:, None] - mu[None, :]) / sg[None, :]
    logp = np.log(w)[None, :] - np.log(sg)[None, :] - 0.5 * (z * z + _LOG_2PI)
    per_sample = logsumexp(logp, axis=1)
    return float(per_sample.sum()), logp - per_sample[:, None]


def _gmm_init(x: np.ndarray, K: int, rng: np.random.Generator, min_sigma: float):
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
    sigma0 = max(float(np.std(x)), min_sigma)
    return (
        np.full(K, 1.0 / K),
        np.asarray(centers, dtype=np.float64),
        np.full(K, sigma0),
    )


def fit_gmm(samples, n_components: int, config: FitConfig | None = None,
            seed: int = 0) -> Gmm:
    """EM fit of a 1-D Gaussian mixture.

    Component scales are floored at ``gmm_min_sigma`` (the constrained
    M-step maximizer, so the likelihood still never decreases). Restarts
    use consecutive seeds; the best final log-likelihood wins. Hitting the
    iteration budget is reported via ``fit_meta.converged``, not an error.
    """
    cfg = config or FitConfig()
    K = int(n_components)
    if K < 1:
        raise InvalidConfig("n_components must be >= 1")
    x = _clean(samples)
    if x.size < 10 * K:
        raise TooFew(f"mixture of {K} needs at least {10 * K} samples, got {x.size}")

    best: tuple[float, tuple, tuple[float, ...], bool] | None = None
    for r in range(cfg.gmm_restarts):
        rng = np.random.default_rng(seed + r)
        w, mu, sg = _gmm_init(x, K, rng, cfg.gmm_min_sigma)
        history: list[float] = []
        converged = False
        for _ in range(cfg.gmm_max_iter):
            ll, log_resp = _gmm_loglik(x, w, mu, sg)
            history.append(ll)
            if len(history) > 1 and abs(ll - history[-2]) <= cfg.gmm_tol * (1.0 + abs(ll)):
                converged = True
                break
            resp = np.exp(log_resp)
            nk = np.maximum(resp.sum(axis=0), 1e-300)
            w = nk / x.size
            mu = resp.T @ x / nk
            var = np.einsum("nk,nk->k", resp, (x[:, None] - mu[None, :]) ** 2) / nk
            sg = np.maximum(np.sqrt(var), cfg.gmm_min_sigma)
        if best is None or history[-1] > best[0]:
            best = (history[-1], (w, mu, sg), tuple(history), converged)

    ll_final, (w, mu, sg), history, converged = best
    order = np.argsort(mu, kind="stable")
    return Gmm(
        weights=tuple(float(v) for v in w[order]),
        means=tuple(float(v) for v in mu[order]),
        sigmas=tuple(float(v) for v in sg[order]),
        fit_meta=FitMeta(n=x.size, loglik=ll_final, converged=converged,
                         seed=seed, ll_history=history),
    )


def fit_empirical(samples) -> Empirical:
    """Keep the (sorted) sample as its own distribution."""
    x = _clean(samples)
    if x.size < 1:
        raise TooFew("empirical fit needs at least 1 sample")
    return Empirical(samples=np.sort(x), fit_meta=FitMeta(n=x.size, loglik=None))


def _gpd_nll(y: np.ndarray, xi: float, sigma: float) -> float:
    if sigma <= 0:
        return math.inf
    if abs(xi) < XI_EXPONENTIAL:
        return y.size * math.log(sigma) + float(y.sum()) / sigma
    z = 1.0 + xi * y / sigma
    if np.any(z <= 0):
        return math.inf
    return y.size * math.log(sigma) + (1.0 + 1.0 / xi) * float(np.log(z).sum())


def _gpd_profile_sigma(y: np.ndarray, xi: float) -> tuple[float, float]:
    """Best sigma for a fixed shape; returns (sigma, nll)."""
    if abs(xi) < XI_EXPONENTIAL:
        s = float(y.mean())
        if s <= 0:
            return math.inf, math.inf
        return s, _gpd_nll(y, xi, s)
    ymax = float(y.max())
    lo = 1e-12 if xi > 0 else -xi * ymax * (1.0 + 1e-9) + 1e-12
    hi = 100.0 * (float(y.mean()) + ymax) * (1.0 + abs(xi))
    if not lo < hi:
        return math.inf, math.inf
    res = minimize_scalar(lambda s: _gpd_nll(y, xi, s), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10 * hi})
    return float(res.x), float(res.fun)


def _gpd_pwm(y: np.ndarray) -> tuple[float, float]:
    """Probability-weighted-moment estimate, the fallback when the
    likelihood surface is unusable."""
    ys = np.sort(y)
    k = ys.size
    a0 = float(ys.mean())
    a1 = float(np.dot(ys, (k - 1 - np.arange(k)) / (k - 1)) / k)
    denom = a0 - 2.0 * a1
    if denom == 0:
        return 0.0, max(a0, 1e-12)
    xi = 2.0 - a0 / denom
    sigma = 2.0 * a0 * a1 / denom
    xi = min(max(xi, -0.5), 2.0)
    if sigma <= 0:
        sigma = max(a0, 1e-12)
    return xi, sigma


def fit_gpd_topk(samples, k: int = 25) -> GpdTail:
    """Peaks-over-threshold fit to the k largest samples.

    The threshold is the (k+1)-th largest sample. The shape is found by a
    profile-likelihood search over xi in [-0.5, 2] (sigma optimized per
    candidate shape), with a probability-weighted-moment fallback when the
    likelihood cannot be evaluated anywhere.
    """
    x = _clean(samples)
    if k < 10:
        raise InvalidConfig("k must be >= 10")
    if x.size <= k:
        raise TooFew(f"need more than k={k} samples, got {x.size}")
    xs = np.sort(x)
    u = float(xs[x.size - k - 1])
    y = xs[x.size - k:] - u
    if float(y.max()) <= 0.0:
        raise AllTiesAtThreshold("all top-k samples tie with the threshold")

    grid = np.linspace(-0.5, 2.0, 126)
    prof = [_gpd_profile_sigma(y, xi) for xi in grid]
    nlls = np.asarray([p[1] for p in prof])
    converged = bool(np.isfinite(nlls).any())
    if converged:
        i = int(np.argmin(nlls))
        step = float(grid[1] - grid[0])
        lo = max(-0.5, float(grid[i]) - step)
        hi = min(2.0, float(grid[i]) + step)
        res = minimize_scalar(lambda t: _gpd_profile_sigma(y, t)[1], bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-8})
        xi = float(res.x)
        sigma, nll = _gpd_profile_sigma(y, xi)
        if nll > nlls[i]:  # keep the grid point if polishing slipped
            xi = float(grid[i])
            sigma, nll = prof[i]
    else:
        xi, sigma = _gpd_pwm(y)
        nll = _gpd_nll(y, xi, sigma)

    return GpdTail(
        u=u, sigma=sigma, xi=xi, k=k, n=x.size, body=xs[:x.size - k],
        fit_meta=FitMeta(n=x.size, loglik=-nll if math.isfinite(nll) else None,
                         converged=converged),
    )


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


_GMM_NAME = re.compile(r"^gmm(\d+)$")


def fit_by_name(name: str, samples, config: FitConfig | None = None,
                seed: int = 0) -> FittedModel:
    """Fit a model family by its CLI name: uniform, gaussian, gmmK, empirical, gpd."""
    cfg = config or FitConfig()
    if name == "uniform":
        return fit_uniform(samples)
    if name == "gaussian":
        return fit_gaussian(samples)
    if name == "empirical":
        return fit_empirical(samples)
    if name == "gpd":
        return fit_gpd_topk(samples, cfg.gpd_k)
    m = _GMM_NAME.match(name)
    if m:
        return fit_gmm(samples, int(m.group(1)), cfg, seed=seed)
    raise InvalidConfig(f"unknown model name {name!r}")


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
_MODEL_TYPES = {"uniform": Uniform, "gaussian": Gaussian, "gmm": Gmm,
                "empirical": Empirical, "gpd": GpdTail}
_MODEL_TAGS = {cls: tag for tag, cls in _MODEL_TYPES.items()}

#: Decoder of each parameter annotation found among the model fields.
_PARAM_DECODERS = {
    "float": float,
    "int": int,
    "tuple[float, ...]": lambda v: tuple(float(x) for x in v),
    "np.ndarray": lambda v: np.asarray(v, dtype=np.float64),
}


def _param_fields(cls) -> list:
    return [f for f in fields(cls) if f.name != "fit_meta"]


def model_to_json(model: FittedModel) -> str:
    tag = _MODEL_TAGS.get(type(model))
    if tag is None:
        raise TypeError(f"not a fitted model: {type(model)!r}")
    params = {}
    for f in _param_fields(type(model)):
        v = getattr(model, f.name)
        params[f.name] = [float(x) for x in v] if isinstance(v, (tuple, np.ndarray)) else v
    body = {"type": tag, "params": params, "fit_meta": _meta_dict(model.fit_meta)}
    return json.dumps(body, indent=2)


def model_from_json(text: str) -> FittedModel:
    obj = json.loads(text)
    meta = FitMeta(
        n=int(obj["fit_meta"]["n"]),
        loglik=obj["fit_meta"]["loglik"],
        converged=bool(obj["fit_meta"]["converged"]),
        seed=obj["fit_meta"]["seed"],
    )
    cls = _MODEL_TYPES.get(obj["type"])
    if cls is None:
        raise ValueError(f"unknown model type {obj['type']!r}")
    p = obj["params"]
    return cls(**{f.name: _PARAM_DECODERS[f.type](p[f.name]) for f in _param_fields(cls)},
               fit_meta=meta)
