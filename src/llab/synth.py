"""Synthetic trace generator with exact ground truth.

Reproduces the structure of a periodically reconfiguring link: latency is
piecewise stationary over fixed-length periods, the mean level jumps at
period boundaries, and each boundary carries a short spike (a decaying head
at the period start and a smaller ramp into the period end). Intra-period
noise is configurable: plain Gaussian, a mixture of narrow components
(latency concentrated on a few values), or a Gaussian body with a
heavy Pareto-style tail.

Everything is driven by one seeded PCG64 stream with a fixed draw order
(period means, then noise, then loss), so a config and seed pin the trace
bit for bit. Ground truth (true phase, per-period means, each period's true
p99) comes from the configured noiseless distributions, not from the
realized samples; Good/Degraded labels at any latency target follow from
the p99.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ._num import bisect_increasing, frozen, ndtr, ndtri
from .core import ABSENT, DEGRADED, GOOD, MEET_FRACTION_GOOD, Trace
from .defaults import DEFAULT_DT_NS, PERIOD_MS
from .errors import InvalidConfig, _json_value
from .segment import HEAD_EXCISE_MS, TAIL_EXCISE_MS, core_bounds


# -- intra-period noise models ----------------------------------------------


def _check_finite(name: str, value: float, nonnegative: bool = True) -> None:
    """Refuse a non-finite ``value`` (or a negative one), naming the field."""
    if not (math.isfinite(value) and (value >= 0 or not nonnegative)):
        rule = "finite and >= 0" if nonnegative else "finite"
        raise InvalidConfig(f"{name} must be {rule}, got {value!r}")


def _normal_cdf(x: float, sigma: float) -> float:
    """Standard normal CDF at ``x / sigma``. At a subnormal sigma the ratio
    overflows to +-inf, where the CDF is exactly 1 or 0, so the overflow is
    taken silently."""
    with np.errstate(over="ignore"):
        return float(ndtr(x / sigma))


@dataclass(frozen=True)
class GaussianNoise:
    """Zero-mean Gaussian intra-period noise."""

    sigma_ms: float = 1.5

    def __post_init__(self) -> None:
        _check_finite("sigma_ms", self.sigma_ms)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.sigma_ms == 0:
            return np.zeros(n)
        return rng.normal(0.0, self.sigma_ms, n)

    def cdf(self, x: float) -> float:
        if self.sigma_ms == 0:
            return 1.0 if x >= 0 else 0.0
        return _normal_cdf(x, self.sigma_ms)

    def quantile(self, q: float) -> float:
        if self.sigma_ms == 0:
            return 0.0
        return float(self.sigma_ms * ndtri(q))


@dataclass(frozen=True)
class MixtureNoise:
    """Mixture of Gaussian components, recentred to mean zero.

    Narrow or zero-width components model links whose latency concentrates
    on a few discrete values. Offsets are component locations before
    recentring; the generator subtracts the mixture mean so the configured
    per-period mean stays the true mean.
    """

    weights: tuple[float, ...]
    offsets_ms: tuple[float, ...]
    sigmas_ms: tuple[float, ...]

    def __post_init__(self) -> None:
        k = len(self.weights)
        if k == 0 or len(self.offsets_ms) != k or len(self.sigmas_ms) != k:
            raise InvalidConfig("weights/offsets/sigmas must have equal nonzero length")
        if (not all(math.isfinite(w) and w > 0 for w in self.weights)
                or abs(sum(self.weights) - 1.0) > 1e-9):
            raise InvalidConfig(f"weights must be finite, positive and sum to 1, "
                                f"got {self.weights!r}")
        for c in self.offsets_ms:
            _check_finite("offsets_ms", c, nonnegative=False)
        for sg in self.sigmas_ms:
            _check_finite("sigmas_ms", sg)

    @property
    def _centered(self) -> np.ndarray:
        off = np.asarray(self.offsets_ms, dtype=float)
        return off - float(np.dot(self.weights, off))

    @property
    def std(self) -> float:
        c = self._centered
        s = np.asarray(self.sigmas_ms, dtype=float)
        return float(math.sqrt(np.dot(self.weights, s * s + c * c)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        comp = rng.choice(len(self.weights), size=n, p=np.asarray(self.weights))
        eps = rng.standard_normal(n)
        c = self._centered
        s = np.asarray(self.sigmas_ms, dtype=float)
        return c[comp] + s[comp] * eps

    def cdf(self, x: float) -> float:
        total = 0.0
        for w, c, s in zip(self.weights, self._centered, self.sigmas_ms):
            if s == 0:
                total += w if x >= c else 0.0
            else:
                total += w * _normal_cdf(x - c, s)
        return total

    def quantile(self, q: float) -> float:
        c = self._centered
        smax = max(self.sigmas_ms)
        lo = float(c.min()) - 10.0 * smax - 1.0
        hi = float(c.max()) + 10.0 * smax + 1.0
        return bisect_increasing(self.cdf, q, lo, hi)


#: Share of ``ParetoTailNoise`` draws that are tail excursions.
PARETO_TAIL_PROB = 0.05
#: A tail excursion is this offset plus a generalized Pareto variate with
#: this scale and shape; a shape below 1 keeps the mean finite.
PARETO_TAIL_OFFSET_MS = 4.0
PARETO_TAIL_SCALE_MS = 3.0
PARETO_TAIL_SHAPE = 0.3
#: Mean of the tail mixture before ``ParetoTailNoise`` recentres it.
_PARETO_SHIFT = PARETO_TAIL_PROB * (PARETO_TAIL_OFFSET_MS
                                    + PARETO_TAIL_SCALE_MS / (1.0 - PARETO_TAIL_SHAPE))


@dataclass(frozen=True)
class ParetoTailNoise:
    """Gaussian body with probability ``PARETO_TAIL_PROB`` of a Pareto-type
    excursion (see the ``PARETO_TAIL_*`` constants), recentred to mean zero."""

    body_sigma_ms: float = 1.0

    def __post_init__(self) -> None:
        _check_finite("body_sigma_ms", self.body_sigma_ms)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draws the tail flags, the body and one uniform per sample, in that
        order; the tail formula is evaluated on the tail rows' uniforms only,
        and the result is built in the body's array."""
        is_tail = rng.random(n) < PARETO_TAIL_PROB
        out = rng.normal(0.0, self.body_sigma_ms, n) if self.body_sigma_ms else np.zeros(n)
        u = rng.random(n)[is_tail]
        xi = PARETO_TAIL_SHAPE
        excess = PARETO_TAIL_SCALE_MS / xi * ((1.0 - u) ** (-xi) - 1.0)
        out[is_tail] = PARETO_TAIL_OFFSET_MS + excess
        out -= _PARETO_SHIFT
        return out

    def cdf(self, x: float) -> float:
        z = x + _PARETO_SHIFT
        if self.body_sigma_ms > 0:
            body = _normal_cdf(z, self.body_sigma_ms)
        else:
            body = 1.0 if z >= 0 else 0.0
        y = z - PARETO_TAIL_OFFSET_MS
        xi, s = PARETO_TAIL_SHAPE, PARETO_TAIL_SCALE_MS
        tail = 1.0 - (1.0 + xi * y / s) ** (-1.0 / xi) if y > 0 else 0.0
        return (1.0 - PARETO_TAIL_PROB) * body + PARETO_TAIL_PROB * tail

    def quantile(self, q: float) -> float:
        lo = -_PARETO_SHIFT - 10.0 * self.body_sigma_ms - 1.0
        hi = (_PARETO_SHIFT + PARETO_TAIL_OFFSET_MS
              + 10.0 * (self.body_sigma_ms + PARETO_TAIL_SCALE_MS) + 1.0)
        return bisect_increasing(self.cdf, q, lo, hi)


NoiseModel = Union[GaussianNoise, MixtureNoise, ParetoTailNoise]


# -- per-period mean levels ---------------------------------------------------


#: Floor below which no period's mean latency is drawn.
PERIOD_MEAN_FLOOR_MS = 20.0


@dataclass(frozen=True)
class PeriodMeanModel:
    """Per-period mean latency: Gaussian, truncated below at
    ``PERIOD_MEAN_FLOOR_MS``.

    Sampling uses inverse-CDF transform of uniforms so the draw count per
    period is fixed regardless of the floor.
    """

    mean_ms: float = 40.0
    sigma_ms: float = 8.0

    def __post_init__(self) -> None:
        _check_finite("mean_ms", self.mean_ms, nonnegative=False)
        _check_finite("sigma_ms", self.sigma_ms)
        if self.sigma_ms == 0 and self.mean_ms < PERIOD_MEAN_FLOOR_MS:
            raise InvalidConfig("constant mean lies below the floor")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        if self.sigma_ms == 0:
            return np.full(n, self.mean_ms)
        a = (PERIOD_MEAN_FLOOR_MS - self.mean_ms) / self.sigma_ms
        fa = float(ndtr(a))
        z = ndtri(fa + u * (1.0 - fa))
        return self.mean_ms + self.sigma_ms * z


# -- boundary spike -----------------------------------------------------------


@dataclass(frozen=True)
class SpikeTemplate:
    """Latency excursion around a period boundary, in ms above the mean.

    The head occupies the first ``head_duration_ms`` of a period starting at
    ``head_peak_ms`` and decaying to zero; the tail ramps up to
    ``tail_peak_ms`` over the last ``tail_duration_ms``. Both decay
    exponentially away from the boundary, with a time constant of a quarter
    of the window.
    """

    head_duration_ms: float = HEAD_EXCISE_MS
    tail_duration_ms: float = TAIL_EXCISE_MS
    head_peak_ms: float = 74.0
    tail_peak_ms: float = 20.0

    def __post_init__(self) -> None:
        if self.head_peak_ms <= 0:
            raise InvalidConfig("head_peak_ms must be > 0")
        if self.head_duration_ms < 0 or self.tail_duration_ms < 0:
            raise InvalidConfig("spike durations must be >= 0")
        if self.tail_peak_ms < 0:
            raise InvalidConfig("tail_peak_ms must be >= 0")

    def values(self, S: int, dt_ms: float) -> np.ndarray:
        """Spike offset for every within-period position 0..S-1."""
        hb, core_end = core_bounds(S, dt_ms, self.head_duration_ms, self.tail_duration_ms)
        tb = S - core_end
        v = np.zeros(S)
        if hb:
            tau = self.head_duration_ms / 4.0
            v[:hb] = self.head_peak_ms * np.exp(-(np.arange(hb) * dt_ms) / tau)
        if tb and self.tail_peak_ms > 0:
            tau = self.tail_duration_ms / 4.0
            s = np.arange(S - tb, S)
            v[S - tb:] = self.tail_peak_ms * np.exp(-((S - 1 - s) * dt_ms) / tau)
        return v


# -- configuration and ground truth -------------------------------------------


#: Constant downlink delay of every synthetic sample.
DL_MS = 20.0
#: Send time of a synthetic trace's first sample (ns since the epoch).
START_TIME_NS = 1_700_000_000_000_000_000


@dataclass(frozen=True)
class SynthConfig:
    """Full description of a synthetic trace.

    ``phase_offset`` is the within-period position (a whole number of bins)
    at which the first recorded regime begins; bins before it belong to an
    unrecorded lead-in regime.
    """

    n_periods: int = 100
    T_ms: float = PERIOD_MS
    dt_ms: float = DEFAULT_DT_NS / 1e6
    phase_offset: float = 0.0
    period_mean: PeriodMeanModel = field(default_factory=PeriodMeanModel)
    noise: NoiseModel = field(default_factory=GaussianNoise)
    spike: SpikeTemplate = field(default_factory=SpikeTemplate)
    loss_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_periods < 1:
            raise InvalidConfig("n_periods must be >= 1")
        if self.T_ms <= 0 or self.dt_ms <= 0:
            raise InvalidConfig("T_ms and dt_ms must be > 0")
        ratio = self.T_ms / self.dt_ms
        if abs(ratio - round(ratio)) > 1e-6 or round(ratio) < 1:
            raise InvalidConfig("T_ms must be a positive integer multiple of dt_ms")
        if not 0.0 <= self.phase_offset < ratio:
            raise InvalidConfig("phase_offset must lie in [0, S)")
        if not float(self.phase_offset).is_integer():
            raise InvalidConfig(f"phase_offset must be whole bins, got {self.phase_offset!r}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise InvalidConfig("loss_rate must be in [0, 1)")
        # raises InvalidWindow if the spike windows leave no stable core
        self.spike.values(self.S, self.dt_ms)

    @property
    def S(self) -> int:
        return int(round(self.T_ms / self.dt_ms))

    @property
    def dt_ns(self) -> int:
        return int(round(self.dt_ms * 1e6))


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows: phase, per-period means and true p99, the
    ``MEET_FRACTION_GOOD`` quantile of each period's latency."""

    s_star: int
    period_means_ms: np.ndarray
    p99_ms: np.ndarray

    def __post_init__(self) -> None:
        for name in ("period_means_ms", "p99_ms"):
            object.__setattr__(self, name, frozen(getattr(self, name)))
        if len(self.period_means_ms) != len(self.p99_ms):
            raise ValueError("ground truth lengths differ")

    def labels_at(self, lt_ms: float) -> tuple[str, ...]:
        """Each period's label at latency target ``lt_ms``: Good where its p99 meets it."""
        return tuple(GOOD if p99 <= lt_ms else DEGRADED for p99 in self.p99_ms)

    def to_json(self) -> str:
        return json.dumps(
            {
                "s_star": self.s_star,
                "period_means_ms": [float(v) for v in self.period_means_ms],
                "p99_ms": [float(v) for v in self.p99_ms],
            },
            indent=2,
            allow_nan=False,
        )

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        """What ``to_json`` wrote, typed as it wrote it; a ``labels`` key is ignored."""
        obj = _json_value(json.loads(text), "object", "a truth file")
        return cls(s_star=_json_value(obj["s_star"], "integer", "s_star"),
                   **{name: [_json_value(v, "number", name)
                             for v in _json_value(obj[name], "array", name)]
                      for name in ("period_means_ms", "p99_ms")})


def generate(config: SynthConfig) -> tuple[Trace, GroundTruth]:
    """Generate a trace of exactly ``n_periods * S`` samples plus its truth.

    Regime p (mean level and boundary spike) starts at bin
    ``phase_offset + p*S``. With a nonzero phase the leading bins
    belong to regime -1, whose mean is drawn first but not recorded, so
    ground truth always covers regimes 0..n_periods-1. The uplink column
    carries the periodic process; downlink is the constant ``DL_MS`` and
    rtt is their exact sum.

    The trace is built in place: besides its columns, the only full-size
    arrays are the noise and the (regime, bin) table ``means + spike``,
    whose flat slice from ``S - phase_offset`` is every sample's level. The
    noise is added into that slice, which is clamped at 0, scaled to ns and
    rounded where it lies, then cast once. ``seq`` and ``t_send`` are
    ranges. The columns are made read-only here, so ``Trace`` takes them
    without a copy.

    Raises InvalidConfig when the largest uplink delay plus the downlink
    does not fit int64 ns (a huge noise sigma, or a period mean with no
    mass above ``PERIOD_MEAN_FLOOR_MS``, which is drawn as inf).
    """
    rng = np.random.default_rng(config.seed)
    S = config.S
    P = config.n_periods
    N = P * S
    s0 = int(config.phase_offset) % S
    dl_ns = int(round(DL_MS * 1e6))

    means_all = config.period_mean.sample(rng, P + 1)  # [-1, 0, .., P-1]
    noise = config.noise.sample(rng, N)
    lost = rng.random(N) < config.loss_rate if config.loss_rate > 0 else np.zeros(N, dtype=bool)

    level = np.add.outer(means_all, config.spike.values(S, config.dt_ms)).ravel()
    ul_ms = level[S - s0:S - s0 + N]
    ul_ms += noise
    del noise
    np.maximum(ul_ms, 0.0, out=ul_ms)
    peak_ms = float(ul_ms.max())
    peak_ns = peak_ms * 1e6  # a Python float: an overflow is inf, with no warning
    if not (math.isfinite(peak_ns) and round(peak_ns) + dl_ns <= np.iinfo(np.int64).max):
        raise InvalidConfig(f"uplink delay {peak_ms!r} ms plus the {DL_MS} ms "
                            f"downlink does not fit int64 ns")
    ul_ms *= 1e6
    np.rint(ul_ms, out=ul_ms)
    ul = ul_ms.astype(np.int64)
    del level, ul_ms
    dl = np.full(N, dl_ns, dtype=np.int64)
    rtt = ul + dl_ns
    ul[lost] = ABSENT
    dl[lost] = ABSENT
    rtt[lost] = ABSENT

    seq = np.arange(N, dtype=np.uint64)
    t_send = np.arange(N, dtype=np.int64)
    t_send *= config.dt_ns
    t_send += START_TIME_NS
    columns = (seq, t_send, ul, dl, rtt, lost)
    for col in columns:
        col.flags.writeable = False
    trace = Trace(*columns, config.dt_ns)

    means = means_all[1:]
    p99 = means + config.noise.quantile(MEET_FRACTION_GOOD)
    return trace, GroundTruth(s_star=s0, period_means_ms=means, p99_ms=p99)
