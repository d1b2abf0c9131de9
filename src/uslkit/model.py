"""Capacity model for concurrency scaling.

Relative capacity at concurrency n is

    C(n) = n / (1 + alpha*(n - 1) + beta*n*(n - 1))

where alpha captures contention for a serialized resource and beta the
pairwise coherency (crosstalk) cost.  Any constant factor in the pairwise
term is absorbed into beta itself.  With beta = 0 the expression reduces
to Amdahl's law with serial fraction alpha; with alpha = beta = 0 it is
linear scaling.  For beta > 0 capacity peaks at

    n_peak = sqrt((1 - alpha) / beta)

and degrades for larger n (retrograde scaling).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError, MissingNormalizationError

ArrayLike = Union[float, int, np.ndarray, list, tuple]

#: Marker returned by peak_concurrency when beta = 0 (no finite peak).
UNBOUNDED = math.inf

_set = object.__setattr__  # stores a field of a frozen record


class Regime(str, enum.Enum):
    """Qualitative scaling behaviour implied by the coefficients."""

    LINEAR = "linear"
    AMDAHL_SATURATING = "amdahl-saturating"
    RETROGRADE = "retrograde"


@dataclass(frozen=True)
class UslParams:
    """Fitted or assumed model coefficients.

    alpha: contention coefficient, 0 <= alpha < 1.
    beta:  coherency coefficient, beta >= 0.
    x1:    optional single-user throughput; when present it converts
           relative capacity into absolute throughput.
    """

    alpha: float
    beta: float
    x1: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha < 1.0) or not math.isfinite(self.alpha):
            raise DomainError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.beta < 0.0 or not math.isfinite(self.beta):
            raise DomainError(f"beta must be >= 0, got {self.beta}")
        if self.x1 is not None:
            if not (self.x1 > 0.0) or not math.isfinite(self.x1):
                raise DomainError(f"x1 must be positive, got {self.x1}")


_FRESH = object()  # MeasuredPoint's default meta: a new dict for each point


@dataclass(frozen=True, init=False)
class MeasuredPoint:
    """One throughput measurement at a concurrency level.

    meta carries auxiliary per-run facts (for example the steady-window
    coefficient of variation) and never affects computation or equality.
    """

    n: float
    x: float
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    # A generated frozen __init__ looks object.__setattr__ up for every
    # field.  Records built per point or per level (this one, Residual,
    # ValidationRow, QueueParams, QueueSolution) check in a hand-written
    # __init__ and store with _set, looked up once; records built once per
    # fit keep the generated one.  Storing through __dict__ would be faster
    # still, but CPython 3.11 then reads the fields about 2x slower.
    def __init__(self, n: float, x: float, meta: dict = _FRESH) -> None:
        if not (n >= 1.0) or not math.isfinite(n):
            raise DomainError(f"concurrency must be >= 1, got {n}")
        if x < 0.0 or not math.isfinite(x):
            raise DomainError(f"throughput must be >= 0 and finite, got {x}")
        _set(self, "n", n)
        _set(self, "x", x)
        _set(self, "meta", {} if meta is _FRESH else meta)


def _as_levels(n: ArrayLike) -> np.ndarray:
    arr = np.asarray(n, dtype=float)
    # one pass; nan fails both comparisons
    if not ((arr >= 1.0) & (arr < math.inf)).all():
        raise DomainError("concurrency levels must be finite and >= 1")
    return arr


def _capacity(ns, b0, alpha: float, beta: float):
    """C(n) with b0 = n - 1, on floats or arrays, in the order every caller relies on."""
    return ns / (1.0 + alpha * b0 + beta * ns * b0)


def usl_capacity(n: ArrayLike, params: UslParams):
    """Relative capacity C(n) under the full model.

    Accepts a scalar or array of concurrency levels (each >= 1) and
    returns the same shape.  C(1) is exactly 1.
    """
    levels = _as_levels(n)
    # a denominator that overflows to inf gives the right limit, capacity 0
    with np.errstate(over="ignore"):
        out = _capacity(levels, levels - 1.0, params.alpha, params.beta)
    return float(out) if levels.ndim == 0 else out


def amdahl_capacity(n: ArrayLike, alpha: float):
    """Relative capacity n / (1 + alpha*(n - 1)) with no coherency term.

    Equal bit-for-bit to usl_capacity with beta = 0.  The asymptote for
    large n is 1/alpha; capacity never exceeds n.
    """
    return usl_capacity(n, UslParams(alpha, 0.0))


def efficiency(n: ArrayLike, capacity: ArrayLike):
    """Per-level efficiency C(n)/n.

    Values above 1 mean better-than-linear scaling, which the capacity
    ratio definition rules out; measured data showing it is suspect.
    """
    levels = _as_levels(n)
    out = np.asarray(capacity, dtype=float) / levels
    return float(out) if levels.ndim == 0 else out


def peak_concurrency(params: UslParams) -> float:
    """Concurrency at which capacity peaks.

    Returns UNBOUNDED (math.inf) when beta = 0: capacity then grows
    monotonically and has no finite maximum.
    """
    if params.beta == 0.0:
        return UNBOUNDED
    return math.sqrt((1.0 - params.alpha) / params.beta)


def practical_peak(params: UslParams) -> float:
    """Best integer concurrency level, UNBOUNDED when there is no peak.

    The real-valued peak is rarely an integer; this returns whichever of
    its integer neighbours (at least 1) gives the larger capacity, the
    smaller level on a tie.
    """
    nc = peak_concurrency(params)
    if math.isinf(nc):
        return UNBOUNDED
    lo = max(1.0, float(math.floor(nc)))
    hi = max(1.0, float(math.ceil(nc)))
    if lo == hi:
        return lo
    # usl_capacity's operations in the same order, on Python floats
    a, b = params.alpha, params.beta
    return hi if _capacity(hi, hi - 1.0, a, b) > _capacity(lo, lo - 1.0, a, b) else lo


def predict_throughput(n: ArrayLike, params: UslParams):
    """Absolute throughput x1 * C(n); requires params.x1."""
    if params.x1 is None:
        raise MissingNormalizationError(
            "params carry no single-user throughput; fit with a baseline or set x1"
        )
    cap = usl_capacity(n, params)
    return params.x1 * cap


def classify_regime(params: UslParams) -> Regime:
    """Label the asymptotic behaviour of the parameterized curve."""
    if params.beta > 0.0:
        return Regime.RETROGRADE
    if params.alpha > 0.0:
        return Regime.AMDAHL_SATURATING
    return Regime.LINEAR


@dataclass(frozen=True)
class ScalabilityCurve:
    """Sampled model curve for plotting or tabulation.

    ns are strictly increasing and start at 1, where capacity is exactly
    1.  throughputs is present only when params carry x1.
    """

    params: UslParams
    domain_max: float
    ns: np.ndarray
    capacities: np.ndarray
    throughputs: np.ndarray | None

    @property
    def samples(self) -> list[tuple]:
        """(n, capacity, throughput-or-None) rows."""
        if self.throughputs is None:
            return [(float(n), float(c), None) for n, c in zip(self.ns, self.capacities)]
        return [
            (float(n), float(c), float(x))
            for n, c, x in zip(self.ns, self.capacities, self.throughputs)
        ]


def scalability_curve(params: UslParams, domain_max: float, num: int = 100) -> ScalabilityCurve:
    """Sample the model on [1, domain_max] at num evenly spaced levels."""
    if not (domain_max > 1.0):
        raise DomainError(f"domain_max must be > 1, got {domain_max}")
    if not math.isfinite(domain_max):
        raise DomainError(f"domain_max must be finite, got {domain_max}")
    if num < 2:
        raise DomainError(f"need at least 2 samples, got {num}")
    top = float(domain_max)
    ns = np.linspace(1.0, top, int(num))
    # every level is finite and >= 1, so the capacities need no check; a
    # denominator that overflows to inf gives the right limit, capacity 0, and
    # a throughput beyond the float range is inf, which reports write as null
    with np.errstate(over="ignore"):
        caps = _capacity(ns, ns - 1.0, params.alpha, params.beta)
        xs = params.x1 * caps if params.x1 is not None else None
    return ScalabilityCurve(params, top, ns, caps, xs)
