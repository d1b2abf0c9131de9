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
import operator
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError, MissingNormalizationError

__all__ = [
    "UNBOUNDED", "UslParams", "MeasuredPoint", "Regime", "ScalabilityCurve",
    "usl_capacity", "amdahl_capacity", "efficiency", "peak_concurrency", "practical_peak",
    "predict_throughput", "classify_regime", "scalability_curve",
]

ArrayLike = Union[float, int, np.ndarray, list, tuple]

#: Marker returned by peak_concurrency when beta = 0 (no finite peak).
UNBOUNDED = math.inf

_set = object.__setattr__  # stores a field of a frozen record

# largest level a measurement may have; the fit's start sums grow as the square of the
# level over x1's ratio, and overflow from about 2**256 at fitting._MIN_RATIO; no load
# test nears 2**64
_MAX_LEVEL = 2.0 ** 64


def check_level(n: float) -> float:
    """n, a measured level; raises DomainError unless 1 <= n <= 2**64, which nan is not."""
    if not 1.0 <= n <= _MAX_LEVEL:
        raise DomainError(f"concurrency must be in [1, 2**64], got {n}")
    return n


def check_range(name: str, v: float, lo: float, hi: float = math.inf, ends: str = "[)") -> float:
    """v, when it lies between lo and hi, each end closed or open as ends' brackets say.

    Otherwise DomainError "{name} must be {rule}, got {v}"; nan lies in no interval.  The
    rule is the interval when hi is finite, else finite for an excluded +inf, positive for
    an open 0, and >= lo or > lo.
    """
    if (lo < v or lo == v and ends[0] == "[") and (v < hi or v == hi and ends[1] == "]"):
        return v
    if hi < math.inf:
        rule = f"in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    elif v == math.inf and ends[1] == ")":
        rule = "finite"
    elif lo == 0.0 and ends[0] == "(":
        rule = "positive"
    else:
        rule = f"{'>=' if ends[0] == '[' else '>'} {lo:g}"
    raise DomainError(f"{name} must be {rule}, got {v}")


def check_count(name: str, v, lo: int) -> int:
    """operator.index(v), when v is no bool and that is >= lo; otherwise DomainError."""
    try:
        if v is not True and v is not False and operator.index(v) >= lo:
            return operator.index(v)
    except TypeError:
        pass
    raise DomainError(f"{name} must be an integer >= {lo}, got {v!r}")


def _fixed(v: float, spec: str) -> str:
    """v by spec while |v| < 2**53, else by .10g, so inf and nan by name: from 2**53 on a
    fixed form prints digits that no float holds."""
    return format(v, spec if abs(v) < 2.0 ** 53 else ".10g")


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
        check_range("alpha", self.alpha, 0.0, 1.0)
        check_range("beta", self.beta, 0.0)
        if self.x1 is not None:
            check_range("x1", self.x1, 0.0, math.inf, "()")


_FRESH = object()  # MeasuredPoint's default meta: a new dict for each point


@dataclass(frozen=True, init=False)
class MeasuredPoint:
    """One throughput measurement at a concurrency level.

    n is a level in [1, 2**64] and x is finite and >= 0.  meta carries
    auxiliary per-run facts (for example the steady-window coefficient of
    variation) and never affects computation or equality.
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
        check_level(n)
        check_range("throughput", x, 0.0)
        _set(self, "n", n)
        _set(self, "x", x)
        _set(self, "meta", {} if meta is _FRESH else meta)


def _as_levels(n: ArrayLike) -> np.ndarray:
    arr = np.asarray(n, dtype=float)
    # one pass; nan fails both comparisons, and check_range names the first bad level
    if not ((arr >= 1.0) & (arr < math.inf)).all():
        for v in arr.flat:
            check_range("concurrency", float(v), 1.0)
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
    a, b = params.alpha, params.beta
    q = (1.0 - a) / b  # overflows only for a subnormal b, whose peak is finite
    return math.sqrt(q) if q < math.inf else math.sqrt(1.0 - a) / math.sqrt(b)


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
        xs = [None] * len(self.ns) if self.throughputs is None else self.throughputs.tolist()
        return list(zip(self.ns.tolist(), self.capacities.tolist(), xs))


def scalability_curve(params: UslParams, domain_max: float, num: int = 100) -> ScalabilityCurve:
    """Sample the model on [1, domain_max] at num evenly spaced levels."""
    top = float(check_range("domain_max", domain_max, 1.0, math.inf, "()"))
    ns = np.linspace(1.0, top, check_count("num", num, 2))
    # every level is finite and >= 1, so the capacities need no check; a
    # denominator that overflows to inf gives the right limit, capacity 0, and
    # a throughput beyond the float range is inf, which reports write as null
    with np.errstate(over="ignore"):
        caps = _capacity(ns, ns - 1.0, params.alpha, params.beta)
        xs = params.x1 * caps if params.x1 is not None else None
    return ScalabilityCurve(params, top, ns, caps, xs)
