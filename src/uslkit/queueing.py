"""Closed-queue oracle behind the capacity model.

A repairman-style closed queue (N requests, one server with mean service
time s, think time z) grounds the model: its exact solution comes from
the mean-value analysis recursion, and its synchronous worst case

    X(N) >= N / (N*s + z)

normalizes to Amdahl's law with alpha = s/(s + z).  Making the service
demand grow linearly with population (a coherency penalty c added per
peer pair) turns the bound into the full capacity model with
beta = c*s/(s + z).  These correspondences are what the tests and the
synthetic-data generator lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fitting import Dataset, check_seed
from .model import MeasuredPoint, UslParams, _set, usl_capacity


@dataclass(frozen=True, init=False)
class QueueParams:
    """Closed-queue description.

    n: population (integer >= 1), s: mean service time > 0,
    z: mean think time >= 0, c: per-pair coherency penalty >= 0.
    """

    n: int
    s: float
    z: float
    c: float = 0.0

    # stores with _set; see MeasuredPoint
    def __init__(self, n: int, s: float, z: float, c: float = 0.0) -> None:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise DomainError(f"population must be an integer >= 1, got {n!r}")
        if not (s > 0.0) or not math.isfinite(s):
            raise DomainError(f"service time must be positive, got {s}")
        if z < 0.0 or not math.isfinite(z):
            raise DomainError(f"think time must be >= 0, got {z}")
        if c < 0.0 or not math.isfinite(c):
            raise DomainError(f"coherency penalty must be >= 0, got {c}")
        _set(self, "n", n)
        _set(self, "s", s)
        _set(self, "z", z)
        _set(self, "c", c)


@dataclass(frozen=True, init=False)
class QueueSolution:
    """Steady-state metrics: throughput x, residence time r (queueing
    plus service), mean number at the server q, mean wait w = r - s."""

    x: float
    r: float
    q: float
    w: float

    # stores with _set; see MeasuredPoint
    def __init__(self, x: float, r: float, q: float, w: float) -> None:
        _set(self, "x", x)
        _set(self, "r", r)
        _set(self, "q", q)
        _set(self, "w", w)


def mva_solve(params: QueueParams) -> QueueSolution:
    """Exact solution of the load-independent closed queue.

    Standard mean-value analysis recursion on population k:
        r(k) = s * (1 + q(k-1))
        x(k) = k / (r(k) + z)
        q(k) = x(k) * r(k)
    Little's law q = x * r holds by construction at every step.
    """
    if params.c != 0.0:
        raise DomainError(
            "exact MVA covers the load-independent queue; "
            "use sync_bound_capacity for the coherency extension"
        )
    s, z = params.s, params.z
    q = 0.0
    r = s
    x = 1.0 / (s + z)
    for k in range(1, params.n + 1):
        r = s * (1.0 + q)
        x = k / (r + z)
        q = x * r
    return QueueSolution(x, r, q, r - s)


def sync_bound(params: QueueParams) -> float:
    """Worst-case throughput n / (n*s + z).

    The bound assumes every request arrives at the server at once; the
    exact solution can only do better.  With z = 0 it saturates at 1/s.
    """
    return params.n / (params.n * params.s + params.z)


@dataclass(frozen=True)
class SyncBoundCapacity:
    """Normalized synchronous-bound capacity and the coefficients it
    implies.  alpha and beta stay plain floats because z = 0 pushes
    alpha to exactly 1, outside UslParams' open bound."""

    capacity: float
    alpha: float
    beta: float

    def params(self, x1: float | None = None) -> UslParams:
        """Implied coefficients as UslParams (requires alpha < 1)."""
        return UslParams(self.alpha, self.beta, x1)


def sync_bound_capacity(n, params: QueueParams) -> SyncBoundCapacity:
    """Synchronous-bound capacity at level n, with implied coefficients.

    The evaluation level n is given separately so one parameter set can
    be swept; params.n is ignored here.  The per-pair penalty c inflates
    residence by c*n*(n-1)*s, which after normalizing by the n = 1
    throughput is exactly the capacity model with

        alpha = s / (s + z),    beta = c * s / (s + z)
    """
    if not (n >= 1) or not math.isfinite(n):
        raise DomainError(f"evaluation level must be >= 1, got {n}")
    s, z, c = params.s, params.z, params.c
    x_at = lambda k: k / (k * s + c * k * (k - 1.0) * s + z)
    capacity = x_at(float(n)) / x_at(1.0)
    alpha = s / (s + z)
    return SyncBoundCapacity(capacity=capacity, alpha=alpha, beta=c * alpha)


def generate_synthetic(params: UslParams, n_values, noise: float = 0.0,
                       seed: int = 0) -> Dataset:
    """Sample the model at n_values, optionally with relative noise.

    Throughput is x1 * C(n) (x1 taken as 1 when params carry none) times
    (1 + e) with e drawn Normal(0, noise) from a seeded generator, then
    floored at zero.  noise = 0 returns exact model values and never
    touches the generator, but the seed is checked even then.  Duplicate
    levels are rejected by Dataset.
    """
    if noise < 0.0 or not math.isfinite(noise):
        raise DomainError(f"noise must be >= 0, got {noise}")
    seed = check_seed(seed)
    levels = np.asarray(list(n_values), dtype=float)
    if levels.size < 2:
        raise DomainError("need at least 2 levels to build a dataset")
    x1 = params.x1 if params.x1 is not None else 1.0
    xs = x1 * usl_capacity(levels, params)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        xs = xs * (1.0 + rng.normal(0.0, noise, size=levels.size))
        xs = np.maximum(xs, 0.0)
    return Dataset(tuple(MeasuredPoint(float(n), float(x)) for n, x in zip(levels, xs)))
