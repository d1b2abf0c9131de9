"""Steady-state extraction from load-test time series.

A measurement for the capacity model must come from the flat part of a
run: ramp-up and ramp-down samples drag the mean and corrupt the fit.
Two modes are supported, and SteadyStateConfig chooses between them for
a whole analysis.  Explicit trimming, when its trim is set, cuts fixed
lead-in and lead-out durations.  Otherwise automatic detection truncates
both ends by MSER, the marginal standard error rule (White 1997; Hoad,
Robinson & Davies 2010): a cut of d samples from the front minimizes the
squared deviations of the kept samples about their own mean, divided by
the square of their count.
Detection cuts the front of the run, then the back of what remains, and
repeats until a pass cuts nothing; no cut leaves fewer than ceil(k/2) of
the run's k samples, or the cuts of successive passes compound on short
noisy runs.  Each cut is O(k), from suffix sums.  Dips inside the window
(GC pauses, compaction stalls) are part of steady state and are
deliberately not outlier-rejected; they belong in the mean.

The window MSER keeps is then checked, not searched for: it needs at
least 3 samples, a positive mean, a duration of at least min_fraction of
the run, a coefficient of variation of at most cv_max, and a fitted drift
(|slope| x duration / mean) of at most slope_tol once 3 standard errors of
the fit are allowed for.  Without that allowance the drift of pure noise
on a 61-sample plateau with 3% noise exceeds the default slope_tol about
half the time.  The same bound holds the curvature of a window of 4 or
more samples, the rise of a fitted quadratic from its middle to its ends:
ramps at both ends cancel in the drift.  A window that fails any check
raises NoSteadyStateError naming the window, the check and its measured
value, then the limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoSteadyStateError, TrimExceedsRunError, UslError
from .fitting import Dataset
from .model import MeasuredPoint


@dataclass(frozen=True, eq=False)
class RunSeries:
    """One run: (timestamp, throughput) samples at a fixed load level.

    samples is any sequence of (timestamp, throughput) pairs, such as a
    tuple of tuples or a (k, 2) array; it is stored as a read-only (k, 2)
    float array, whose rows unpack as (t, x); times and values are its
    columns, as read-only arrays of their own.  Timestamps are seconds,
    strictly increasing; at least 5 samples.  Runs compare and hash by
    value.
    """

    load: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.samples, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DomainError("samples must be (timestamp, throughput) pairs")
        k = len(pts)
        if k < 5:
            raise DomainError(f"a run needs at least 5 samples, got {k}")
        t, x = pts[:, 0].copy(), pts[:, 1].copy()
        # each check reports its first offending sample; NaN fails every one
        (bad,) = np.nonzero(~(t[1:] > t[:-1]))
        if len(bad):
            raise DomainError(f"timestamps must strictly increase (at t={float(t[bad[0] + 1]):g})")
        (bad,) = np.nonzero(~(np.isfinite(t) & np.isfinite(x) & (x >= 0.0)))
        if len(bad):
            raise DomainError(f"throughput must be finite and >= 0 (at t={float(t[bad[0]]):g})")
        if not (self.load >= 1.0) or not math.isfinite(self.load):
            raise DomainError(f"load must be >= 1, got {self.load}")
        for a in (pts, t, x):
            a.flags.writeable = False
        object.__setattr__(self, "samples", pts)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", x)

    def __reduce__(self):  # pickle and copy rebuild through __post_init__: arrays read-only
        return type(self), (self.load, self.samples)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.load == other.load and bool(np.array_equal(self.samples, other.samples))

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, so runs that compare equal hash equal
        return hash((self.load, (self.samples + 0.0).tobytes()))


@dataclass(frozen=True)
class SteadyWindow:
    start: float
    end: float
    mean_throughput: float
    cv: float
    sample_count: int

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise DomainError("window must have positive duration")
        if self.sample_count < 3:
            raise DomainError("window must contain at least 3 samples")
        if self.cv < 0.0:
            raise DomainError("cv cannot be negative")


@dataclass(frozen=True)
class SteadyStateConfig:
    """How a run's window is cut: fixed trims, or MSER truncation and its acceptance checks."""

    slope_tol: float = 0.01     # max fitted |drift| and |curvature|, less 3 standard errors
    cv_max: float = 0.15        # max coefficient of variation inside the window
    min_fraction: float = 0.3   # min window duration, as a fraction of the run's
    trim: tuple[float, float] | None = None  # (lead_in, lead_out) seconds; None detects

    def __post_init__(self) -> None:
        for name in ("slope_tol", "cv_max"):
            if not (getattr(self, name) > 0.0):
                raise DomainError(f"{name} must be positive")
        if not (0.0 < self.min_fraction <= 1.0):
            raise DomainError("min_fraction must be in (0, 1]")
        if self.trim is not None:
            up, down = (float(v) for v in self.trim)
            if not all(math.isfinite(v) and v >= 0.0 for v in (up, down)):
                raise DomainError("trim durations must be finite and >= 0")
            object.__setattr__(self, "trim", (up, down))


def _window_stats(x: np.ndarray) -> tuple[float, float]:
    mean = float(x.mean())
    if mean == 0.0:
        return 0.0, 0.0
    return mean, float(x.std() / mean)


def _trimmed(run: RunSeries, up: float, down: float) -> SteadyWindow:
    t, x = run.times, run.values
    start = t[0] + up
    end = t[-1] - down
    if not start < end:
        raise TrimExceedsRunError(
            f"trim ({up:g}s, {down:g}s) leaves no interval in a "
            f"{t[-1] - t[0]:g}s run"
        )
    mask = (t >= start) & (t <= end)
    if int(mask.sum()) < 3:
        raise TrimExceedsRunError(
            f"trim ({up:g}s, {down:g}s) leaves {int(mask.sum())} samples; need 3"
        )
    mean, cv = _window_stats(x[mask])
    return SteadyWindow(float(start), float(end), mean, cv, int(mask.sum()))


def _mser_cut(x: np.ndarray, most: int) -> int:
    """MSER truncation point of x: the d in 0 .. most minimizing
    sum((x[d:] - mean(x[d:]))**2) / (len(x) - d)**2.  _detected passes the
    most that leaves half of the run, which is never over len(x) // 2.

    The suffix sums run over x centred on its mean, so they do not cancel.
    Scores within rounding of the minimum tie, and the smallest d wins: a
    constant series keeps every sample.
    """
    n = len(x)
    y = x - x.mean()
    h = most + 1
    s1 = np.cumsum(y[::-1])[::-1][:h]
    s2 = np.cumsum((y * y)[::-1])[::-1][:h]
    m = np.arange(n, n - h, -1, dtype=float)
    score = np.maximum(s2 - s1 * s1 / m, 0.0) / (m * m)
    # a sum of m terms rounds by up to m ulps of s2, which moves the score
    # by up to eps * s2 / m
    tol = 16.0 * np.finfo(float).eps * s2 / m
    return int(np.argmax(score <= score.min() + tol))


def _rejection(t: np.ndarray, x: np.ndarray, total: float, cfg: SteadyStateConfig) -> str | None:
    """Why the window t, x fails the acceptance checks, or None when it passes."""
    mean, cv = _window_stats(x)
    if not mean > 0.0:
        return f"has mean throughput {mean:.4g}"
    duration = t[-1] - t[0]
    if not duration >= cfg.min_fraction * total:
        return f"lasts {duration:.4g}s, under {cfg.min_fraction:.0%} of the {total:.4g}s run"
    if not cv <= cfg.cv_max:
        return f"has cv {cv:.4g} > {cfg.cv_max:g}"
    # the fitted drift counts against slope_tol only beyond 3 standard
    # errors of the fit, so that noise on a short plateau is not a trend
    tc = t - t[0]
    tc -= tc.mean()
    stt = float(np.dot(tc, tc))
    slope = float(np.dot(tc, x - mean)) / stt
    r = x - mean - slope * tc
    se = math.sqrt(float(np.dot(r, r)) / (len(x) - 2) / stt) * duration / mean
    drift = abs(slope) * duration / mean
    if not drift - 3.0 * se <= cfg.slope_tol:
        return f"has drift {drift:.4g} (standard error {se:.2g}) > {cfg.slope_tol:g}"
    if len(x) == 3:  # a parabola through 3 samples leaves no error to judge it by
        return None
    # ramps at both ends cancel in the drift but bend the window: the fitted
    # quadratic's rise from its middle to its ends counts the same way
    v = tc / (duration / 2.0)  # 0 at the mean time, 1 half a window away
    u = v * v
    u -= u.mean() + float(np.dot(u, v)) / float(np.dot(v, v)) * v  # orthogonal to 1 and v
    suu = float(np.dot(u, u))
    c = float(np.dot(u, r)) / suu
    r -= c * u
    se = math.sqrt(float(np.dot(r, r)) / (len(x) - 3) / suu) / mean
    if not abs(c) / mean - 3.0 * se <= cfg.slope_tol:
        return f"has curvature {abs(c) / mean:.4g} (standard error {se:.2g}) > {cfg.slope_tol:g}"
    return None


def _detected(run: RunSeries, cfg: SteadyStateConfig) -> SteadyWindow:
    t, x = run.times, run.values
    # Two-sided MSER: cut the front of the window, then the back of what
    # remains, until a pass cuts nothing.  A pass that cuts shrinks the
    # window, so the loop ends; each pass is O(k).
    i, j = 0, len(x)
    keep = (len(x) + 1) // 2  # no cut leaves fewer than half of the run's samples
    while True:
        front = _mser_cut(x[i:j], j - i - keep)
        i += front
        back = _mser_cut(x[i:j][::-1], j - i - keep)
        j -= back
        if front == back == 0:
            break
    reason = _rejection(t[i:j], x[i:j], t[-1] - t[0], cfg)
    if reason is not None:
        raise NoSteadyStateError(
            f"the MSER window [{t[i]:g}s, {t[j - 1]:g}s] {reason}; a steady window needs "
            f"at least 3 samples, a positive mean, at least {cfg.min_fraction:.0%} of the run, "
            f"cv <= {cfg.cv_max:g} and drift <= {cfg.slope_tol:g} beyond 3 standard errors"
        )
    mean, cv = _window_stats(x[i:j])
    return SteadyWindow(float(t[i]), float(t[j - 1]), mean, cv, j - i)


def extract_steady_state(run: RunSeries, config: SteadyStateConfig | None = None) -> SteadyWindow:
    """Steady-state window of one run.

    Uses config's explicit trim when set, otherwise automatic detection
    under config (defaults apply when omitted).  The mean is the plain
    arithmetic mean over the window.
    """
    config = config or SteadyStateConfig()
    if config.trim is not None:
        return _trimmed(run, *config.trim)
    return _detected(run, config)


def aggregate_runs(runs, config: SteadyStateConfig | None = None) -> Dataset:
    """Reduce runs to a fittable dataset of (load, steady mean) points.

    Loads must be distinct.  Extraction failures are re-raised with the
    offending load named.  Each point carries the window cv in its meta.
    """
    runs = list(runs)
    seen: set[float] = set()
    for r in runs:
        if r.load in seen:
            raise DomainError(f"duplicate load level {r.load:g} across runs")
        seen.add(r.load)
    points = []
    for r in runs:
        try:
            w = extract_steady_state(r, config)
        except UslError as e:
            raise type(e)(f"run at load {r.load:g}: {e}") from e
        points.append(
            MeasuredPoint(r.load, w.mean_throughput, meta={"cv": w.cv, "samples": w.sample_count})
        )
    return Dataset(tuple(points))
