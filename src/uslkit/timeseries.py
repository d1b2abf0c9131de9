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
value, then the limits.  The checks run on the values scaled by
model._scaled, as the fit does, and sum products with model._dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NoSteadyStateError, TrimExceedsRunError, UslError
from .fitting import Dataset
from .model import MeasuredPoint, _dot, _scaled, check_count, check_level, check_range

__all__ = [
    "RunSeries", "SteadyWindow", "SteadyStateConfig", "extract_steady_state", "aggregate_runs",
]


@dataclass(frozen=True, eq=False)
class RunSeries:
    """One run: (timestamp, throughput) samples at a fixed load level in [1, 2**64].

    samples is any sequence of (timestamp, throughput) pairs, such as a
    tuple of tuples or a (k, 2) array.  The run holds them once, as one
    read-only (2, k) float array: times and values are its rows, and
    samples is its (k, 2) transpose, whose rows unpack as (t, x).
    Timestamps are seconds, strictly increasing; at least 5 samples.  Runs
    compare and hash by value.
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
        tx = np.ascontiguousarray(pts.T)  # copies unless pts is already a transpose
        tx.flags.writeable = False  # before the views, which inherit it
        t, x = tx
        # each check reports its first offending sample; NaN fails every one
        (bad,) = np.nonzero(~(t[1:] > t[:-1]))
        if len(bad):
            raise DomainError(f"timestamps must strictly increase (at t={float(t[bad[0] + 1]):g})")
        (bad,) = np.nonzero(~(np.isfinite(t) & np.isfinite(x) & (x >= 0.0)))
        if len(bad):
            raise DomainError(f"throughput must be finite and >= 0 (at t={float(t[bad[0]]):g})")
        check_level(self.load)
        object.__setattr__(self, "samples", tx.T)
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
        check_count("sample_count", self.sample_count, 3)
        check_range("cv", self.cv, 0.0)


@dataclass(frozen=True)
class SteadyStateConfig:
    """How a run's window is cut: fixed trims, or MSER truncation and its acceptance checks."""

    slope_tol: float = 0.01     # max fitted |drift| and |curvature|, less 3 standard errors
    cv_max: float = 0.15        # max coefficient of variation inside the window
    min_fraction: float = 0.3   # min window duration, as a fraction of the run's
    trim: tuple[float, float] | None = None  # (trim_up, trim_down) seconds; None detects

    def __post_init__(self) -> None:
        check_range("slope_tol", self.slope_tol, 0.0, math.inf, "(]")
        check_range("cv_max", self.cv_max, 0.0, math.inf, "(]")
        check_range("min_fraction", self.min_fraction, 0.0, 1.0, "(]")
        if self.trim is not None:
            up, down = (float(v) for v in self.trim)
            object.__setattr__(self, "trim", (check_range("trim_up", up, 0.0),
                                              check_range("trim_down", down, 0.0)))


def _window_stats(x: np.ndarray) -> tuple[float, float]:
    mean = float(x.mean())
    if mean == 0.0:
        return 0.0, 0.0
    return mean, float(x.std() / mean)


def _trimmed(t: np.ndarray, x: np.ndarray, up: float, down: float) -> SteadyWindow:
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


def _rejection(t: np.ndarray, x: np.ndarray, mean: float, cv: float, total: float,
               cfg: SteadyStateConfig) -> str | None:
    """Why the window t, x of this mean and cv fails the acceptance checks, or None."""
    if not mean > 0.0:
        return f"has mean throughput {mean:.4g}"
    duration = t[-1] - t[0]
    if not duration >= cfg.min_fraction * total:
        return f"lasts {duration:.4g}s, under {cfg.min_fraction:.0%} of the {total:.4g}s run"
    if not cv <= cfg.cv_max:
        return f"has cv {cv:.4g} > {cfg.cv_max:g}"
    # the fitted drift, then the fitted quadratic's rise from its middle to
    # its ends (ramps at both ends cancel in the drift), count against
    # slope_tol only beyond 3 standard errors: noise on a plateau is no trend
    tc = t - t[0]
    tc -= tc.mean()
    v = tc / (duration / 2.0)  # 0 at the mean time, 1 half a window away
    u = v * v
    u -= u.mean() + float(_dot(u, v)) / float(_dot(v, v)) * v  # orthogonal to 1 and v
    r = x - mean
    terms = (("drift", tc, duration), ("curvature", u, 1.0))
    # each term fits the last's residual; a parabola through 3 samples leaves no error
    for df, (name, b, scale) in enumerate(terms[:len(x) - 2], 2):
        sbb = float(_dot(b, b))
        c = float(_dot(b, r)) / sbb
        r -= c * b
        se = math.sqrt(float(_dot(r, r)) / (len(x) - df) / sbb) * scale / mean
        value = abs(c) * scale / mean
        if not value - 3.0 * se <= cfg.slope_tol:
            return f"has {name} {value:.4g} (standard error {se:.2g}) > {cfg.slope_tol:g}"
    return None


def _detected(t: np.ndarray, x: np.ndarray, cfg: SteadyStateConfig) -> SteadyWindow:
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
    mean, cv = _window_stats(x[i:j])
    reason = _rejection(t[i:j], x[i:j], mean, cv, t[-1] - t[0], cfg)
    if reason is not None:
        raise NoSteadyStateError(
            f"the MSER window [{t[i]:g}s, {t[j - 1]:g}s] {reason}; a steady window needs "
            f"at least 3 samples, a positive mean, at least {cfg.min_fraction:.0%} of the run, "
            f"cv <= {cfg.cv_max:g} and drift <= {cfg.slope_tol:g} beyond 3 standard errors"
        )
    return SteadyWindow(float(t[i]), float(t[j - 1]), mean, cv, j - i)


def extract_steady_state(run: RunSeries, config: SteadyStateConfig | None = None) -> SteadyWindow:
    """Steady-state window of one run.

    Uses config's explicit trim when set, otherwise automatic detection
    under config (defaults apply when omitted).  Either runs on the values
    scaled by model._scaled; the mean is the window's, scaled back.
    """
    config = config or SteadyStateConfig()
    (x, e), t = _scaled(run.values), run.times
    w = _detected(t, x, config) if config.trim is None else _trimmed(t, x, *config.trim)
    return replace(w, mean_throughput=math.ldexp(w.mean_throughput, e))


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
