"""Steady-state extraction from load-test time series.

A measurement for the capacity model must come from the flat part of a
run: ramp-up and ramp-down samples drag the mean and corrupt the fit.
Two modes are supported.  Explicit trimming cuts fixed lead-in and
lead-out durations.  Automatic detection finds the longest window whose
fitted trend is flat (relative drift across the window below slope_tol)
and whose coefficient of variation stays below cv_max.  Dips inside the
window (GC pauses, compaction stalls) are part of steady state and are
deliberately not outlier-rejected; they belong in the mean.

Detection picks the longest qualifying window, and among windows of equal
duration the one with the earliest start.  The search scores window sizes
(sample counts) from the whole run down, a block of consecutive sizes per
numpy pass, and stops before the first block whose longest possible window
is shorter than the minimum duration or strictly shorter than the best
window found so far.  Durations are monotone under IEEE subtraction, so
the stop is exact: the search returns the window an exhaustive scan of
every (start, end) pair would.  The comparison is strict because, with
irregular timestamps, a window with fewer samples and an earlier start can
tie the best duration.  A run with no qualifying window is scored down to
the minimum duration and still costs O(k^2) in the number of samples k.
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
    float array, whose rows unpack as (t, x).  Timestamps are seconds,
    strictly increasing; at least 5 samples.  trim, when set, gives
    explicit (lead_in, lead_out) seconds to drop and switches extraction
    to the explicit mode.  Runs compare and hash by value.
    """

    load: float
    samples: np.ndarray
    trim: tuple[float, float] | None = None

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
        if self.trim is not None:
            up, down = (float(v) for v in self.trim)
            if not all(math.isfinite(v) and v >= 0.0 for v in (up, down)):
                raise DomainError("trim durations must be finite and >= 0")
            object.__setattr__(self, "trim", (up, down))
        for a in (pts, t, x):
            a.flags.writeable = False
        object.__setattr__(self, "samples", pts)
        object.__setattr__(self, "_times", t)
        object.__setattr__(self, "_values", x)

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.load, self.trim) == (other.load, other.trim) and bool(
            np.array_equal(self.samples, other.samples)
        )

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, so runs that compare equal hash equal
        return hash((self.load, self.trim, (self.samples + 0.0).tobytes()))


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
    slope_tol: float = 0.01     # max |fitted drift| across the window, relative to mean
    cv_max: float = 0.15        # max coefficient of variation inside the window
    min_fraction: float = 0.3   # window must span this fraction of the run

    def __post_init__(self) -> None:
        if not (self.slope_tol > 0.0 and self.cv_max > 0.0):
            raise DomainError("slope_tol and cv_max must be positive")
        if not (0.0 < self.min_fraction <= 1.0):
            raise DomainError("min_fraction must be in (0, 1]")


def _window_stats(x: np.ndarray) -> tuple[float, float]:
    mean = float(x.mean())
    if mean == 0.0:
        return 0.0, 0.0
    return mean, float(x.std() / mean)


def _trimmed(run: RunSeries) -> SteadyWindow:
    t, x = run.times, run.values
    up, down = run.trim
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


_BLOCK_PAIRS = 1 << 13  # (size, start) pairs scored per numpy pass


def _size_blocks(k: int):
    """(lo, top) ranges of window sizes from k down to 3, one per numpy pass.

    A block of n sizes below top has n * (k - top + n) (size, start)
    pairs; n is the largest that keeps this within _BLOCK_PAIRS.
    """
    top = k
    while top >= 3:
        a = k - top
        n = min(top - 2, max(1, (math.isqrt(a * a + 4 * _BLOCK_PAIRS) - a) // 2))
        yield top - n + 1, top
        top -= n


def _detected(run: RunSeries, cfg: SteadyStateConfig) -> SteadyWindow:
    t, x = run.times, run.values
    k = len(t)
    total = t[-1] - t[0]
    # prefix sums make every window's mean, variance and fitted slope O(1);
    # timestamps are centered on t[0] so the slope terms do not cancel
    tc = t - t[0]
    zt = np.concatenate([[0.0], np.cumsum(tc)])
    zx = np.concatenate([[0.0], np.cumsum(x)])
    ztt = np.concatenate([[0.0], np.cumsum(tc * tc)])
    zxx = np.concatenate([[0.0], np.cumsum(x * x)])
    ztx = np.concatenate([[0.0], np.cumsum(tc * x)])

    floor = cfg.min_fraction * total

    # ends[:, p] holds the five prefix sums at p and t[p - 1], the terms at
    # a window's end p = i + m; starts[:, i] holds the same at its start i.
    # NaN tails make the pairs past the last sample fail every comparison.
    ends = np.full((6, 2 * k + 1), np.nan)
    ends[:5, :k + 1] = zt, zx, ztt, zxx, ztx
    ends[5, 1:k + 1] = t
    starts = np.stack([zt[:k], zx[:k], ztt[:k], zxx[:k], ztx[:k], t])

    # Selection rule: the longest valid window, ties to the earliest start.
    # Window sizes m = j - i + 1 are scored from k down, a block of sizes
    # per pass over (size x start).  Before each block, dmax is the longest
    # duration of any window of at most `top` samples: IEEE subtraction is
    # monotone, so t[j] - t[i] grows with j and shrinks with i.  Once dmax
    # falls below the floor, or strictly below the best duration, no
    # remaining window can win.  A tie must still be scored, because with
    # irregular timestamps an earlier start can reach the same duration
    # with fewer samples.  The result is that of the full scan; a run with
    # no valid window still scores O(k^2) pairs.
    best = None  # (duration, -start_index, j)
    for lo, top in _size_blocks(k):
        dmax = (t[top - 1:] - t[:k - top + 1]).max()
        if dmax < floor or (best is not None and dmax < best[0]):
            break
        n = top - lo + 1
        c = k - lo + 1
        m = np.arange(lo, top + 1, dtype=float)[:, None]
        # (sums, duration)[size m, start i] for m = lo .. top, i = 0 .. c - 1
        win = np.lib.stride_tricks.sliding_window_view(ends[:, lo:lo + c + n - 1], n, axis=1)
        st, sx, stt, sxx, stx, duration = win.transpose(0, 2, 1) - starts[:, None, :c]
        mean = sx / m
        var = np.maximum(sxx / m - mean * mean, 0.0)
        den = m * stt - st * st
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (m * stx - st * sx) / den
            # cv and drift matter only where mean > 0, which valid requires
            cv = np.sqrt(var) / mean
            drift = np.abs(slope) * duration / mean
            valid = (mean > 0.0) & (cv <= cfg.cv_max) & (drift <= cfg.slope_tol) & (
                duration >= floor
            )
        if valid.any():
            d = duration[valid].max()
            r, i = np.nonzero(valid & (duration == d))
            first = i.min()
            j = (i + r)[i == first].max() + lo - 1
            cand = (float(d), -int(first), int(j))
            if best is None or cand > best:
                best = cand
    if best is None:
        raise NoSteadyStateError(
            f"no window of at least {cfg.min_fraction:.0%} of the run satisfies "
            f"drift <= {cfg.slope_tol:g} and cv <= {cfg.cv_max:g}"
        )
    _, neg_i, j = best
    i = -neg_i
    mean, cv = _window_stats(x[i:j + 1])
    return SteadyWindow(float(t[i]), float(t[j]), mean, cv, j - i + 1)


def extract_steady_state(run: RunSeries, config: SteadyStateConfig | None = None) -> SteadyWindow:
    """Steady-state window of one run.

    Uses the run's explicit trim when present, otherwise automatic
    detection under config (defaults apply when omitted).  The mean is
    the plain arithmetic mean over the window.
    """
    if run.trim is not None:
        return _trimmed(run)
    return _detected(run, config or SteadyStateConfig())


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
