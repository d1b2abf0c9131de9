"""Independent reference implementations used only by tests.

These deliberately avoid the library's own code paths so that agreement
between the two is evidence, not tautology.
"""

from __future__ import annotations


def birth_death_queue(n: int, s: float, z: float) -> tuple[float, float]:
    """Steady state of the closed single-server queue by direct balance.

    State k is the number of requests at the server (queued plus in
    service).  Up-rate out of k is (n - k)/z, down-rate is 1/s, so the
    stationary weights follow w[k+1] = w[k] * (n - k) * s / z.
    Returns (throughput, mean number at server).  Needs z > 0.
    """
    weights = [1.0]
    for k in range(n):
        weights.append(weights[-1] * (n - k) * s / z)
    total = sum(weights)
    p = [w / total for w in weights]
    throughput = (1.0 - p[0]) / s
    mean_at_server = sum(k * pk for k, pk in enumerate(p))
    return throughput, mean_at_server


def capacity_by_hand(n: float, alpha: float, beta: float) -> float:
    """Capacity via explicit denominator assembly, no shared helpers."""
    contention = alpha * (n - 1.0)
    coherency = beta * n * (n - 1.0)
    return n / (1.0 + contention + coherency)


def sum_squared_residuals(points, alpha: float, beta: float, x1: float) -> float:
    """Plain-loop sse for cross-checking vectorized fit internals."""
    total = 0.0
    for n, x in points:
        r = x - x1 * capacity_by_hand(n, alpha, beta)
        total += r * r
    return total


def steady_window_full_scan(times, values, cfg):
    """Steady-state window by scanning every (start, end) pair.

    The exhaustive search that ``uslkit.timeseries`` prunes: same
    prefix-sum formulas, same ``(duration, -start, end)`` maximum, same
    error message, but every start is tried against every end.  Returns
    a ``SteadyWindow``; raises ``NoSteadyStateError`` when no window
    qualifies.
    """
    import numpy as np

    from uslkit import NoSteadyStateError, SteadyWindow

    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    k = len(t)
    total = t[-1] - t[0]
    tc = t - t[0]
    zt = np.concatenate([[0.0], np.cumsum(tc)])
    zx = np.concatenate([[0.0], np.cumsum(x)])
    ztt = np.concatenate([[0.0], np.cumsum(tc * tc)])
    zxx = np.concatenate([[0.0], np.cumsum(x * x)])
    ztx = np.concatenate([[0.0], np.cumsum(tc * x)])

    best = None  # (duration, -start_index, j)
    for i in range(k - 2):
        j = np.arange(i + 2, k)
        m = j - i + 1
        st = zt[j + 1] - zt[i]
        sx = zx[j + 1] - zx[i]
        stt = ztt[j + 1] - ztt[i]
        sxx = zxx[j + 1] - zxx[i]
        stx = ztx[j + 1] - ztx[i]
        mean = sx / m
        var = np.maximum(sxx / m - mean * mean, 0.0)
        duration = t[j] - t[i]
        den = m * stt - st * st
        slope = (m * stx - st * sx) / den
        with np.errstate(divide="ignore", invalid="ignore"):
            cv = np.where(mean > 0.0, np.sqrt(var) / np.where(mean > 0, mean, 1.0), np.inf)
            drift = np.where(mean > 0.0, np.abs(slope) * duration / np.where(mean > 0, mean, 1.0), np.inf)
        valid = (mean > 0.0) & (cv <= cfg.cv_max) & (drift <= cfg.slope_tol) & (
            duration >= cfg.min_fraction * total
        )
        if valid.any():
            idx = int(np.where(valid)[0][-1])  # longest duration for this start
            cand = (float(duration[idx]), -i, int(j[idx]))
            if best is None or cand > best:
                best = cand
    if best is None:
        raise NoSteadyStateError(
            f"no window of at least {cfg.min_fraction:.0%} of the run satisfies "
            f"drift <= {cfg.slope_tol:g} and cv <= {cfg.cv_max:g}"
        )
    _, neg_i, j = best
    i = -neg_i
    w = x[i:j + 1]
    mean = float(w.mean())
    cv = 0.0 if mean == 0.0 else float(w.std() / mean)
    return SteadyWindow(float(t[i]), float(t[j]), mean, cv, j - i + 1)
