"""Independent reference implementations used only by tests.

These deliberately avoid the library's own code paths so that agreement
between the two is evidence, not tautology.
"""

from __future__ import annotations

import math

import numpy as np


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


def grid_optimum(ns, xs, x1_pin, beta_max: float = 1.0, alpha_max: float = 1.0 - 1e-12):
    """(alpha, beta, sse) minimizing the throughput sse over the box by grid search alone.

    Derivative-free, unlike the library's solver.  A dense grid over
    [0, alpha_max] x [0, beta_max] whose first row and column are the
    alpha = 0 and beta = 0 faces picks a node; then a 9 x 9 window around
    the best node is searched again and again.  When the best node is
    inside the window, the window halves around it.  When it is a strict
    improvement on an edge that is not a bound of the box, the window
    moves there and doubles, so a long valley is followed.  The search
    stops once both window widths are below 1e-10 relative, or after 400
    windows.  x1 is pinned (x1_pin) or profiled in closed form,
    x1 = <x, c> / <c, c>.
    """
    ns = np.asarray(ns, dtype=float)
    xs = np.asarray(xs, dtype=float)
    n1, nn = ns - 1.0, ns * (ns - 1.0)

    def sse(alphas, betas):
        c = ns / ((1.0 + alphas[:, None] * n1)[:, None, :] + betas[:, None] * nn)
        if x1_pin is None:
            x1 = np.einsum("abp,p->ab", c, xs) / np.einsum("abp,abp->ab", c, c)
            r = xs - x1[..., None] * c
        else:
            r = xs - x1_pin * c
        return np.einsum("abp,abp->ab", r, r)

    alphas = np.concatenate([[0.0], np.geomspace(1e-6, alpha_max, 40)])
    betas = np.concatenate([[0.0], np.geomspace(beta_max * 1e-12, beta_max, 40)])
    f = sse(alphas, betas)
    i, j = np.unravel_index(int(np.argmin(f)), f.shape)
    best = (float(alphas[i]), float(betas[j]), float(f[i, j]))
    # the first window spans the best node's neighbours on the coarse grid
    wa = [float(alphas[max(i - 1, 0)]), float(alphas[min(i + 1, alphas.size - 1)])]
    wb = [float(betas[max(j - 1, 0)]), float(betas[min(j + 1, betas.size - 1)])]
    steps = np.arange(9) / 8.0
    for _ in range(400):
        ga, gb = wa[0] + (wa[1] - wa[0]) * steps, wb[0] + (wb[1] - wb[0]) * steps
        f = sse(ga, gb)
        i, j = divmod(int(np.argmin(f)), 9)
        # the window moves only on a strict improvement, so rounding noise
        # in a flat window can not keep it wandering
        improved = f[i, j] < best[2]
        if improved:
            best = (float(ga[i]), float(gb[j]), float(f[i, j]))
        moved = False
        for w, k, centre, top in ((wa, i, best[0], alpha_max), (wb, j, best[1], beta_max)):
            edge = improved and ((k == 0 and w[0] > 0.0) or (k == 8 and w[1] < top))
            half = (w[1] - w[0]) * (1.0 if edge else 0.25)
            moved |= edge
            w[:] = [max(centre - half, 0.0), min(centre + half, top)]
        if not moved and all(w[1] - w[0] <= 1e-10 * max(w[1], 1e-6 * top)
                             for w, top in ((wa, alpha_max), (wb, beta_max))):
            break
    return best


def bootstrap_per_replicate(dataset, options=None, replicates: int = 200, seed: int = 0,
                            level: float = 0.95):
    """``bootstrap_confidence`` as one scalar fit per replicate: (BootstrapResult, draws).

    The loop the batched bootstrap replaced: replicate i draws its n
    indices with its own ``rng.integers(0, n, size=n)`` call and fits them
    with ``fit_usl``'s scalar solver, ``uslkit.fitting._fit_arrays``, with
    which the batched kernel shares only the capacity formula.  ``draws``
    holds the (alpha, beta, x1) of each replicate, in order.
    """
    from uslkit import BootstrapResult, FitOptions, fit_usl
    from uslkit.fitting import MODE_NORMALIZED, _fit_arrays

    opt = options or FitOptions()
    x1_pin = dataset.baseline.x if fit_usl(dataset, opt).mode == MODE_NORMALIZED else None
    ns, xs = dataset.ns, dataset.xs
    rng = np.random.default_rng(seed)
    draws = np.empty((replicates, 3))
    for i in range(replicates):
        idx = rng.integers(0, len(ns), size=len(ns))
        draws[i] = _fit_arrays(ns[idx], xs[idx], x1_pin, opt)
    lo = (1.0 - level) / 2.0
    q = np.quantile(draws, [lo, 1.0 - lo], axis=0)
    result = BootstrapResult(
        alpha_interval=(float(q[0, 0]), float(q[1, 0])),
        beta_interval=(float(q[0, 1]), float(q[1, 1])),
        x1_interval=(float(q[0, 2]), float(q[1, 2])),
        replicates=replicates,
        seed=seed,
        level=level,
    )
    return result, draws


def kkt_residual(points, alpha: float, beta: float, x1_pin) -> float:
    """Largest first-order optimality violation of (alpha, beta), as a cosine.

    For each coefficient, the cosine between the residual vector r and the
    derivative of r with respect to that coefficient; when x1 is profiled
    (x1_pin None) the derivative is first projected off the capacity
    vector c.  At a coefficient on its bound 0 only a negative cosine, a
    descent direction into the box, counts.  |r| is floored at 1e-8 |x|,
    so that exact fits do not measure rounding noise.
    """
    cs, da, db = [], [], []
    for n, _ in points:
        d = 1.0 + alpha * (n - 1.0) + beta * n * (n - 1.0)
        cs.append(n / d)
        da.append(n / d * (n - 1.0) / d)
        db.append(n / d * n * (n - 1.0) / d)
    cc = sum(c * c for c in cs)
    if x1_pin is None:
        x1 = sum(x * c for (_, x), c in zip(points, cs)) / cc
    else:
        x1 = x1_pin
    r = [x - x1 * c for (_, x), c in zip(points, cs)]
    r_norm = max(math.sqrt(sum(v * v for v in r)),
                 1e-8 * math.sqrt(sum(x * x for _, x in points)))
    worst = 0.0
    for value, deriv in ((alpha, da), (beta, db)):
        col = [x1 * v for v in deriv]
        if x1_pin is None:
            proj = sum(c * v for c, v in zip(cs, col)) / cc
            col = [v - proj * c for v, c in zip(col, cs)]
        col_norm = math.sqrt(sum(v * v for v in col))
        if col_norm == 0.0:
            continue
        cos = sum(v * w for v, w in zip(col, r)) / (col_norm * r_norm)
        worst = max(worst, -cos if value == 0.0 else abs(cos))
    return worst


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
