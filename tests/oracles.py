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
    with ``fit_usl``'s scalar solver, ``uslkit.fitting._minimize``, with
    which the batched kernel shares only the capacity formula.  ``draws``
    holds the (alpha, beta, x1) of each replicate, in order.  The intervals
    leave out, and ``dropped`` counts, the replicates whose levels cannot
    identify (alpha, beta): fewer than two distinct levels above n = 1 with
    x1 pinned, fewer than three with x1 fitted.
    """
    from uslkit import BootstrapResult, FitOptions, fit_usl
    from uslkit.fitting import MODE_NORMALIZED, _minimize

    opt = options or FitOptions()
    x1_pin = dataset.baseline.x if fit_usl(dataset, opt).mode == MODE_NORMALIZED else None
    ns, xs = dataset.ns, dataset.xs
    rng = np.random.default_rng(seed)
    draws = np.empty((replicates, 3))
    identified = []
    for i in range(replicates):
        idx = rng.integers(0, len(ns), size=len(ns))
        alpha, beta, _, _, x1, _ = _minimize(ns[idx], xs[idx], x1_pin, opt)
        draws[i] = alpha, beta, x1
        if x1_pin is None:
            identified.append(len(set(ns[idx].tolist())) >= 3)
        else:
            identified.append(len({n for n in ns[idx].tolist() if n > 1.0}) >= 2)
    lo = (1.0 - level) / 2.0
    q = np.quantile(draws[identified], [lo, 1.0 - lo], axis=0)
    result = BootstrapResult(
        alpha_interval=(float(q[0, 0]), float(q[1, 0])),
        beta_interval=(float(q[0, 1]), float(q[1, 1])),
        x1_interval=(float(q[0, 2]), float(q[1, 2])),
        replicates=replicates,
        seed=seed,
        level=level,
        dropped=identified.count(False),
    )
    return result, draws


_ALPHA_MAX = 1.0 - 1e-12
_ROUNDING = 1e-16


def _total(a):
    """Sums along the first axis, each added one level at a time from 0.0 in level order."""
    a = np.asarray(a, dtype=float)
    return np.cumsum(np.concatenate([np.zeros((1,) + a.shape[1:]), a]), axis=0)[-1]


def _capacity(ns, alpha, beta):
    return ns / (1.0 + alpha * (ns - 1.0) + beta * ns * (ns - 1.0))


def _residuals(ns, xs, x1_pin, theta):
    d = 1.0 + theta[0] * (ns - 1.0) + theta[1] * ns * (ns - 1.0)
    c = ns / d
    x1 = x1_pin if x1_pin is not None else _total(xs * c) / _total(c * c)
    return xs - x1 * c, c, d, x1


def _linear_start(ns, xs, x1_pin, basis, beta_max):
    keep = xs > 0.0
    ns, xs, basis = ns[keep], xs[keep], basis[keep]
    if ns.size == 0:
        return np.zeros(2)
    if x1_pin is None:
        low = int(np.argmin(ns))
        x1_pin = xs[low] / ns[low]
    w = xs * xs / (x1_pin * ns)
    a = w[:, None] * basis
    y = w * (ns * x1_pin / xs - 1.0)
    g, h = _total(a[:, :, None] * a[:, None, :]), _total(a * y[:, None])
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if det > 0.0:
        theta = np.array([g[1, 1] * h[0] - g[0, 1] * h[1], g[0, 0] * h[1] - g[1, 0] * h[0]]) / det
        if theta.min() >= 0.0:
            return np.minimum(theta, [_ALPHA_MAX, beta_max])
    candidates = []
    if g[0, 0] > 0.0:
        candidates.append(np.array([max(h[0] / g[0, 0], 0.0), 0.0]))
    if g[1, 1] > 0.0:
        candidates.append(np.array([0.0, max(h[1] / g[1, 1], 0.0)]))
    candidates.append(np.zeros(2))
    theta = min(candidates, key=lambda t: t @ g @ t - 2.0 * (h @ t))
    return np.minimum(theta, [_ALPHA_MAX, beta_max])


def _polish(ns, xs, x1_pin, basis, theta, opt):
    hi = np.array([_ALPHA_MAX, opt.beta_max])
    floor = _ROUNDING * math.sqrt(float(_total(xs * xs)))
    r, c, d, x1 = _residuals(ns, xs, x1_pin, theta)
    f = float(_total(r * r))
    lam = 1e-3
    fresh = True
    for _ in range(opt.max_refine_iter):
        if fresh:
            jac = (x1 * c / d)[:, None] * basis
            if x1_pin is None:
                jac -= c[:, None] * (_total(c[:, None] * jac) / _total(c * c))
            g = _total(jac * r[:, None])
            norms = np.sqrt(_total(jac * jac))
            free = (norms > 0.0) & ~(((theta <= 0.0) & (g > 0.0)) | ((theta >= hi) & (g < 0.0)))
            if not free.any():
                break
            scale = np.where(free, norms, np.inf)
            v = -g / scale
            rho = (float(_total(jac[:, 0] * jac[:, 1])) / float(norms[0] * norms[1])
                   if free.all() else 0.0)
            fresh = False
        m = 1.0 + lam
        u = (m * v - rho * v[::-1]) / (m * m - rho * rho)
        if math.hypot(u[0], u[1]) <= floor:
            break
        cand = np.clip(theta + u / scale, 0.0, hi)
        if (cand == theta).all():
            break
        rc, cc, dc, x1c = _residuals(ns, xs, x1_pin, cand)
        fc = float(_total(rc * rc))
        if fc < f:
            done = f - fc <= opt.refine_tol * f
            theta, r, c, d, x1, f = cand, rc, cc, dc, x1c, fc
            if done:
                break
            lam = max(lam / 3.0, 1e-12)
            fresh = True
        else:
            lam *= 4.0
    return theta, f


def _minimize(ns, xs, x1_pin, opt):
    basis = np.stack([ns - 1.0, ns * (ns - 1.0)], axis=1)
    start = _linear_start(ns, xs, x1_pin, basis, opt.beta_max)
    theta, f = _polish(ns, xs, x1_pin, basis, start, opt)
    bound = f + opt.refine_tol * max(f, 1e-16 * float(_total(xs * xs)))
    for face in ((theta[0], 0.0), (0.0, theta[1]), (0.0, 0.0)):
        r, _, _, _ = _residuals(ns, xs, x1_pin, face)
        if float(_total(r * r)) <= bound:
            return float(face[0]), float(face[1])
    return float(theta[0]), float(theta[1])


def minimize_vector_reference(ns, xs, x1_pin, opt) -> tuple[float, float, float]:
    """(alpha, beta, x1) from the scalar solver, written with numpy vectors.

    The linearized NNLS start, the bounded Levenberg-Marquardt polish with
    Kaufman's Jacobian and the face tie rule, with theta, the gradient, the
    column norms and the step held in numpy arrays and clipped with
    ``np.clip``.  The arithmetic is the library's: each capacity divides n
    by 1 + alpha*(n-1) + beta*n*(n-1), the Jacobian reuses that
    denominator, and every sum adds its terms one level at a time from 0.0
    (``np.cumsum``, never BLAS or pairwise summation).  The library must
    agree with it bit for bit; a zero sum of squares divides as IEEE says.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha, beta = _minimize(ns, xs, x1_pin, opt)
        _, _, _, x1 = _residuals(ns, xs, x1_pin, (alpha, beta))
    return alpha, beta, float(x1)


def _rowdot(a, b):
    return np.einsum("rp,rp->r", a, b)


def _profile_rows(ns, xs, x1_pin, theta):
    c = _capacity(ns, theta[:, :1], theta[:, 1:])
    x1 = np.full(len(ns), x1_pin) if x1_pin is not None else _rowdot(xs, c) / _rowdot(c, c)
    return xs - x1[:, None] * c, c, x1


def _linear_start_rows(ns, xs, x1_pin, b0, b1, beta_max):
    keep = xs > 0.0
    if x1_pin is None:
        low = np.argmin(np.where(keep, ns, np.inf), axis=1)[:, None]
        x1 = np.take_along_axis(xs, low, 1) / np.take_along_axis(ns, low, 1)
    else:
        x1 = x1_pin
    w = np.where(keep, xs * xs / (x1 * ns), 0.0)
    y = np.where(keep, w * (ns * x1 / xs - 1.0), 0.0)
    a0, a1 = w * b0, w * b1
    g00, g01, g11 = _rowdot(a0, a0), _rowdot(a0, a1), _rowdot(a1, a1)
    h0, h1 = _rowdot(a0, y), _rowdot(a1, y)
    det = g00 * g11 - g01 * g01
    inner = np.stack([g11 * h0 - g01 * h1, g00 * h1 - g01 * h0], axis=1) / det[:, None]
    interior = (det > 0.0) & (inner.min(axis=1) >= 0.0)
    fa = np.maximum(h0 / g00, 0.0)
    fb = np.maximum(h1 / g11, 0.0)
    oa = np.where(g00 > 0.0, fa * g00 * fa - 2.0 * (h0 * fa), np.inf)
    ob = np.where(g11 > 0.0, fb * g11 * fb - 2.0 * (h1 * fb), np.inf)
    on_a = (oa <= ob) & (oa <= 0.0)
    on_b = ~on_a & (ob <= 0.0)
    face = np.stack([np.where(on_a, fa, 0.0), np.where(on_b, fb, 0.0)], axis=1)
    theta = np.where(interior[:, None], inner, face)
    return np.minimum(theta, [_ALPHA_MAX, beta_max])


def _polish_rows(ns, xs, x1_pin, b0, b1, theta, opt):
    out_theta, out_f = np.empty_like(theta), np.empty(len(ns))
    hi = np.array([_ALPHA_MAX, opt.beta_max])
    floor = _ROUNDING * np.sqrt(_rowdot(xs, xs))
    r, c, x1 = _profile_rows(ns, xs, x1_pin, theta)
    f = _rowdot(r, r)
    live = np.arange(len(ns))
    lam = np.full(len(ns), 1e-3)
    fresh = np.ones(len(ns), dtype=bool)
    v, scale, rho = np.zeros((len(ns), 2)), np.ones((len(ns), 2)), np.zeros(len(ns))
    for _ in range(opt.max_refine_iter):
        stop = np.zeros(live.size, dtype=bool)
        k = np.flatnonzero(fresh)
        if k.size:
            ck, tk = c[k], theta[k]
            s = x1[k, None] * ck / (1.0 + tk[:, :1] * b0[k] + tk[:, 1:] * b1[k])
            jac = np.stack([s * b0[k], s * b1[k]], axis=1)
            if x1_pin is None:
                jac -= ck[:, None, :] * (np.einsum("rkp,rp->rk", jac, ck)
                                         / _rowdot(ck, ck)[:, None])[:, :, None]
            g = np.einsum("rkp,rp->rk", jac, r[k])
            norms = np.sqrt(np.einsum("rkp,rkp->rk", jac, jac))
            free = (norms > 0.0) & ~(((tk <= 0.0) & (g > 0.0)) | ((tk >= hi) & (g < 0.0)))
            stop[k] = ~free.any(axis=1)
            scale[k] = np.where(free, norms, np.inf)
            v[k] = -g / scale[k]
            cos = _rowdot(jac[:, 0], jac[:, 1]) / (norms[:, 0] * norms[:, 1])
            rho[k] = np.where(free.all(axis=1), cos, 0.0)
        m = 1.0 + lam
        u = (m[:, None] * v - rho[:, None] * v[:, ::-1]) / (m * m - rho * rho)[:, None]
        cand = np.clip(theta + u / scale, 0.0, hi)
        stop |= (np.hypot(u[:, 0], u[:, 1]) <= floor) | (cand == theta).all(axis=1)
        rc, cc, x1c = _profile_rows(ns, xs, x1_pin, cand)
        fc = _rowdot(rc, rc)
        fresh = (fc < f) & ~stop
        stop |= fresh & (f - fc <= opt.refine_tol * f)
        theta = np.where(fresh[:, None], cand, theta)
        r = np.where(fresh[:, None], rc, r)
        c = np.where(fresh[:, None], cc, c)
        x1 = np.where(fresh, x1c, x1)
        f = np.where(fresh, fc, f)
        lam = np.where(fresh, np.maximum(lam / 3.0, 1e-12), lam * 4.0)
        if stop.any():
            out_theta[live[stop]], out_f[live[stop]] = theta[stop], f[stop]
            keep = ~stop
            (live, ns, xs, b0, b1, floor, theta, r, c, x1, f, lam, fresh, v, scale,
             rho) = (a[keep] for a in (live, ns, xs, b0, b1, floor, theta, r, c, x1, f,
                                       lam, fresh, v, scale, rho))
            if not live.size:
                break
    out_theta[live], out_f[live] = theta, f
    return out_theta, out_f


def fit_rows_reference(ns, xs, x1_pin, opt):
    """(R, 3) rows (alpha, beta, x1) from the batched bootstrap solver as it stood
    with one trial step per row and pass.

    A frozen copy of the batched kernel before a rejected row's shrinking
    steps were tried together: the row-wise linearized start, the bounded
    Levenberg-Marquardt polish in which every loop pass takes one trial step
    of every live row, with the Jacobian as a (K, 2, P) stack, and the face
    tie rule.  The library must agree with it bit for bit on every row.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        b0, b1 = ns - 1.0, ns * (ns - 1.0)
        start = _linear_start_rows(ns, xs, x1_pin, b0, b1, opt.beta_max)
        theta, f = _polish_rows(ns, xs, x1_pin, b0, b1, start, opt)
        bound = f + opt.refine_tol * np.maximum(f, 1e-16 * _rowdot(xs, xs))
        best, left = theta, np.ones(len(ns), dtype=bool)
        for face in (theta * [1.0, 0.0], theta * [0.0, 1.0], np.zeros_like(theta)):
            rf, _, _ = _profile_rows(ns, xs, x1_pin, face)
            tie = left & (_rowdot(rf, rf) <= bound)
            best = np.where(tie[:, None], face, best)
            left &= ~tie
        _, _, x1 = _profile_rows(ns, xs, x1_pin, best)
    return np.column_stack([best, x1])


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


def _mser_cut_direct(x, most) -> int:
    """MSER cut of x with fresh sums for every d, no prefix or suffix sums.

    Each score sums the squared deviations of x[d:] about its own mean.
    Scores within rounding of the minimum tie, and the smallest d wins, as
    in the library.  The library's tolerance, 16 eps * sum((x[d:] -
    mean(x))**2) / (len(x) - d), bounds rounding in the sums; here the
    tail's mean is also off by a few ulps, which adds its square over the
    count.
    """
    eps = np.finfo(float).eps
    n = len(x)
    xbar = x.sum() / n
    scores, tols = [], []
    for d in range(min(n // 2, most) + 1):
        tail = x[d:]
        m = n - d
        mean = tail.sum() / m
        dev = tail - mean
        scores.append(float(dev @ dev) / (m * m))
        c = tail - xbar
        tols.append(16.0 * eps * float(c @ c) / m + (64.0 * eps * mean) ** 2 / m)
    low = min(scores)
    return next(d for d, (s, tol) in enumerate(zip(scores, tols)) if s <= low + tol)


def steady_window_mser(times, values, cfg):
    """Steady-state window by two-sided MSER truncation, from direct sums.

    Cuts the front, then the back of what remains, until a pass cuts
    nothing, and no cut leaves fewer than ceil(k/2) of the run's k
    samples.  Then applies the acceptance checks in the library's order
    with plain-loop statistics, where the drift less 3 standard errors of
    the least-squares slope must be at most slope_tol, as must the
    curvature of a least-squares quadratic on 4 samples or more, and raises
    ``NoSteadyStateError`` with the library's message when one fails.
    Returns a ``SteadyWindow`` whose mean and cv come from correctly
    rounded sums (``math.fsum``).
    """
    from uslkit import NoSteadyStateError, SteadyWindow

    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    i, j = 0, len(x)
    keep = math.ceil(j / 2)
    while True:
        front = _mser_cut_direct(x[i:j], j - i - keep)
        i += front
        back = _mser_cut_direct(x[i:j][::-1], j - i - keep)
        j -= back
        if front == 0 and back == 0:
            break
    wt, wx = t[i:j].tolist(), x[i:j].tolist()
    k = len(wx)
    mean = math.fsum(wx) / k
    cv = math.sqrt(math.fsum((v - mean) ** 2 for v in wx) / k) / mean if mean > 0.0 else 0.0
    total = t[-1] - t[0]
    duration = wt[-1] - wt[0]
    reason = None
    if not mean > 0.0:
        reason = f"has mean throughput {mean:.4g}"
    elif not duration >= cfg.min_fraction * total:
        reason = f"lasts {duration:.4g}s, under {cfg.min_fraction:.0%} of the {total:.4g}s run"
    elif not cv <= cfg.cv_max:
        reason = f"has cv {cv:.4g} > {cfg.cv_max:g}"
    else:
        tc = [v - wt[0] for v in wt]
        tbar = math.fsum(tc) / k
        sxy = math.fsum((a - tbar) * (v - mean) for a, v in zip(tc, wx))
        sxx = math.fsum((a - tbar) ** 2 for a in tc)
        slope = sxy / sxx
        sse = math.fsum((v - mean - slope * (a - tbar)) ** 2 for a, v in zip(tc, wx))
        drift = abs(slope) * duration / mean
        se = math.sqrt(sse / (k - 2) / sxx) * duration / mean
        if not drift - 3.0 * se <= cfg.slope_tol:
            reason = f"has drift {drift:.4g} (standard error {se:.2g}) > {cfg.slope_tol:g}"
        elif k > 3:
            # the t**2 column, made orthogonal to 1 and t, and its coefficient
            sq = [(a - tbar) ** 2 for a in tc]
            qbar = math.fsum(sq) / k
            b = math.fsum((q - qbar) * (a - tbar) for q, a in zip(sq, tc)) / sxx
            qc = [q - qbar - b * (a - tbar) for q, a in zip(sq, tc)]
            sqq = math.fsum(q * q for q in qc)
            c = math.fsum(q * v for q, v in zip(qc, wx)) / sqq
            sse = math.fsum((v - mean - slope * (a - tbar) - c * q) ** 2
                            for a, v, q in zip(tc, wx, qc))
            scale = (duration / 2.0) ** 2 / mean
            bow = abs(c) * scale
            se = math.sqrt(sse / (k - 3) / sqq) * scale
            if not bow - 3.0 * se <= cfg.slope_tol:
                reason = f"has curvature {bow:.4g} (standard error {se:.2g}) > {cfg.slope_tol:g}"
    if reason is not None:
        raise NoSteadyStateError(
            f"the MSER window [{wt[0]:g}s, {wt[-1]:g}s] {reason}; a steady window needs "
            f"at least 3 samples, a positive mean, at least {cfg.min_fraction:.0%} of the run, "
            f"cv <= {cfg.cv_max:g} and drift <= {cfg.slope_tol:g} beyond 3 standard errors"
        )
    return SteadyWindow(wt[0], wt[-1], mean, cv, k)
