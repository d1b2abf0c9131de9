"""Reference least-squares optimum for the capacity law, numpy only.

Independent of ``uslkit.fitting``: it shares no code with the library's
grid start or simplex.  Minimizes the raw-throughput sse

    sse(alpha, beta) = sum_i (x_i - x1 * n_i / (1 + alpha*(n_i-1) + beta*n_i*(n_i-1)))^2

over 0 <= alpha <= ALPHA_MAX, 0 <= beta <= beta_max, with x1 either pinned
(normalized mode) or profiled in closed form, x1 = <x, c> / <c, c> (raw3
mode).  A dense grid over the box gives start points; each is polished by a
bounded Levenberg-Marquardt iteration that frees or fixes each coordinate at
its bound by the sign of the gradient (active set).  In raw3 mode the step
uses the Kaufman variable-projection Jacobian, so x1 stays profiled.

The result is used to decide whether a library fit reached the optimum.  It
runs outside every timed region of the benchmark.
"""

from __future__ import annotations

import numpy as np

ALPHA_MAX = 1.0 - 1e-12

# alpha grid: exact 0, log-spaced small values (off-grid optima such as
# 0.005 sit between linear nodes), and a linear sweep of the whole range
_ALPHAS = np.unique(np.concatenate([
    [0.0], np.geomspace(1e-5, 0.999, 40), np.linspace(0.0, 0.99, 21),
]))


def _betas(beta_max: float) -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(beta_max * 1e-12, beta_max, 49)])


def _capacity(ns, alpha, beta):
    return ns / (1.0 + alpha * (ns - 1.0) + beta * ns * (ns - 1.0))


def _sse_and_scale(ns, xs, x1_pin, alpha, beta):
    c = _capacity(ns, alpha, beta)
    x1 = x1_pin if x1_pin is not None else float(np.dot(xs, c) / np.dot(c, c))
    r = xs - x1 * c
    return float(np.dot(r, r)), x1


def _grid_starts(ns, xs, x1_pin, beta_max):
    """Best grid node overall and best node on each face, as start points."""
    betas = _betas(beta_max)
    c = _capacity(ns[None, None, :], _ALPHAS[:, None, None], betas[None, :, None])
    if x1_pin is not None:
        r = xs - x1_pin * c
        sse = np.einsum("abp,abp->ab", r, r)
    else:
        # profiled sse, evaluated through the residual to avoid cancellation
        x1 = np.einsum("abp,p->ab", c, xs) / np.einsum("abp,abp->ab", c, c)
        r = xs - x1[:, :, None] * c
        sse = np.einsum("abp,abp->ab", r, r)
    starts = []
    i, j = np.unravel_index(int(np.argmin(sse)), sse.shape)
    starts.append((_ALPHAS[i], betas[j]))
    i = int(np.argmin(sse[:, 0]))           # beta = 0 face
    starts.append((_ALPHAS[i], 0.0))
    j = int(np.argmin(sse[0, :]))           # alpha = 0 face
    starts.append((0.0, betas[j]))
    return starts


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve the 1x1 or 2x2 system a @ x = b; None when singular."""
    if a.shape == (1, 1):
        return None if a[0, 0] <= 0.0 else b / a[0, 0]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if not det > 0.0:
        return None
    return np.array([a[1, 1] * b[0] - a[0, 1] * b[1], a[0, 0] * b[1] - a[1, 0] * b[0]]) / det


def _polish(ns, xs, x1_pin, beta_max, start, max_iter=200):
    """Bounded Levenberg-Marquardt with an active set on the box faces."""
    lo = np.zeros(2)
    hi = np.array([ALPHA_MAX, beta_max])
    theta = np.array(start, dtype=float)
    f, _ = _sse_and_scale(ns, xs, x1_pin, theta[0], theta[1])
    lam = 1e-3
    for _ in range(max_iter):
        d = 1.0 + theta[0] * (ns - 1.0) + theta[1] * ns * (ns - 1.0)
        c = ns / d
        # dc/dalpha and dc/dbeta
        dc = np.stack([-ns * (ns - 1.0) / d ** 2, -ns * ns * (ns - 1.0) / d ** 2], axis=1)
        if x1_pin is not None:
            x1 = x1_pin
            jac = -x1 * dc
        else:
            cc = float(np.dot(c, c))
            x1 = float(np.dot(xs, c)) / cc
            # Kaufman: project the full-model Jacobian off the span of c
            jfull = -x1 * dc
            jac = jfull - np.outer(c, c @ jfull) / cc
        r = xs - x1 * c
        g = jac.T @ r
        # a coordinate on a bound whose descent direction points outward stays fixed
        free = ~(((theta <= lo) & (g > 0.0)) | ((theta >= hi) & (g < 0.0)))
        if not free.any():
            break
        a = jac[:, free].T @ jac[:, free]
        scale = np.maximum(a.diagonal(), 1e-300)
        f_old = f
        for _ in range(20):
            step = _solve(a + lam * np.diag(scale), -g[free])
            if step is None:
                lam *= 10.0
                continue
            cand = theta.copy()
            cand[free] += step
            cand = np.clip(cand, lo, hi)
            fc, _ = _sse_and_scale(ns, xs, x1_pin, cand[0], cand[1])
            if fc < f:
                theta, f = cand, fc
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 4.0
        if not f < f_old or f_old - f <= 1e-13 * f_old:
            break
    return theta, f


def reference_optimum(ns, xs, x1_pin, beta_max: float = 1.0):
    """(alpha, beta, x1, sse) of the best polished start.

    x1_pin is the measured n = 1 throughput in normalized mode, or None in
    raw3 mode, where x1 is profiled.
    """
    ns = np.asarray(ns, dtype=float)
    xs = np.asarray(xs, dtype=float)
    best = None
    for start in _grid_starts(ns, xs, x1_pin, beta_max):
        theta, f = _polish(ns, xs, x1_pin, beta_max, start)
        if best is None or f < best[3]:
            _, x1 = _sse_and_scale(ns, xs, x1_pin, theta[0], theta[1])
            best = (float(theta[0]), float(theta[1]), float(x1), float(f))
    return best
