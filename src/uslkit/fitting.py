"""Least-squares estimation of capacity-model coefficients.

The loss is always computed on raw throughput, not on capacity ratios,
so every measurement carries equal weight.  Two modes exist:

* normalized-capacity: an n = 1 measurement pins x1 and only
  (alpha, beta) are free.  Default whenever a baseline exists.
* raw-throughput-3param: x1 is fitted alongside (alpha, beta).
  Automatic fallback when no baseline measurement is present.

The solver uses the model's structure and has one path:

1. Start.  In the linearized form of the law, Y = n*x1/x - 1 =
   alpha*(n-1) + beta*n*(n-1) is linear in (alpha, beta), so a weighted
   nonnegative least squares in two unknowns gives the start in closed
   form: the interior solution when it is nonnegative, else the best of
   the two faces and the corner.  Without a baseline, the lowest level's
   throughput per user stands in for x1.
2. Polish.  One bounded Levenberg-Marquardt run on the raw-throughput
   sse over [0, 1 - 1e-12] x [0, beta_max], holding a coordinate that
   sits on a bound with its gradient pointing outward.  In raw3 mode x1
   stays profiled in closed form, x1 = <x, c> / <c, c>.
3. Faces.  The first of (alpha, 0), (0, beta) and (0, 0) whose sse is
   within refine_tol (relative) of the polished sse replaces the polished
   point, so ties go to smaller beta, then smaller alpha.

The polish also stops once its damped step would move the modelled
throughputs by less than rounding, so exact data does not spin on
rejected steps.  The solver is deterministic: identical input yields
bit-identical output.  fit_usl and the bootstrap run it on the
throughputs divided by the power of two that puts the largest in
[0.5, 1), so that no squared sum overflows or underflows and the
coefficients do not depend on the unit.

fit_usl's solver computes on Python floats, one level at a time in level
order.  Each capacity is model._capacity's expression with its operations
in the same order, the polish's Jacobian divides by the denominator that
capacity divided by, and every sum is a += from 0.0 in level order.  So
no BLAS call enters a fit, and a fit gives the same bits on every CPU:
numpy's dot products pick an OpenBLAS kernel by CPU, and the kernels add
in different orders.  A quotient whose divisor is a sum of squares divides
as IEEE says, to inf or nan at zero, where a Python float would raise.
Built-in sum() is not used, as from Python 3.12 it compensates.

The bootstrap fits all of its resamples in one batched pass over (R, P)
arrays: the same start, polish, stop rules and face rule, with each row
carrying its own damping and stop state.  Every reduction runs along a
row, so a row's answer does not depend on the batch it shares.  A row
whose trial step was rejected tries its next steps, at 4, 16, ... times
the damping, together in one loop pass, so the passes are spent on rows
still moving rather than on one row's rejections (see _polish_rows).  The
bootstrap learns the fit mode from _fit_setup, without a fit of the
original data.

fit_usl keeps the scalar solver: the batched one pays numpy's per-call
overhead several times over on one row, and rounds differently.  Its
reductions run along a row with einsum, not BLAS, so the bootstrap too
is the same on every kernel.  On Python floats an 8-level fit takes about
0.05 ms and an average fit of perfbench's 6-24-level corpus about 0.10 ms,
against 0.10 and 0.16 ms when the length-P algebra ran in numpy, whose
per-call overhead was most of the cost (2 vCPUs, Python 3.11).  From
about 35 levels on the numpy version was faster: 1000 levels take about
3 ms against 1 ms.  No benchmark workload fits more than 24 levels, so
there is no second path for large inputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
    MismatchedDatasetError,
    MissingBaselineError,
    ZeroBaselineError,
)
from .model import (
    MeasuredPoint,
    Regime,
    UslParams,
    _capacity,
    _set,
    check_count,
    check_range,
    classify_regime,
    peak_concurrency,
    practical_peak,
)

__all__ = [
    "MODE_AUTO", "MODE_NORMALIZED", "MODE_RAW3",
    "Dataset", "FitOptions", "FitResult", "FitDiagnostics", "FitComparison", "BootstrapResult",
    "Residual", "capacity_ratios", "fit_usl", "evaluate_fit", "compare_fits",
    "bootstrap_confidence",
]

MODE_AUTO = "auto"
MODE_NORMALIZED = "normalized-capacity"
MODE_RAW3 = "raw-throughput-3param"

_ALPHA_MAX = 1.0 - 1e-12  # keep fits strictly inside the open upper bound
_ROUNDING = 1e-16  # relative float resolution, of the polish's step floor and the sse floors
_BATCH_POINTS = 1 << 16  # resampled points fitted per batch, which bounds its memory
_RUNGS = 16  # trial steps of a row with a rejected step tried in one pass
_POW4 = 4.0 ** np.arange(_RUNGS)  # exact powers of 4
# rows of _polish_rows' packed state: theta, f, x1, lam, v, scale, rho, floor, steps left
_STATE = (slice(0, 2), 2, 3, 4, slice(5, 7), slice(7, 9), 9, 10, 11)
_LEVEL = operator.attrgetter("n")  # the sort key of a dataset's points
_FIRST = operator.itemgetter(0)  # the level of a row of _linear_start
# least ratio of a positive throughput to the largest that a fit takes; the start's
# sums grow as the inverse square of x1's ratio and overflow from about 2**-500
_MIN_RATIO = 2.0 ** -256


@dataclass(frozen=True)
class Dataset:
    """Measurements of throughput versus concurrency, sorted by level.

    Levels must be strictly distinct; at least two points are required.
    Fewer than six points sets the significance flag, mirroring the rule
    of thumb that a meaningful fit wants half a dozen distinct loads.
    ns and xs are the levels and throughputs as read-only float arrays,
    built once.
    """

    points: tuple[MeasuredPoint, ...]

    def __post_init__(self) -> None:
        pts = tuple(sorted(self.points, key=_LEVEL))
        if len(pts) < 2:
            raise DomainError(f"a dataset needs at least 2 points, got {len(pts)}")
        for a, b in zip(pts, pts[1:]):
            if a.n == b.n:
                raise DomainError(f"duplicate concurrency level {a.n}")
        ns = np.array([p.n for p in pts], dtype=float)
        xs = np.array([p.x for p in pts], dtype=float)
        ns.flags.writeable = xs.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "xs", xs)

    def __reduce__(self):  # pickle and copy rebuild through __post_init__: arrays read-only
        return type(self), (self.points,)

    @classmethod
    def from_pairs(cls, pairs) -> "Dataset":
        return cls(tuple(MeasuredPoint(float(n), float(x)) for n, x in pairs))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def baseline(self) -> MeasuredPoint | None:
        """The n = 1 point when present: the first, as levels are sorted and >= 1."""
        p = self.points[0]
        return p if p.n == 1.0 else None

    @property
    def has_baseline(self) -> bool:
        return self.baseline is not None

    @property
    def significance_warning(self) -> bool:
        return len(self.points) < 6

    @property
    def normalization(self) -> str:
        """Which fit mode the data supports by itself."""
        return MODE_NORMALIZED if self.has_baseline else MODE_RAW3


@dataclass(frozen=True)
class FitOptions:
    """Settings of fit_usl.

    refine_tol: the polish stops once an accepted step lowers the sse by
        at most this fraction of it; a face point within this fraction of
        the polished sse is preferred to it.  It lies in (0, 1).
    max_refine_iter: cap on the polish's trial steps, accepted or not.
    """

    mode: str = MODE_AUTO
    beta_max: float = 1.0
    refine_tol: float = 1e-10
    max_refine_iter: int = 600

    def __post_init__(self) -> None:
        if self.mode not in (MODE_AUTO, MODE_NORMALIZED, MODE_RAW3):
            raise DomainError(f"unknown fit mode {self.mode!r}")
        check_range("beta_max", self.beta_max, 0.0, math.inf, "(]")
        # at 1 or more, a face at twice the sse would win the tie
        check_range("refine_tol", self.refine_tol, 0.0, 1.0, "()")
        check_count("max_refine_iter", self.max_refine_iter, 1)


_DEFAULTS = FitOptions()  # frozen, so the calls without options share it


@dataclass(frozen=True, init=False)
class Residual:
    n: float
    measured: float
    modeled: float
    residual: float

    # stores with _set; see MeasuredPoint
    def __init__(self, n: float, measured: float, modeled: float, residual: float) -> None:
        _set(self, "n", n)
        _set(self, "measured", measured)
        _set(self, "modeled", modeled)
        _set(self, "residual", residual)


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus goodness-of-fit bookkeeping.

    The peak location is never stored: it is recomputed from params so
    the two can not drift apart.
    """

    params: UslParams
    sse: float
    r_squared: float
    residuals: tuple[Residual, ...]
    significance_warning: bool
    mode: str

    @property
    def peak(self) -> float:
        return peak_concurrency(self.params)

    @property
    def practical_peak(self) -> float:
        return practical_peak(self.params)

    @property
    def regime(self) -> Regime:
        return classify_regime(self.params)


@dataclass(frozen=True)
class FitDiagnostics:
    sse: float
    r_squared: float
    max_relative_residual: float


@dataclass(frozen=True)
class FitComparison:
    """Differences b minus a between two fits."""

    alpha_delta: float
    beta_delta: float
    peak_a: float
    peak_b: float
    peak_delta: float
    scales_further: str  # "a", "b" or "tie": which fit peaks later


def capacity_ratios(dataset: Dataset) -> list[tuple[float, float]]:
    """(n, x/x1) pairs; the n = 1 entry is exactly 1.

    Requires an n = 1 baseline with nonzero throughput.
    """
    base = dataset.baseline
    if base is None:
        raise MissingBaselineError("capacity ratios need an n = 1 measurement")
    if base.x == 0.0:
        raise ZeroBaselineError("n = 1 throughput is zero; ratios are undefined")
    return [(p.n, p.x / base.x) for p in dataset.points]


def _ratio(a: float, b: float) -> float:
    """a / b for a sum of squares b, as IEEE division gives it: b = 0 gives inf or nan."""
    return a / b if b else a * math.inf if a else math.nan


def _residuals(ns, b0, xs, x1_pin, alpha, beta):
    """(c, d, x1, <c, c>, sse) at (alpha, beta), where sse = <r, r> and r = x - x1*c.

    c and d are lists of the capacities and their denominators, level by
    level: model._capacity's expression, its operations in the same order.
    x1 is profiled in closed form unless pinned; <c, c> is None when pinned.
    """
    c, d = [], []
    if x1_pin is None:  # x1's sums come first, so the residuals take a second pass
        cc = xc = 0.0
        for n, b, x in zip(ns, b0, xs):
            w = 1.0 + alpha * b + beta * n * b
            v = n / w
            c.append(v)
            d.append(w)
            xc += x * v
            cc += v * v
        x1 = _ratio(xc, cc)
        f = 0.0
        for x, v in zip(xs, c):
            e = x - x1 * v
            f += e * e
        return c, d, x1, cc, f
    f = 0.0
    for n, b, x in zip(ns, b0, xs):
        w = 1.0 + alpha * b + beta * n * b
        v = n / w
        c.append(v)
        d.append(w)
        e = x - x1_pin * v
        f += e * e
    return c, d, x1_pin, None, f


def _linear_start(ns, b0, b1, xs, x1_pin, hi: tuple[float, float]) -> tuple[float, float]:
    """Nonnegative least squares on Y = n*x1/x - 1 = alpha*(n-1) + beta*n*(n-1).

    Each row is weighted by x^2/(x1*n), which makes its linear residual a
    first-order approximation of the throughput residual.  Rows with x = 0
    have no Y and are skipped; without a pinned x1 the lowest level's
    throughput per user stands in for it.  The result is capped at hi.
    """
    rows = [row for row in zip(ns, b0, b1, xs) if row[3] > 0.0]
    if x1_pin is None:
        n, _, _, x = min(rows, key=_FIRST)
        x1_pin = x / n
    g00 = g01 = g11 = h0 = h1 = 0.0
    for n, b, bb, x in rows:
        w = x * x / (x1_pin * n)
        a0, a1, y = w * b, w * bb, w * (n * x1_pin / x - 1.0)
        g00 += a0 * a0
        g01 += a0 * a1
        g11 += a1 * a1
        h0 += a0 * y
        h1 += a1 * y
    det = g00 * g11 - g01 * g01
    if det > 0.0:
        t0, t1 = (g11 * h0 - g01 * h1) / det, (g00 * h1 - g01 * h0) / det
        if t0 >= 0.0 and t1 >= 0.0:
            return min(t0, hi[0]), min(t1, hi[1])
    # the optimum lies on a face or in the corner: take the first best of
    # them by the quadratic form t.g.t - 2 h.t, every product of the 2 x 2
    # algebra kept
    candidates = []
    if g00 > 0.0:
        candidates.append((max(h0 / g00, 0.0), 0.0))
    if g11 > 0.0:
        candidates.append((0.0, max(h1 / g11, 0.0)))
    candidates.append((0.0, 0.0))
    t0, t1 = min(candidates, key=lambda t: ((t[0] * g00 + t[1] * g01) * t[0]
                                           + (t[0] * g01 + t[1] * g11) * t[1]
                                           - 2.0 * (h0 * t[0] + h1 * t[1])))
    return min(t0, hi[0]), min(t1, hi[1])


def _free(t: float, g: float, norm: float, top: float) -> bool:
    """Whether a coordinate may move: it has a column and is not held on a bound."""
    return norm > 0.0 and not (t <= 0.0 < g or (t >= top and g < 0.0))


def _clip(t: float, top: float) -> float:
    """t clipped to [0, top] as np.clip does it: nan stays nan, -0.0 becomes 0.0."""
    return 0.0 if t <= 0.0 else top if t >= top else t


def _polish(ns, b0, b1, xs, x1_pin, theta: tuple[float, float],
            hi: tuple[float, float], xx: float, opt: FitOptions):
    """Bounded Levenberg-Marquardt on the throughput sse.

    Returns (theta, sse, c, x1), the last two from _residuals at theta.
    A coordinate on a bound whose gradient points out of the box is held
    fixed for the step (active set).  Without a pinned x1 the Jacobian is
    Kaufman's variable-projection one: the part of the full-model Jacobian
    orthogonal to c, since x1 is re-profiled at every point.  Stops when an
    accepted step lowers the sse by at most refine_tol relative, when the
    step no longer moves theta, when it would move the modelled throughputs
    by less than rounding (the columns have unit norm, so the damped step
    u is in throughput units), or after max_refine_iter trial steps.
    """
    (t0, t1), (hi0, hi1) = theta, hi
    floor = _ROUNDING * math.sqrt(xx)
    tol = opt.refine_tol
    c, d, x1, cc, f = _residuals(ns, b0, xs, x1_pin, t0, t1)
    lam = 1e-3
    fresh = True
    for _ in range(opt.max_refine_iter):
        if fresh:
            # the Jacobian's columns d(residual)/d(theta) are x1*c/d times n - 1
            # and n*(n - 1), with d the denominator that c was divided by, and
            # without a pinned x1 less their parts along c (Kaufman's); g is
            # half the gradient of the sse, n0 and n1 the columns' squared norms
            g0 = g1 = n0 = n1 = j01 = 0.0
            if cc is None:
                for x, v, w, b, bb in zip(xs, c, d, b0, b1):
                    q = x1 * v / w
                    a, q = q * b, q * bb
                    e = x - x1 * v
                    g0 += a * e
                    g1 += q * e
                    n0 += a * a
                    n1 += q * q
                    j01 += a * q
            else:
                j0, j1 = [], []
                k0 = k1 = 0.0
                for v, w, b, bb in zip(c, d, b0, b1):
                    q = x1 * v / w
                    a, q = q * b, q * bb
                    j0.append(a)
                    j1.append(q)
                    k0 += v * a
                    k1 += v * q
                k0, k1 = _ratio(k0, cc), _ratio(k1, cc)
                for x, v, a, q in zip(xs, c, j0, j1):
                    a -= v * k0
                    q -= v * k1
                    e = x - x1 * v
                    g0 += a * e
                    g1 += q * e
                    n0 += a * a
                    n1 += q * q
                    j01 += a * q
            n0, n1 = math.sqrt(n0), math.sqrt(n1)
            free0, free1 = _free(t0, g0, n0, hi0), _free(t1, g1, n1, hi1)
            if not (free0 or free1):
                break
            # unit-norm columns, so lam damps both alike; a held coordinate
            # gets an infinite scale, hence no gradient, coupling or step
            s0, s1 = n0 if free0 else math.inf, n1 if free1 else math.inf
            v0, v1 = -g0 / s0, -g1 / s1
            rho = j01 / (n0 * n1) if free0 and free1 else 0.0
            fresh = False
        # den >= about 2e-12 (lam >= 1e-12, |rho| <= 1 + a few ulps), so the
        # division cannot raise; a lam that overflows gives inf, a nan rho nan
        m = 1.0 + lam
        den = m * m - rho * rho
        u0, u1 = (m * v0 - rho * v1) / den, (m * v1 - rho * v0) / den
        if math.hypot(u0, u1) <= floor:
            break
        c0, c1 = _clip(t0 + u0 / s0, hi0), _clip(t1 + u1 / s1, hi1)
        if c0 == t0 and c1 == t1:
            break
        trial = _residuals(ns, b0, xs, x1_pin, c0, c1)
        fc = trial[4]
        if fc < f:
            done = f - fc <= tol * f
            t0, t1, (c, d, x1, cc, f) = c0, c1, trial
            if done:
                break
            lam = max(lam / 3.0, 1e-12)
            fresh = True
        else:
            lam *= 4.0
    return (t0, t1), f, c, x1


def _minimize(ns, xs, x1_pin, opt: FitOptions):
    """(alpha, beta, r, c, x1, sse) of the arrays ns and xs: the fit, and at it the
    lists r = x - x1*c and c, x1 and the sse."""
    ns, xs = ns.tolist(), xs.tolist()
    # the basis of the linear form: Y = alpha * b0 + beta * b1
    b0 = [n - 1.0 for n in ns]
    b1 = [n * b for n, b in zip(ns, b0)]
    hi = (_ALPHA_MAX, float(opt.beta_max))
    xx = 0.0
    for x in xs:
        xx += x * x
    start = _linear_start(ns, b0, b1, xs, x1_pin, hi)
    (alpha, beta), f, c, x1 = _polish(ns, b0, b1, xs, x1_pin, start, hi, xx, opt)
    # a face within refine_tol of the polished sse wins the tie: smaller
    # beta first, then smaller alpha.  On finite levels a zero coefficient's
    # term adds exactly 0.0 to the denominator, so a face drops it; a face
    # that equals the polished point is that point, unless its sse is nan.
    bound = f + opt.refine_tol * max(f, _ROUNDING * xx)
    for fa, fb in ((alpha, 0.0), (0.0, beta), (0.0, 0.0)):
        if fa == alpha and fb == beta and f <= bound:
            break
        cf, _, x1f, _, ff = _residuals(ns, b0, xs, x1_pin, fa, fb)
        if ff <= bound:
            alpha, beta, c, x1, f = fa, fb, cf, x1f, ff
            break
    return alpha, beta, [x - x1 * v for x, v in zip(xs, c)], c, x1, f


def _fit_setup(dataset: Dataset,
               opt: FitOptions) -> tuple[np.ndarray, np.ndarray, str, float | None, int]:
    """(ns, xs, mode, x1_pin, e) of a fit of the dataset; x1_pin None means raw3.

    xs and x1_pin come divided by 2**e, which puts the largest throughput
    in [0.5, 1), so that no squared sum of the solvers overflows or
    underflows whatever the unit.  A power of two scales exactly and every
    solver step is equivariant under it, so the fitted coefficients do not
    depend on the unit, and x1 and the residuals scale back exactly.

    Raises the errors that fit_usl documents, all of which it raises
    before it fits, so the bootstrap can learn the mode without a fit.
    """
    ns, xs = dataset.ns, dataset.xs
    top = float(xs.max())
    if not (top > 0.0):  # throughputs are >= 0
        raise DegenerateDataError("every throughput is zero; nothing to fit")
    base = dataset.baseline
    mode = opt.mode
    if mode == MODE_AUTO:
        mode = dataset.normalization
    if mode == MODE_NORMALIZED:
        if base is None:
            raise MissingBaselineError("normalized fit needs an n = 1 measurement")
        if base.x == 0.0:
            raise ZeroBaselineError("n = 1 throughput is zero")
        if len(dataset) < 3:
            raise InsufficientDataError("normalized fit needs at least 3 distinct levels")
    elif len(dataset) < 4:
        raise InsufficientDataError("3-parameter fit needs at least 4 distinct levels")
    e = math.frexp(top)[1]
    xs = np.ldexp(xs, -e)
    tiny = (xs > 0.0) & (xs < _MIN_RATIO)
    if tiny.any():
        p = dataset.points[int(tiny.argmax())]
        raise DegenerateDataError(f"throughput {p.x:g} at N={p.n:g} is more than 2**256 times "
                                  f"below the largest, {top:g}; one fit cannot weigh both")
    x1_pin = math.ldexp(base.x, -e) if mode == MODE_NORMALIZED else None
    return ns, xs, mode, x1_pin, e


def _unscaled(v: float, e: int) -> float:
    """v * 2**e, infinite where that overflows."""
    try:
        return math.ldexp(v, e)
    except OverflowError:
        return math.copysign(math.inf, v)


def fit_usl(dataset: Dataset, options: FitOptions | None = None) -> FitResult:
    """Fit (alpha, beta) and, without a baseline, x1 to the dataset.

    Raises InsufficientDataError below 3 distinct levels (4 for the 3-parameter
    mode), DegenerateDataError when every throughput is zero or one is more
    than 2**256 times below the largest, and the baseline errors when a
    requested normalized fit has no usable n = 1 point.  The sse is in the
    data's units, and is infinite only when it exceeds the float range.
    """
    opt = options or _DEFAULTS
    ns, xs, mode, x1_pin, e = _fit_setup(dataset, opt)
    alpha, beta, res, c, x1, sse = _minimize(ns, xs, x1_pin, opt)

    # r^2 from the scaled sums, added in level order; the rest back in the data's units
    xs = xs.tolist()
    mean = 0.0
    for x in xs:
        mean += x
    mean /= len(xs)
    tss = 0.0
    for x in xs:
        dev = x - mean
        tss += dev * dev
    if tss == 0.0:  # constant data: exact if sse is within the floor of _minimize's tie rule
        xx = 0.0
        for x in xs:
            xx += x * x
        r2 = 1.0 if sse <= _ROUNDING * xx else 0.0
    else:
        r2 = 1.0 - sse / tss
    x1 = _unscaled(x1, e)
    measured = [p.x for p in dataset.points]
    # a modelled throughput beyond the float range is inf, which a float product gives unwarned
    modeled = [x1 * v for v in c]
    res = [_unscaled(v, e) for v in res]
    rows = tuple(map(Residual, ns.tolist(), measured, modeled, res))
    return FitResult(
        params=UslParams(alpha, beta, x1),
        sse=_unscaled(sse, 2 * e),
        r_squared=r2,
        residuals=rows,
        significance_warning=dataset.significance_warning,
        mode=mode,
    )


def evaluate_fit(result: FitResult, dataset: Dataset) -> FitDiagnostics:
    """Recompute goodness of fit point by point against the dataset.

    Deliberately accumulates in a plain loop, independent of the fit
    path, so it doubles as a cross-check of the stored sse.  Like the fit,
    the loop runs on the throughputs divided by the power of two that puts
    the largest in [0.5, 1), so no squared sum overflows or underflows.
    """
    fit_ns = [r.n for r in result.residuals]
    data_ns = [p.n for p in dataset.points]
    if fit_ns != data_ns:
        raise MismatchedDatasetError(
            f"fit covers levels {fit_ns} but dataset has {data_ns}"
        )
    params = result.params
    if params.x1 is None:
        raise MismatchedDatasetError("fit result carries no x1; cannot model throughput")
    e = math.frexp(max(dataset.xs.tolist()))[1]
    xs = np.ldexp(dataset.xs, -e).tolist()
    alpha, beta, x1 = params.alpha, params.beta, _unscaled(params.x1, -e)
    sse = 0.0
    mean = 0.0
    for x in xs:
        mean += x
    mean /= len(xs)
    tss = 0.0
    max_rel = 0.0
    for n, x in zip(dataset.ns.tolist(), xs):
        denom = 1.0 + alpha * (n - 1.0) + beta * n * (n - 1.0)
        r = x - x1 * (n / denom)
        sse += r * r
        tss += (x - mean) * (x - mean)
        # a zero throughput weighs its residual in the data's units
        rel = abs(r) / abs(x) if x != 0.0 else _unscaled(abs(r), e)
        if rel > max_rel:  # max(max_rel, rel), nan included
            max_rel = rel
    if tss == 0.0:  # constant data, judged as fit_usl judges it
        r2 = 1.0 if sse <= _ROUNDING * sum(x * x for x in xs) else 0.0
    else:
        r2 = 1.0 - sse / tss
    return FitDiagnostics(sse=_unscaled(sse, 2 * e), r_squared=r2, max_relative_residual=max_rel)


def compare_fits(a: UslParams, b: UslParams) -> FitComparison:
    """Before/after coefficients compared: deltas b minus a; equal peaks (inf too) tie at 0."""
    pa, pb = peak_concurrency(a), peak_concurrency(b)
    return FitComparison(
        alpha_delta=b.alpha - a.alpha,
        beta_delta=b.beta - a.beta,
        peak_a=pa,
        peak_b=pb,
        peak_delta=0.0 if pa == pb else pb - pa,
        scales_further="tie" if pa == pb else "a" if pa > pb else "b",
    )


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # reduce along the last, contiguous axis only, so that a row's result
    # does not depend on how many rows share the batch
    return np.einsum("rp,rp->r", a, b)


def _profile_rows(ns, xs, b0, x1_pin, alpha,
                  beta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_residuals row by row: (x - x1*c, c, x1) for (R, P) arrays at (alpha, beta), each (R,).

    b0 is ns - 1.
    """
    c = _capacity(ns, b0, alpha[:, None], beta[:, None])
    if x1_pin is not None:
        return xs - x1_pin * c, c, np.full(len(ns), x1_pin)
    x1 = _rowdot(xs, c) / _rowdot(c, c)
    return xs - x1[:, None] * c, c, x1


def _linear_start_rows(ns, xs, x1_pin, b0, b1, beta_max: float) -> np.ndarray:
    """_linear_start row by row; rows with x = 0 get zero weight instead of being dropped."""
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
    # otherwise the first minimum of (alpha face, beta face, corner), whose
    # objective t @ g @ t - 2 h @ t is 0 at the corner
    fa = np.maximum(h0 / g00, 0.0)
    fb = np.maximum(h1 / g11, 0.0)
    oa = np.where(g00 > 0.0, fa * g00 * fa - 2.0 * (h0 * fa), np.inf)
    ob = np.where(g11 > 0.0, fb * g11 * fb - 2.0 * (h1 * fb), np.inf)
    on_a = (oa <= ob) & (oa <= 0.0)
    on_b = ~on_a & (ob <= 0.0)
    face = np.stack([np.where(on_a, fa, 0.0), np.where(on_b, fb, 0.0)], axis=1)
    theta = np.where(interior[:, None], inner, face)
    return np.minimum(theta, [_ALPHA_MAX, beta_max])


def _polish_rows(ns, xs, x1_pin, b0, b1, theta: np.ndarray,
                 opt: FitOptions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_polish row by row; returns (theta, sse, x1) of every row.

    Each row keeps its own lam, count of trial steps and stop rules.  A loop
    pass tries a grid of L live rows by J rungs: rung j is the trial step
    with damping lam * 4**j.  After a rejected step a row's next steps
    differ only in lam, which grows by 4, an exact product, so the row takes
    its first rung that halts or lowers the sse, as successive trial steps
    would, and counts the rungs up to it against max_refine_iter.  After a
    pass in which some live row moved, the next recomputes every live row's
    Jacobian and has J = 1, since a moved row's first step is usually
    accepted; otherwise J is 16, cut to the fewest trial steps a live row
    has left and to _BATCH_POINTS.  A row that stops leaves the live set,
    so the passes shrink to the rows still moving.

    A pass costs some hundred numpy calls whatever the number of live rows,
    so the live state is packed for cheap compaction, the two coefficients
    are rows, not columns, and accepted rows are updated in place.  The
    rungs exist for the same reason: a row's rejected steps ride along in
    one pass instead of costing a pass each.
    """
    rows, points = ns.shape
    out = np.empty((4, rows))  # theta, sse and x1 of every row
    hi = np.array([[_ALPHA_MAX], [opt.beta_max]])
    r, c, x1 = _profile_rows(ns, xs, b0, x1_pin, theta[:, 0], theta[:, 1])
    # the live rows' state, packed so that dropping the rows that stop takes
    # one gather per array; the names bound in the loop are views into it
    st = np.zeros((12, rows))
    st[0:2], st[2], st[3], st[4] = theta.T, _rowdot(r, r), x1, 1e-3
    st[10], st[11] = _ROUNDING * np.sqrt(_rowdot(xs, xs)), opt.max_refine_iter
    data = np.stack([ns, xs, b0, b1, r, c])  # (6, L, P)
    live = np.arange(rows)
    moved = np.ones(rows, dtype=bool)
    theta, f, x1, lam, v, scale, rho, floor, left = (st[i] for i in _STATE)
    r, c = data[4:]
    while live.size:
        n = live.size
        held = False  # rows with no coordinate free, which stop without a step
        if moved.any():
            # every live row's Jacobian; one that did not move gets the bits it had
            s = (x1[:, None] if x1_pin is None else x1_pin) * c
            s /= 1.0 + theta[0, :, None] * data[2] + theta[1, :, None] * data[3]
            jac = s * data[2:4]  # (2, L, P): the columns d(residual)/d(theta)
            # the einsums reduce along P only, as _rowdot does
            if x1_pin is None:
                jac -= c * (np.einsum("krp,rp->kr", jac, c) / _rowdot(c, c))[:, :, None]
            g = np.einsum("krp,rp->kr", jac, r)  # half the gradient of the sse
            norms = np.sqrt(np.einsum("krp,krp->kr", jac, jac))
            free = (norms > 0.0) & ~(((theta <= 0.0) & (g > 0.0)) | ((theta >= hi) & (g < 0.0)))
            held = ~(free[0] | free[1])
            scale[:] = np.where(free, norms, np.inf)
            v[:] = -g / scale
            rho[:] = np.where(free[0] & free[1], _rowdot(*jac) / (norms[0] * norms[1]), 0.0)
            rungs = 1
        else:
            rungs = min(_RUNGS, int(left.min()), max(1, _BATCH_POINTS // (n * points)))
        # the (2, L, J) grid of trial points
        lams = lam[:, None] * _POW4[:rungs]
        m = 1.0 + lams
        u = (m * v[:, :, None] - (rho * v[::-1])[:, :, None]) / (m * m - (rho * rho)[:, None])
        cand = np.clip(theta[:, :, None] + u / scale[:, :, None], 0.0, hi[:, :, None])
        same = cand == theta[:, :, None]
        halt = (np.hypot(u[0], u[1]) <= floor[:, None]) | (same[0] & same[1])
        halt[:, 0] |= held
        grid = cand.reshape(2, -1)
        rowwise = data[:3] if rungs == 1 else np.repeat(data[:3], rungs, 1)  # ns, xs, b0
        rc, cc, x1c = _profile_rows(*rowwise, x1_pin, *grid)
        fc = _rowdot(rc, rc)
        take = halt | (fc.reshape(n, rungs) < f[:, None])
        if rungs == 1:
            at = slice(None)
        else:
            j = take.argmax(axis=1)  # each row's first rung taken, 0 when none is
            at = np.arange(n) * rungs + j
        took, halted, fj = take.ravel()[at], halt.ravel()[at], fc[at]
        acc = took & ~halted
        left -= 1 if rungs == 1 else np.where(took, j + 1, rungs)
        stop = (took & halted) | (acc & (f - fj <= opt.refine_tol * f)) | (left == 0)
        lam[:] = np.where(acc, np.maximum(lams.ravel()[at] / 3.0, 1e-12), lams[:, -1] * 4.0)
        moved = acc
        np.copyto(theta, grid[:, at], where=acc)
        np.copyto(f, fj, where=acc)
        np.copyto(x1, x1c[at], where=acc)
        np.copyto(r, rc[at], where=acc[:, None])
        np.copyto(c, cc[at], where=acc[:, None])
        if stop.any():
            out[:, live[stop]] = st[:4, stop]
            keep = ~stop
            st, data = st.compress(keep, axis=1), data.compress(keep, axis=1)
            live, moved = live[keep], moved[keep]
            theta, f, x1, lam, v, scale, rho, floor, left = (st[i] for i in _STATE)
            r, c = data[4:]
    return out[:2].T, out[2], out[3]


def _fit_rows(ns: np.ndarray, xs: np.ndarray, x1_pin: float | None,
              opt: FitOptions) -> np.ndarray:
    """_minimize on every row of the (R, P) arrays; returns (R, 3) rows (alpha, beta, x1).

    Rows may repeat levels, as resamples do.  Every reduction runs along a
    row, so a row's result is bit-identical whatever else shares the batch.
    The masked-off branches of np.where (rows with x = 0 in the start, held
    coordinates in the polish) may divide by zero, and a lam grown far may
    overflow its square, which only shrinks that step to zero; hence the
    errstate.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        b0 = ns - 1.0
        b1 = ns * b0
        start = _linear_start_rows(ns, xs, x1_pin, b0, b1, opt.beta_max)
        theta, f, x1 = _polish_rows(ns, xs, x1_pin, b0, b1, start, opt)
        # the face tie rule of _minimize, row by row
        bound = f + opt.refine_tol * np.maximum(f, _ROUNDING * _rowdot(xs, xs))
        best, left = theta, np.ones(len(ns), dtype=bool)
        for face in (theta * [1.0, 0.0], theta * [0.0, 1.0], np.zeros_like(theta)):
            rf, _, x1f = _profile_rows(ns, xs, b0, x1_pin, face[:, 0], face[:, 1])
            tie = left & (_rowdot(rf, rf) <= bound)
            best = np.where(tie[:, None], face, best)
            x1 = np.where(tie, x1f, x1)
            left &= ~tie
    return np.column_stack([best, x1])


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile intervals from resampling points with replacement.

    Approximate by construction: replicates reuse the original fit mode
    and, in normalized mode, keep x1 pinned to the measured baseline.
    Intended for error bars on plots, not formal inference.  replicates is
    the number drawn; the dropped ones could not identify (alpha, beta)
    and are left out of the intervals.
    """

    alpha_interval: tuple[float, float]
    beta_interval: tuple[float, float]
    x1_interval: tuple[float, float]
    replicates: int
    seed: int
    level: float
    dropped: int


def _identifying(idx: np.ndarray, pinned: bool) -> np.ndarray:
    """Which rows of indices into a dataset's sorted levels can identify (alpha, beta).

    With x1 pinned that takes two distinct levels above n = 1, which is
    index 0 when present; with x1 fitted, three distinct levels.
    """
    s = np.sort(idx, axis=1)
    distinct = 1 + np.count_nonzero(s[:, 1:] != s[:, :-1], axis=1)
    return distinct - (s[:, 0] == 0) >= 2 if pinned else distinct >= 3


def bootstrap_confidence(dataset: Dataset, options: FitOptions | None = None,
                         replicates: int = 200, seed: int = 0,
                         level: float = 0.95) -> BootstrapResult:
    """Percentile intervals for alpha, beta and x1 from resampling the points.

    Each replicate draws len(dataset) points with replacement, from numpy's
    default_rng(seed), and is fitted in the dataset's fit mode; an interval
    is the central level share of those fits (the percentile method, with
    np.quantile's linear rule).  In normalized mode every fit pins x1 to
    the measured baseline, so x1's interval is that one value.  A resample
    that cannot identify (alpha, beta), with fewer than two distinct levels
    above n = 1 when x1 is pinned or fewer than three when it is fitted, is
    dropped before the fit and counted in dropped; the others keep their
    draws.

    Pinning x1 makes the intervals too narrow.  Over 300 seeded datasets
    per design (alpha 0.05, beta 0.002, x1 1000; 6 levels 1-32, 8 levels
    to 48 and 14 levels to 64; 2 % and 5 % relative noise), nominal 95 %
    intervals covered alpha in 64-75 % and beta in 86-92 % of them.  With
    FitOptions(mode=MODE_RAW3) they covered alpha in 93-98 %, beta in
    87-97 % and x1 in 93-94 %, at 1.3-2.0 times the time per call.

    Raises DomainError for a level outside (0, 1), fewer than 2 replicates
    or a seed that is not a whole number >= 0; the errors fit_usl raises
    for the dataset; and InsufficientDataError when fewer than 2 resamples
    remain.
    """
    check_range("confidence level", level, 0.0, 1.0, "()")
    replicates = check_count("replicates", replicates, 2)
    seed = check_count("seed", seed, 0)
    opt = options or _DEFAULTS
    ns, xs, _, x1_pin, e = _fit_setup(dataset, opt)
    rng = np.random.default_rng(seed)
    # one (rows, n) draw gives the indices of rows successive size-n draws,
    # so batching leaves each seed's resamples as they were
    rows = max(1, _BATCH_POINTS // len(ns))
    draws, dropped = [], 0
    for done in range(0, replicates, rows):
        idx = rng.integers(0, len(ns), size=(min(rows, replicates - done), len(ns)))
        keep = _identifying(idx, x1_pin is not None)
        if not keep.all():
            idx = idx[keep]
            dropped += len(keep) - len(idx)
        draws.append(_fit_rows(ns[idx], xs[idx], x1_pin, opt))
    if replicates - dropped < 2:
        raise InsufficientDataError(f"{dropped} of {replicates} resamples cannot identify "
                                    "(alpha, beta); fewer than 2 remain")
    lo = (1.0 - level) / 2.0
    hi = 1.0 - lo
    q = np.quantile(np.concatenate(draws), [lo, hi], axis=0)
    return BootstrapResult(
        alpha_interval=(float(q[0, 0]), float(q[1, 0])),
        beta_interval=(float(q[0, 1]), float(q[1, 1])),
        x1_interval=(_unscaled(float(q[0, 2]), e), _unscaled(float(q[1, 2]), e)),
        replicates=replicates,
        seed=seed,
        level=level,
        dropped=dropped,
    )
