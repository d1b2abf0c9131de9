import dataclasses
import hashlib
import inspect
import math
import re
import sys
import warnings

import numpy as np
import pytest

from uslkit import (
    MODE_AUTO,
    MODE_NORMALIZED,
    MODE_RAW3,
    Dataset,
    DegenerateDataError,
    DomainError,
    FitOptions,
    FitResult,
    InsufficientDataError,
    MismatchedDatasetError,
    MissingBaselineError,
    QueueParams,
    Regime,
    UslError,
    UslParams,
    ZeroBaselineError,
    bootstrap_confidence,
    capacity_ratios,
    compare_fits,
    evaluate_fit,
    fit_usl,
    mva_solve,
    usl_capacity,
)
from uslkit import fitting
from oracles import (
    bootstrap_per_replicate,
    fit_rows_reference,
    grid_optimum,
    kkt_residual,
    minimize_vector_reference,
    sum_squared_residuals,
)

LEVELS = [1, 2, 4, 8, 16, 32]
LEVELS_12 = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]


def exact_dataset(alpha, beta, x1, levels=LEVELS):
    p = UslParams(alpha, beta)
    return Dataset.from_pairs([(n, x1 * usl_capacity(n, p)) for n in levels])


def noisy_dataset(alpha, beta, x1, noise, seed, levels=LEVELS):
    p = UslParams(alpha, beta)
    rng = np.random.default_rng(seed)
    pairs = []
    for n in levels:
        x = x1 * usl_capacity(n, p) * (1.0 + rng.normal(0.0, noise))
        pairs.append((n, max(x, 0.0)))
    return Dataset.from_pairs(pairs)


class TestDataset:
    def test_sorts_and_exposes_arrays(self):
        d = Dataset.from_pairs([(8, 80.0), (1, 10.0), (4, 41.0)])
        assert list(d.ns) == [1.0, 4.0, 8.0]
        assert list(d.xs) == [10.0, 41.0, 80.0]
        assert d.baseline.x == 10.0
        assert d.has_baseline
        assert list(d) == list(d.points)

    def test_arrays_are_built_once_and_read_only(self):
        d = Dataset.from_pairs([(1, 10.0), (2, 18.0)])
        assert d.ns is d.ns and d.xs is d.xs
        for a in (d.ns, d.xs):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_rejects_duplicate_levels(self):
        with pytest.raises(DomainError):
            Dataset.from_pairs([(2, 10.0), (2, 11.0)])

    def test_rejects_single_point(self):
        with pytest.raises(DomainError):
            Dataset.from_pairs([(1, 10.0)])

    def test_normalization_follows_baseline(self):
        assert Dataset.from_pairs([(1, 1.0), (2, 1.8)]).normalization == MODE_NORMALIZED
        assert Dataset.from_pairs([(2, 1.8), (4, 3.0)]).normalization == MODE_RAW3

    def test_significance_warning_under_six_points(self):
        assert Dataset.from_pairs([(1, 1.0), (2, 1.8)]).significance_warning
        six = exact_dataset(0.05, 0.001, 100.0)
        assert not six.significance_warning


class TestCapacityRatios:
    def test_values_relative_to_baseline(self):
        d = Dataset.from_pairs([(1, 50.0), (2, 90.0), (4, 150.0)])
        ratios = capacity_ratios(d)
        assert ratios[0] == (1.0, 1.0)
        assert ratios[1] == (2.0, pytest.approx(1.8, rel=1e-15))
        assert ratios[2] == (4.0, pytest.approx(3.0, rel=1e-15))

    def test_requires_baseline(self):
        with pytest.raises(MissingBaselineError):
            capacity_ratios(Dataset.from_pairs([(2, 90.0), (4, 150.0)]))

    def test_rejects_zero_baseline(self):
        with pytest.raises(ZeroBaselineError):
            capacity_ratios(Dataset.from_pairs([(1, 0.0), (2, 90.0)]))


class TestRoundTrip:
    # same coefficient grid the noiseless recovery gate uses
    GRID = [(a, b) for a in (0.0, 0.02, 0.1, 0.3) for b in (0.0, 1e-4, 5e-3)]

    # alphas off any 0.02-spaced grid
    OFF_GRID = [(a, b) for a in (0.005, 0.013, 0.037) for b in (0.0, 1e-4, 5e-3)]

    @pytest.mark.parametrize("alpha,beta", GRID + OFF_GRID)
    def test_normalized_mode_recovers_exactly(self, alpha, beta):
        fit = fit_usl(exact_dataset(alpha, beta, 100.0))
        assert fit.mode == MODE_NORMALIZED
        assert fit.params.alpha == pytest.approx(alpha, rel=1e-6, abs=1e-8)
        assert fit.params.beta == pytest.approx(beta, rel=1e-6, abs=1e-8)
        assert fit.params.x1 == 100.0  # pinned, not estimated

    def test_raw3_mode_recovers_all_three(self):
        # no n = 1 point, so x1 must come out of the optimisation
        d = exact_dataset(0.08, 0.002, 750.0, levels=[2, 4, 8, 16, 32, 64])
        fit = fit_usl(d)
        assert fit.mode == MODE_RAW3
        assert fit.params.alpha == pytest.approx(0.08, rel=1e-6, abs=1e-8)
        assert fit.params.beta == pytest.approx(0.002, rel=1e-6, abs=1e-8)
        assert fit.params.x1 == pytest.approx(750.0, rel=1e-6)

    def test_forced_raw3_with_baseline_present(self):
        d = exact_dataset(0.08, 0.002, 750.0)
        fit = fit_usl(d, FitOptions(mode=MODE_RAW3))
        assert fit.params.x1 == pytest.approx(750.0, rel=1e-6)

    def test_superlinear_data_lands_on_boundary(self):
        pairs = [(n, float(n) ** 1.2 * 50.0) for n in [1, 2, 4, 8, 16]]
        fit = fit_usl(Dataset.from_pairs(pairs))
        assert fit.params.alpha == 0.0
        assert fit.params.beta == 0.0

    @pytest.mark.parametrize("levels", [LEVELS, LEVELS_12], ids=["6-levels", "12-levels"])
    @pytest.mark.parametrize("alpha", [0.005, 0.013, 0.037, 0.02, 0.1, 0.3])
    def test_contention_only_data_fits_beta_exactly_zero(self, alpha, levels):
        fit = fit_usl(exact_dataset(alpha, 0.0, 100.0, levels))
        assert fit.params.beta == 0.0
        assert fit.params.alpha == pytest.approx(alpha, rel=1e-9)
        assert fit.regime is Regime.AMDAHL_SATURATING

    def test_amdahl_reproduction_has_no_peak(self):
        fit = fit_usl(exact_dataset(0.005, 0.0, 100.0, [1, 2, 4, 8, 16, 32, 64, 128, 192]))
        assert fit.params.beta == 0.0
        assert fit.params.alpha == pytest.approx(0.005, rel=1e-9)
        assert fit.r_squared >= 1.0 - 1e-12
        assert fit.peak == math.inf

    def test_r_squared_is_one_on_exact_data(self):
        fit = fit_usl(exact_dataset(0.1, 0.001, 200.0))
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.sse == pytest.approx(0.0, abs=1e-12)


class TestDeterminism:
    def test_bit_identical_repeat(self):
        d = noisy_dataset(0.06, 0.001, 120.0, 0.03, seed=9)
        f1, f2 = fit_usl(d), fit_usl(d)
        assert f1.params.alpha == f2.params.alpha
        assert f1.params.beta == f2.params.beta
        assert f1.params.x1 == f2.params.x1
        assert f1.sse == f2.sse

    def test_scale_equivariance(self):
        d = noisy_dataset(0.06, 0.001, 120.0, 0.01, seed=5)
        scaled = Dataset.from_pairs([(p.n, p.x * 1000.0) for p in d.points])
        f1, f2 = fit_usl(d), fit_usl(scaled)
        assert f2.params.alpha == pytest.approx(f1.params.alpha, abs=1e-9)
        assert f2.params.beta == pytest.approx(f1.params.beta, abs=1e-9)
        assert f2.params.x1 == pytest.approx(f1.params.x1 * 1000.0, rel=1e-9)

    def test_local_optimality_certificate(self):
        d = noisy_dataset(0.08, 0.003, 90.0, 0.02, seed=13)
        fit = fit_usl(d)
        a, b = fit.params.alpha, fit.params.beta
        x1 = d.baseline.x
        points = [(p.n, p.x) for p in d.points]
        base = sum_squared_residuals(points, a, b, x1)
        for da in (-1e-3, 0.0, 1e-3):
            for db in (-1e-3, 0.0, 1e-3):
                if da == db == 0.0:
                    continue
                pa = min(max(a + da, 0.0), 1.0 - 1e-12)
                pb = max(b + db, 0.0)
                perturbed = sum_squared_residuals(points, pa, pb, x1)
                assert perturbed >= base * (1.0 - 1e-9)


def scaled_copy(dataset, factor):
    return Dataset.from_pairs((p.n, p.x * factor) for p in dataset.points)


class TestUnitOfThroughput:
    # on this set unscaled, the solvers' squared sums underflow at 1e-170
    # (alpha = beta = 0 with r^2 = 1) and overflow at 1e154; fit_usl and the
    # bootstrap scale it by a power of two, so the unit must not matter
    DATA = noisy_dataset(0.05, 0.002, 1000.0, 0.02, seed=3)
    POWERS = [-1000, -900, -600, -300, -40, -1, 1, 40, 300, 600, 900, 1000]
    DECIMALS = [1e-300, 1e-200, 1e-170, 1e-100, 1e-10, 1e10, 1e100, 1e154, 1e200, 1e300]

    @pytest.mark.parametrize("mode", [MODE_AUTO, MODE_RAW3])
    def test_power_of_two_copies_fit_bit_identical_coefficients(self, mode):
        opt = FitOptions(mode=mode)
        want = fit_usl(self.DATA, opt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in self.POWERS:
                fit = fit_usl(scaled_copy(self.DATA, 2.0 ** k), opt)
                assert (fit.params.alpha, fit.params.beta) == (want.params.alpha, want.params.beta)
                assert fit.params.x1 == math.ldexp(want.params.x1, k)
                assert fit.r_squared == want.r_squared
                assert [r.residual for r in fit.residuals] == [
                    math.ldexp(r.residual, k) for r in want.residuals]

    def test_sse_is_in_the_data_units_and_infinite_only_on_overflow(self):
        want = fit_usl(self.DATA).sse
        for k, sse in ((-300, math.ldexp(want, -600)), (300, math.ldexp(want, 600)),
                       (600, math.inf)):
            assert fit_usl(scaled_copy(self.DATA, 2.0 ** k)).sse == sse

    @pytest.mark.parametrize("mode", [MODE_AUTO, MODE_RAW3])
    def test_decimal_copies_agree_and_warn_nothing(self, mode):
        opt = FitOptions(mode=mode)
        want = fit_usl(self.DATA, opt)
        close = dict(rel=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for factor in self.DECIMALS:
                fit = fit_usl(scaled_copy(self.DATA, factor), opt)
                assert fit.params.alpha == pytest.approx(want.params.alpha, **close)
                assert fit.params.beta == pytest.approx(want.params.beta, **close)
                assert fit.params.x1 == pytest.approx(factor * want.params.x1, **close)
                assert fit.r_squared == pytest.approx(want.r_squared, **close)

    def test_bootstrap_of_power_of_two_copies_is_bit_identical(self):
        want = bootstrap_confidence(self.DATA, replicates=50, seed=4)
        for k in (-900, 900):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = bootstrap_confidence(scaled_copy(self.DATA, 2.0 ** k), replicates=50, seed=4)
            assert (r.alpha_interval, r.beta_interval) == (want.alpha_interval, want.beta_interval)
            assert r.x1_interval == tuple(math.ldexp(v, k) for v in want.x1_interval)


class TestRoundingFloor:
    # exact data on which every step near the optimum used to be rejected
    # until the damped step underflowed, some 260 trial steps later
    SPINNERS = [
        (0.0, 1e-4, 1.0, [1, 2, 4, 8, 12, 16, 24, 32]),
        (0.0, 1e-3, 750.0, [2, 4, 8, 16, 32, 64]),
        (0.005, 0.0, 100.0, [2, 4, 8, 16, 32, 64]),
        (0.02, 0.0, 100.0, [2, 4, 8, 16, 32, 64]),
    ]

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = [0]
        inner = getattr(fitting, name)

        def counted(*args):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(fitting, name, counted)
        return calls

    @pytest.mark.parametrize("alpha,beta,x1,levels", SPINNERS)
    def test_scalar_polish_stops_at_the_rounding_floor(self, monkeypatch, alpha, beta, x1, levels):
        calls = self.count_calls(monkeypatch, "_residuals")
        fit = fit_usl(exact_dataset(alpha, beta, x1, levels))
        assert calls[0] <= 20
        assert fit.params.alpha == pytest.approx(alpha, rel=1e-6, abs=1e-9)
        assert fit.params.beta == pytest.approx(beta, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("mode", [MODE_NORMALIZED, MODE_RAW3])
    def test_scalar_fit_evaluates_the_model_through_residuals(self, monkeypatch, mode):
        # keeps the upper bounds above from passing vacuously: the solver
        # must evaluate the model through _residuals, whose calls they count
        calls = self.count_calls(monkeypatch, "_residuals")
        data = Dataset.from_pairs([(1, 955), (2, 1879), (4, 3549), (8, 6531),
                                   (16, 10798), (32, 14214), (48, 14993)])
        fit_usl(data, FitOptions(mode=mode))
        assert calls[0] >= 5

    @pytest.mark.parametrize("alpha,beta,x1,levels", SPINNERS)
    def test_batched_polish_stops_at_the_rounding_floor(self, monkeypatch, alpha, beta, x1, levels):
        calls = self.count_calls(monkeypatch, "_profile_rows")
        bootstrap_confidence(exact_dataset(alpha, beta, x1, levels), replicates=50, seed=1)
        assert calls[0] <= 40


def optimality_corpus(count=1000, seed=2027):
    """Seeded (kind, mode, ns, xs): both modes, both faces, off-grid alpha, closed queues.

    Modes cycle through normalized (n = 1 present), raw3 without a
    baseline and raw3 forced with one; kinds cycle independently.
    """
    rng = np.random.default_rng(seed)
    kinds = ("random", "alpha0-face", "beta0-face", "off-grid", "queue")
    out = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        mode = (MODE_AUTO, MODE_AUTO, MODE_RAW3)[i % 3]
        size = int(rng.integers(6, 17))
        lv = np.round(np.geomspace(2.0 if i % 3 == 1 else 1.0, rng.uniform(2.0 * size, 200.0), size))
        for j in range(1, size):
            lv[j] = max(lv[j], lv[j - 1] + 1.0)
        noise = 0.0 if rng.random() < 0.125 else float(rng.uniform(0.0, 0.05))
        if kind == "queue":
            s = float(rng.uniform(0.5, 2.0))
            z = s * float(rng.uniform(5.0, 200.0))
            xs = np.array([mva_solve(QueueParams(int(n), s, z)).x for n in lv])
        else:
            alpha = float(rng.uniform(0.0, 0.3))
            beta = float(10.0 ** rng.uniform(-7.0, -2.0))
            if kind == "alpha0-face":
                alpha = 0.0
            elif kind == "beta0-face":
                beta = 0.0
            elif kind == "off-grid":
                alpha = float(rng.choice([0.005, 0.013, 0.037]))
                beta = 0.0 if rng.random() < 0.3 else float(10.0 ** rng.uniform(-7.0, -3.0))
            xs = float(rng.uniform(10.0, 1000.0)) * np.asarray(usl_capacity(lv, UslParams(alpha, beta)))
        xs = np.maximum(xs * (1.0 + rng.normal(0.0, noise, size=size)), 1e-9)
        out.append((kind, mode, lv, xs))
    return out


class TestOptimality:
    def test_matches_grid_oracle_and_kkt_on_seeded_corpus(self):
        failures = []
        faces = {"alpha": 0, "beta": 0}
        for k, (kind, mode, ns, xs) in enumerate(optimality_corpus()):
            d = Dataset.from_pairs(zip(ns.tolist(), xs.tolist()))
            fit = fit_usl(d, FitOptions(mode=mode))
            a, b = fit.params.alpha, fit.params.beta
            pin = d.baseline.x if fit.mode == MODE_NORMALIZED else None
            ref = grid_optimum(ns, xs, pin)[2]
            if fit.sse > ref * (1.0 + 1e-9) + 1e-12 * float(np.dot(xs, xs)):
                failures.append(f"{k} ({kind}, {fit.mode}): sse {fit.sse!r} > grid {ref!r}")
            kkt = kkt_residual(list(zip(ns.tolist(), xs.tolist())), a, b, pin)
            if kkt > 1e-5:
                failures.append(f"{k} ({kind}, {fit.mode}): KKT residual {kkt:.3g} at ({a!r}, {b!r})")
            faces["alpha"] += a == 0.0
            faces["beta"] += b == 0.0
        assert not failures, f"{len(failures)} failures: " + "; ".join(failures[:10])
        # both faces of the box are exercised, not only its interior
        assert faces["alpha"] >= 50 and faces["beta"] >= 50, faces


CLOSE_LEVELS = [1000.0 + 0.5 * k for k in range(11)]
CLOSE_XS = [86.6, 87.0, 86.96, 86.79, 86.87, 87.02, 86.99, 87.01, 87.02, 87.15, 87.11]
REFERENCE_OPTIONS = [FitOptions(), FitOptions(max_refine_iter=1), FitOptions(beta_max=1e-5),
                     FitOptions(refine_tol=1e-3)]
EDGE_CASES = [
    # rows with x = 0, which the start skips
    (LEVELS_12, [100.0, 0.0, 270.0, 340.0, 0.0, 520.0, 0.0, 700.0, 730.0, 0.0, 690.0, 640.0]),
    # only one x > 0
    (LEVELS, [0.0, 0.0, 0.0, 310.0, 0.0, 0.0]),
    ([1, 2, 3, 5], [0.0, 0.0, 0.0, 7.5]),
    # close levels: the two Jacobian columns are nearly collinear
    ([1000, 1001, 1002, 1003, 1004, 1005], [61.0, 60.8, 61.1, 60.7, 60.9, 60.6]),
    ([5000, 5000.5, 5001, 5001.5], [12.0, 12.01, 11.98, 12.02]),
    # repeated levels, as in bootstrap resamples
    ([1, 1, 2, 4, 4, 8], [100.0, 103.0, 188.0, 320.0, 331.0, 450.0]),
    # at extreme scales the solvers' sums overflow or underflow, and the two
    # close-level cases come out of _minimize as alpha = -0.0 and alpha = nan;
    # fit_usl scales the data first, so it fits them as at unit scale
    (LEVELS, [1e150 * v for v in (1.0, 1.9, 3.4, 5.6, 7.1, 6.9)]),
    (LEVELS, [1e-165 * v for v in (1.0, 1.9, 3.4, 5.6, 7.1, 6.9)]),
    (CLOSE_LEVELS, [1e150 * v for v in CLOSE_XS]),
    (CLOSE_LEVELS, [1e152 * v for v in CLOSE_XS]),
]
EDGE_IDS = ["zero-rows", "one-positive", "one-positive-short", "collinear", "collinear-half",
            "repeated", "huge", "tiny", "signed-zero", "nan"]


def reference_mismatch(ns, xs, x1_pin, opt):
    """None when _minimize's (alpha, beta, x1) equals the vector reference bit for bit, else both."""
    alpha, beta, _, _, x1, _ = fitting._minimize(ns, xs, x1_pin, opt)
    got = alpha, beta, x1
    want = minimize_vector_reference(ns, xs, x1_pin, opt)
    # repr tells -0.0 from 0.0 and prints nan; Python floats, not numpy scalars
    if [repr(v) for v in got] == [repr(v) for v in want] and {type(v) for v in got} == {float}:
        return None
    return f"got {got!r}, reference {want!r}"


class TestVectorReference:
    """The scalar solver against the frozen numpy-vector solver in oracles.

    The solver keeps its two coefficients, gradient, norms and step in
    Python floats; every length-P computation is unchanged, so the results
    must be equal bit for bit, signed zeros included.
    """

    @pytest.mark.parametrize("opt", REFERENCE_OPTIONS,
                             ids=["default", "one-step", "beta-max", "loose-tol"])
    def test_matches_on_seeded_corpus(self, opt):
        mismatches = []
        for k, (kind, _, ns, xs) in enumerate(optimality_corpus()):
            # the lowest level's throughput as a pin, and profiled x1
            for pin in (float(xs[0]), None):
                diff = reference_mismatch(ns, xs, pin, opt)
                if diff is not None:
                    mismatches.append(f"{k} ({kind}, pin {pin}): {diff}")
        assert not mismatches, f"{len(mismatches)} mismatches: " + "; ".join(mismatches[:5])

    @pytest.mark.parametrize("ns,xs", EDGE_CASES, ids=EDGE_IDS)
    @pytest.mark.parametrize("opt", REFERENCE_OPTIONS + [FitOptions(beta_max=math.inf)],
                             ids=["default", "one-step", "beta-max", "loose-tol", "unbounded"])
    def test_matches_on_edge_cases(self, ns, xs, opt):
        ns, xs = np.array(ns, dtype=float), np.array(xs, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for pin in (float(xs.max()), None):
                assert reference_mismatch(ns, xs, pin, opt) is None

    @pytest.mark.parametrize("opt", [FitOptions(), FitOptions(beta_max=1e-5)],
                             ids=["default", "beta-max"])
    def test_matches_where_a_step_rounds_to_no_move(self, opt):
        # levels 1 to 1e12 with x1 pinned at the lowest throughput: a polish
        # step clips to the point it started from, so the loop stops there
        ns = np.array([1, 251, 63096, 15848932, 3981071706, 1e12])
        xs = np.array([8.343699359072005e-07, 0.00020937451028481778, 0.049520885222927996,
                       0.7848493401176067, 0.8341604044958997, 0.8343691015393343])
        source, first = inspect.getsourcelines(fitting._polish)
        stop = first + 1 + next(i for i, line in enumerate(source)
                                if "if c0 == t0 and c1 == t1:" in line)
        lines = set()

        def trace(frame, event, arg):
            if frame.f_code is not fitting._polish.__code__:
                return None
            if event == "line":
                lines.add(frame.f_lineno)
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            diff = reference_mismatch(ns, xs, float(xs[0]), opt)
        finally:
            sys.settrace(previous)
        assert diff is None
        assert stop in lines


def fit_usl_outputs():
    """repr of fit_usl's whole result, or of its error, on the corpus and the edge cases.

    The corpus runs under each option set in its own mode; each edge case
    runs in both the automatic and the raw3 mode.  repr prints every float
    exactly, signed zeros and nans included.
    """
    out = []
    corpus = optimality_corpus()
    for opt in REFERENCE_OPTIONS:
        for _, mode, ns, xs in corpus:
            d = Dataset.from_pairs(zip(ns.tolist(), xs.tolist()))
            out.append(repr(fit_usl(d, dataclasses.replace(opt, mode=mode))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for ns, xs in EDGE_CASES:
            for opt in REFERENCE_OPTIONS + [FitOptions(beta_max=math.inf)]:
                for mode in (MODE_AUTO, MODE_RAW3):
                    try:
                        fit = fit_usl(Dataset.from_pairs(zip(ns, xs)), dataclasses.replace(opt, mode=mode))
                        out.append(repr(fit))
                    except UslError as e:
                        out.append(f"{type(e).__name__}: {e}")
    return out


class TestFitUslPinned:
    # sha256 of fit_usl_outputs() as the solver stood before its per-call
    # overheads were cut, with the four extreme-scale edge cases fitted on
    # scaled data: any change to a fitted bit, a residual row, the sse, r^2,
    # the mode or an error message fails here
    DIGEST = "225a1426aa91cbd2775c90b7ca56cb2fdcbe8dc62df01cae19af35afe262cacf"

    def test_every_output_is_pinned(self):
        out = fit_usl_outputs()
        assert len(out) == 4 * 1000 + 5 * 2 * len(EDGE_CASES)
        assert hashlib.sha256("\n".join(out).encode()).hexdigest() == self.DIGEST


class TestEvaluateAndCompare:
    def test_diagnostics_match_stored_and_oracle(self):
        d = noisy_dataset(0.05, 0.002, 300.0, 0.04, seed=21)
        fit = fit_usl(d)
        diag = evaluate_fit(fit, d)
        points = [(p.n, p.x) for p in d.points]
        oracle = sum_squared_residuals(points, fit.params.alpha, fit.params.beta, fit.params.x1)
        assert diag.sse == pytest.approx(fit.sse, rel=1e-12)
        assert diag.sse == pytest.approx(oracle, rel=1e-12)
        assert diag.r_squared == pytest.approx(fit.r_squared, rel=1e-12)
        assert diag.max_relative_residual < 0.2

    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e160, 1e-300, 1e300])
    def test_diagnostics_do_not_depend_on_the_unit(self, scale):
        # at 1e-160 the unscaled sse is subnormal, at 1e-300 zero and from 1e160 infinite;
        # on the scaled sums the check gives the fit's own r^2 and sse at every scale
        noisy = [(1, 100.0), (2, 190.0), (4, 330.0), (8, 560.0), (16, 700.0), (32, 720.0)]
        d = Dataset.from_pairs((n, x * scale) for n, x in noisy)
        fit = fit_usl(d)
        diag = evaluate_fit(fit, d)
        assert fit.r_squared == pytest.approx(0.998243271848129, rel=1e-12)
        assert diag.r_squared == fit.r_squared
        assert diag.sse == fit.sse
        assert diag.max_relative_residual == pytest.approx(0.0342142453552183, rel=1e-12)

    def test_constant_throughput_fits_exactly(self):
        # a fully serialized system: alpha = 1 - 1e-12 leaves a residual of
        # some 1e-12 relative, so the sse is tiny but never exactly zero
        d = Dataset.from_pairs([(n, 100.0) for n in range(1, 7)])
        fit = fit_usl(d)
        assert 0.0 < fit.sse < 1e-16 * sum(p.x * p.x for p in d)
        assert fit.r_squared == 1.0 and evaluate_fit(fit, d).r_squared == 1.0
        # a fit that misses constant data explains none of it
        missed = dataclasses.replace(fit, params=UslParams(0.5, 0.0, 100.0))
        assert evaluate_fit(missed, d).r_squared == 0.0

    def test_fit_without_x1_cannot_be_evaluated(self):
        d = exact_dataset(0.05, 0.001, 100.0)
        fit = dataclasses.replace(fit_usl(d), params=UslParams(0.05, 0.001))
        with pytest.raises(MismatchedDatasetError, match="^fit result carries no x1"):
            evaluate_fit(fit, d)

    def test_mismatched_levels_rejected(self):
        d = exact_dataset(0.05, 0.001, 100.0)
        other = exact_dataset(0.05, 0.001, 100.0, levels=[1, 2, 4])
        fit = fit_usl(d)
        with pytest.raises(MismatchedDatasetError):
            evaluate_fit(fit, other)

    @staticmethod
    def _result(alpha, beta):
        return FitResult(
            params=UslParams(alpha, beta),
            sse=0.0,
            r_squared=1.0,
            residuals=(),
            significance_warning=False,
            mode=MODE_NORMALIZED,
        )

    def test_compare_known_systems(self):
        # two tuned releases of the same cache workload
        cmp = compare_fits(UslParams(0.0255, 0.0210), UslParams(0.0988, 0.0209))
        assert cmp.alpha_delta == pytest.approx(0.0733, rel=1e-12)
        assert cmp.beta_delta == pytest.approx(-0.0001, rel=1e-10)
        assert cmp.peak_a == pytest.approx(6.812104073247993, rel=1e-12)
        assert cmp.peak_b == pytest.approx(6.56655291799894, rel=1e-12)
        assert cmp.peak_delta == pytest.approx(-0.2455511552490529, rel=1e-10)
        assert cmp.scales_further == "a"

    def test_peaks_follow_the_params(self):
        fit = self._result(0.0255, 0.0210)  # peak 6.81
        assert fit.peak == pytest.approx(6.812104073247993, rel=1e-12)
        assert fit.practical_peak == 7.0
        assert fit.regime is Regime.RETROGRADE

    def test_compare_both_unbounded_is_tie(self):
        cmp = compare_fits(UslParams(0.1, 0.0), UslParams(0.3, 0.0))
        assert cmp.peak_delta == 0.0
        assert cmp.scales_further == "tie"

    def test_compare_finite_vs_unbounded(self):
        cmp = compare_fits(UslParams(0.1, 0.001), UslParams(0.1, 0.0))
        assert math.isinf(cmp.peak_delta)
        assert cmp.scales_further == "b"

    def test_halving_coherency_stretches_peak_by_sqrt2(self):
        fa = fit_usl(exact_dataset(0.05, 0.004, 100.0))
        fb = fit_usl(exact_dataset(0.05, 0.002, 100.0))
        assert fb.peak / fa.peak == pytest.approx(math.sqrt(2.0), rel=1e-9)


class TestFitErrors:
    def test_all_zero_throughput_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_usl(Dataset.from_pairs([(1, 0.0), (2, 0.0), (4, 0.0)]))

    def test_normalized_needs_three_points(self):
        with pytest.raises(InsufficientDataError):
            fit_usl(Dataset.from_pairs([(1, 10.0), (2, 18.0)]))

    def test_raw3_needs_four_points(self):
        with pytest.raises(InsufficientDataError):
            fit_usl(Dataset.from_pairs([(2, 18.0), (4, 30.0), (8, 44.0)]))

    def test_normalized_without_baseline(self):
        d = Dataset.from_pairs([(2, 18.0), (4, 30.0), (8, 44.0), (16, 50.0)])
        with pytest.raises(MissingBaselineError):
            fit_usl(d, FitOptions(mode=MODE_NORMALIZED))

    def test_zero_baseline(self):
        d = Dataset.from_pairs([(1, 0.0), (2, 18.0), (4, 30.0)])
        with pytest.raises(ZeroBaselineError):
            fit_usl(d, FitOptions(mode=MODE_NORMALIZED))

    def test_bad_options_rejected(self):
        with pytest.raises(DomainError):
            FitOptions(mode="least-squares")
        with pytest.raises(DomainError):
            FitOptions(beta_max=0.0)
        with pytest.raises(DomainError, match="^max_refine_iter must be an integer >= 1, got 0$"):
            FitOptions(max_refine_iter=0)

    @pytest.mark.parametrize("options,message", [
        ({"refine_tol": 1.0}, "refine_tol must be in (0, 1), got 1.0"),
        ({"refine_tol": math.inf}, "refine_tol must be in (0, 1), got inf"),
        ({"max_refine_iter": 2.5}, "max_refine_iter must be an integer >= 1, got 2.5"),
        ({"max_refine_iter": "600"}, "max_refine_iter must be an integer >= 1, got '600'"),
    ], ids=["tol-one", "tol-inf", "iter-fraction", "iter-text"])
    def test_options_that_would_break_the_fit_are_refused(self, options, message):
        # unchecked, a tolerance of 1 or more lets a face with a far larger sse win the
        # tie, and a fractional cap breaks the polish loop
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            FitOptions(**options)

    @pytest.mark.parametrize("mode", [MODE_AUTO, MODE_RAW3])
    def test_levels_up_to_2_to_the_64_fit_without_a_warning(self, mode):
        opt = FitOptions(mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for top in (1e10, 1e19, 2.0 ** 64):
                fit = fit_usl(Dataset.from_pairs([*HUGE_LEVEL_REST, (top, 300.0)]), opt)
                assert 0.0 < fit.params.alpha < 0.2 and fit.params.beta > 0.0
            beyond = math.nextafter(2.0 ** 64, math.inf)
            with pytest.raises(DomainError, match=r"^concurrency must be in \[1, 2\*\*64\], got "
                                                  r"1\.8446744073709556e\+19$"):
                Dataset.from_pairs([*HUGE_LEVEL_REST, (beyond, 300.0)])

    @pytest.mark.parametrize("mode", [MODE_AUTO, MODE_RAW3])
    def test_throughputs_near_the_float_maximum_fit_without_a_warning(self, mode):
        d = Dataset.from_pairs([(1, 1e308), (2, 1.7e308), (4, 1.79e308), (8, 1.79e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_usl(d, FitOptions(mode=mode))
            bootstrap_confidence(d, FitOptions(mode=mode), replicates=20, seed=1)
        # a modelled throughput beyond the float range is inf; the rest are finite
        modeled = [r.modeled for r in fit.residuals]
        assert math.inf in modeled and math.isfinite(fit.params.x1)

    def test_significance_warning_propagates(self):
        fit = fit_usl(exact_dataset(0.05, 0.001, 100.0, levels=[1, 2, 4]))
        assert fit.significance_warning
        assert not fit_usl(exact_dataset(0.05, 0.001, 100.0)).significance_warning


BOOT_LEVELS_8 = (1, 2, 4, 8, 12, 16, 24, 32)
BOOT_LEVELS_14 = (2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64)


def boot_dataset(kind, seed, noise=0.03):
    """An 8-level normalized or a 14-level raw3 dataset, the shapes the bootstrap is timed on."""
    if kind == "normalized-8":
        return noisy_dataset(0.08, 2e-4, 200.0, noise, seed, BOOT_LEVELS_8)
    return noisy_dataset(0.05, 1e-4, 120.0, noise, seed, BOOT_LEVELS_14)


def with_zeros(dataset, levels):
    """The dataset with throughput 0 at the given levels."""
    return Dataset.from_pairs((p.n, 0.0 if p.n in levels else p.x) for p in dataset.points)


def resamples(dataset, replicates, seed):
    """The (R, n) level and throughput arrays a seed's bootstrap fits."""
    idx = np.random.default_rng(seed).integers(0, len(dataset), size=(replicates, len(dataset)))
    return dataset.ns[idx], dataset.xs[idx]


def pin_of(dataset, options=None):
    return dataset.baseline.x if fit_usl(dataset, options).mode == MODE_NORMALIZED else None


def sse_mismatches(ns, xs, got, want):
    """Rows whose plain-loop sse differs between the draws got and want.

    Allowed: 1e-12 relative, plus the sse's own rounding resolution.  Near
    an optimum each modelled throughput carries a few ulps of error, which
    moves the sse by about eps * |x| * |r|; two correct solvers that stop a
    rounding step apart may differ by that much.
    """
    bad = []
    for i, (n_row, x_row) in enumerate(zip(ns, xs)):
        points = list(zip(n_row.tolist(), x_row.tolist()))
        sg = sum_squared_residuals(points, *got[i])
        sw = sum_squared_residuals(points, *want[i])
        top = max(sg, sw)
        tol = 1e-12 * top + 8.0 * np.finfo(float).eps * math.sqrt(top * float(x_row @ x_row))
        if abs(sg - sw) > tol:
            bad.append(f"draw {i}: sse {sg!r} against {sw!r}")
    return bad


def assert_matches_oracle(dataset, replicates, seed, options=None):
    """Intervals within 1e-6 relative and every draw's sse as sse_mismatches allows."""
    got = bootstrap_confidence(dataset, options, replicates=replicates, seed=seed)
    want, oracle_draws = bootstrap_per_replicate(dataset, options, replicates, seed)
    ns, xs = resamples(dataset, replicates, seed)
    draws = fitting._fit_rows(ns, xs, pin_of(dataset, options), options or FitOptions())
    assert not sse_mismatches(ns, xs, draws, oracle_draws)
    for name in ("alpha_interval", "beta_interval", "x1_interval"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-6, atol=0.0,
                                   err_msg=f"seed {seed}: {name}")
    assert (got.replicates, got.seed, got.level, got.dropped) == (
        want.replicates, want.seed, want.level, want.dropped)
    return draws


class TestBootstrap:
    def test_smoke_and_determinism(self):
        d = noisy_dataset(0.05, 0.002, 100.0, 0.03, seed=2)
        r1 = bootstrap_confidence(d, replicates=25, seed=3)
        r2 = bootstrap_confidence(d, replicates=25, seed=3)
        assert r1 == r2
        assert r1.alpha_interval[0] <= r1.alpha_interval[1]
        assert r1.beta_interval[0] <= r1.beta_interval[1]
        assert r1.x1_interval[0] <= r1.x1_interval[1]
        assert 0.0 <= r1.alpha_interval[0] and r1.alpha_interval[1] < 1.0
        assert r1.beta_interval[0] >= 0.0
        assert r1.replicates == 25 and r1.seed == 3 and r1.level == 0.95

    def test_pinned_x1_collapses_interval(self):
        d = noisy_dataset(0.05, 0.002, 100.0, 0.03, seed=2)
        r = bootstrap_confidence(d, replicates=10, seed=1)
        lo, hi = r.x1_interval
        assert lo == hi == d.baseline.x

    def test_rejects_bad_settings(self):
        d = exact_dataset(0.05, 0.001, 100.0)
        with pytest.raises(DomainError):
            bootstrap_confidence(d, replicates=1)
        with pytest.raises(DomainError):
            bootstrap_confidence(d, level=1.0)
        for replicates, seed in ((10.0, 0), ("10", 0), (10, -1), (10, 1.5), (10, None),
                                 (10, np.float64(2.0))):
            with pytest.raises(DomainError):
                bootstrap_confidence(d, replicates=replicates, seed=seed)

    def test_settings_are_checked_before_any_fit(self):
        # every throughput zero: a fit would raise DegenerateDataError
        d = Dataset.from_pairs([(1, 0.0), (2, 0.0), (4, 0.0)])
        with pytest.raises(DomainError):
            bootstrap_confidence(d, replicates=10.0)
        with pytest.raises(DomainError):
            bootstrap_confidence(d, seed=-1)

    def test_numpy_integers_are_accepted(self):
        d = noisy_dataset(0.05, 0.002, 100.0, 0.03, seed=2)
        r = bootstrap_confidence(d, replicates=np.int64(12), seed=np.int64(4))
        assert r == bootstrap_confidence(d, replicates=12, seed=4)
        assert type(r.replicates) is int and type(r.seed) is int

    @pytest.mark.parametrize("replicates", [100, 2])
    @pytest.mark.parametrize("kind", ["normalized-8", "raw3-14"])
    def test_matches_per_replicate_oracle(self, kind, replicates):
        for seed in range(30):
            assert_matches_oracle(boot_dataset(kind, seed), replicates, seed)

    # a raw3 resample needs three distinct levels, 88 of the 256 resamples of 4
    # levels lack them; a normalized one needs two above the baseline, index 0
    @pytest.mark.parametrize("mode,levels,identifies", [
        (MODE_RAW3, (2, 4, 8, 16), lambda row: len(set(row)) >= 3),
        (MODE_NORMALIZED, (1, 2, 4, 8), lambda row: len(set(row) - {0}) >= 2),
    ], ids=["raw3-4", "normalized-4"])
    def test_drops_and_counts_resamples_that_cannot_identify(self, mode, levels, identifies):
        opt = FitOptions(mode=mode)
        for seed in range(5):
            d = noisy_dataset(0.05, 0.002, 100.0, 0.02, seed, levels)
            idx = np.random.default_rng(seed).integers(0, 4, size=(200, 4))
            dropped = sum(not identifies(row) for row in idx.tolist())
            assert bootstrap_confidence(d, opt, replicates=200, seed=seed).dropped == dropped > 0
            assert_matches_oracle(d, 200, seed, opt)

    def test_fewer_than_two_identifying_resamples_raise(self):
        # of 3 levels with x1 pinned, a resample must draw both levels above n = 1
        d = exact_dataset(0.05, 0.002, 100.0, [1, 2, 4])
        for seed in range(20):
            idx = np.random.default_rng(seed).integers(0, 3, size=(2, 3))
            if sum({1, 2} <= set(row) for row in idx.tolist()) < 2:
                with pytest.raises(InsufficientDataError, match="fewer than 2 remain"):
                    bootstrap_confidence(d, replicates=2, seed=seed)
            else:
                assert bootstrap_confidence(d, replicates=2, seed=seed).dropped == 0

    @pytest.mark.parametrize("kind", ["normalized-8", "raw3-14"])
    def test_noiseless_data_matches_oracle(self, kind):
        for seed in range(3):
            draws = assert_matches_oracle(boot_dataset(kind, seed, noise=0.0), 50, seed)
            assert (draws[:, 2] > 0.0).all()

    @pytest.mark.parametrize("kind,zeros", [("normalized-8", (24.0, 32.0)),
                                            ("raw3-14", (48.0, 64.0))])
    def test_zero_throughput_resamples_match_oracle(self, kind, zeros):
        for seed in range(5):
            d = with_zeros(boot_dataset(kind, seed), zeros)
            _, xs = resamples(d, 60, seed)
            assert (xs == 0.0).any(axis=1).sum() >= 30
            assert_matches_oracle(d, 60, seed)

    @pytest.mark.parametrize("alpha,beta,on", [(0.0, 3e-4, 0), (0.05, 0.0, 1), (0.005, 0.0, 1)],
                             ids=["alpha0-face", "beta0-face", "amdahl"])
    @pytest.mark.parametrize("levels", [BOOT_LEVELS_8, BOOT_LEVELS_14],
                             ids=["normalized-8", "raw3-14"])
    def test_noiseless_face_data_lands_every_draw_on_the_face(self, alpha, beta, on, levels):
        # the polish stops near the face, and the tie rule puts the draw on it
        for seed in range(3):
            draws = assert_matches_oracle(exact_dataset(alpha, beta, 150.0, levels), 60, seed)
            assert (draws[:, on] == 0.0).all()

    def test_single_level_raw3_resamples_match_oracle(self):
        # with 4 levels, about one resample in 64 draws a single level 4 times
        d = noisy_dataset(0.05, 1e-3, 100.0, 0.01, seed=2, levels=[2, 3, 5, 9])
        assert fit_usl(d).mode == MODE_RAW3
        ns, _ = resamples(d, 200, 7)
        assert (ns == ns[:, :1]).all(axis=1).sum() >= 2
        assert_matches_oracle(d, 200, 7)

    def test_single_level_rows_have_no_free_coordinate(self):
        opt = FitOptions()
        for n in (1.0, 2.0, 7.0, 64.0):
            ns, xs = np.full((1, 6), n), np.full((1, 6), 37.5)
            row = fitting._fit_rows(ns, xs, None, opt)[0]
            alpha, beta, _, _, x1, _ = fitting._minimize(ns[0], xs[0], None, opt)
            assert tuple(row) == (alpha, beta, x1)
            assert row[0] == row[1] == 0.0
            assert row[2] == pytest.approx(37.5 / n, rel=1e-15)

    def test_one_call_draw_equals_sequential_draws(self):
        for seed, n, r in ((0, 8, 200), (3, 14, 200), (97, 4, 37), (12345, 1000, 5)):
            one = np.random.default_rng(seed).integers(0, n, size=(r, n))
            rng = np.random.default_rng(seed)
            sequential = np.stack([rng.integers(0, n, size=n) for _ in range(r)])
            assert np.array_equal(one, sequential)

    @pytest.mark.parametrize("kind", ["normalized-8", "raw3-14"])
    def test_each_row_equals_the_kernel_on_that_row_alone(self, kind):
        d = with_zeros(boot_dataset(kind, 5), {32.0, 64.0})
        ns, xs = resamples(d, 120, 5)
        # single-level rows, the last of them at the lowest level
        ns[:4], xs[:4] = ns[:4, :1], xs[:4, :1]
        ns[4], xs[4] = d.ns[0], d.xs[0]
        pin, opt = pin_of(d), FitOptions()
        batch = fitting._fit_rows(ns, xs, pin, opt)
        for j in range(len(ns)):
            alone = fitting._fit_rows(ns[j:j + 1], xs[j:j + 1], pin, opt)[0]
            assert np.array_equal(alone, batch[j]), j

    def test_batch_size_does_not_change_the_result(self, monkeypatch):
        d = boot_dataset("raw3-14", 8)
        whole = bootstrap_confidence(d, replicates=50, seed=8)
        monkeypatch.setattr(fitting, "_BATCH_POINTS", 3 * len(d))  # batches of 3 resamples
        assert bootstrap_confidence(d, replicates=50, seed=8) == whole

    def test_no_runtime_warnings(self):
        datasets = [
            boot_dataset("normalized-8", 1),
            boot_dataset("raw3-14", 1),
            boot_dataset("normalized-8", 1, noise=0.0),
            boot_dataset("raw3-14", 1, noise=0.0),
            # 4 levels: some resamples draw a single level
            noisy_dataset(0.05, 1e-3, 100.0, 0.01, seed=2, levels=[2, 3, 5, 9]),
            with_zeros(boot_dataset("normalized-8", 1), (16.0, 24.0, 32.0)),
            with_zeros(boot_dataset("raw3-14", 1), (2.0, 48.0, 64.0)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in datasets:
                fit_usl(d)
                for seed in range(4):
                    bootstrap_confidence(d, replicates=50, seed=seed)
            for n in (1.0, 2.0, 64.0):
                for pin in (None, 200.0):
                    fitting._fit_rows(np.full((2, 6), n), np.full((2, 6), 37.5), pin, FitOptions())


ROWS_OPTIONS = [FitOptions(), FitOptions(max_refine_iter=1), FitOptions(max_refine_iter=2),
                FitOptions(max_refine_iter=3), FitOptions(max_refine_iter=7),
                FitOptions(max_refine_iter=15), FitOptions(beta_max=1e-5),
                FitOptions(refine_tol=1e-3)]
ROWS_OPTION_IDS = ["default", "iter-1", "iter-2", "iter-3", "iter-7", "iter-15", "beta-max",
                   "loose-tol"]


def rows_batches():
    """(name, ns, xs, pin) batches of resampled rows: both modes, zero throughputs,
    single-level rows, noiseless face data and rows that all spin together."""
    out = []
    for kind in ("normalized-8", "raw3-14"):
        for seed in range(4):
            d = boot_dataset(kind, seed)
            out.append((f"{kind}/{seed}", *resamples(d, 120, seed), pin_of(d)))
        zeros = (24.0, 32.0) if kind == "normalized-8" else (2.0, 48.0, 64.0)
        d = with_zeros(boot_dataset(kind, 1), zeros)
        out.append((f"{kind}/zeros", *resamples(d, 120, 1), pin_of(d)))
        d = boot_dataset(kind, 3, noise=0.0)
        out.append((f"{kind}/noiseless", *resamples(d, 60, 3), pin_of(d)))
    d = noisy_dataset(0.05, 1e-3, 100.0, 0.01, seed=2, levels=[2, 3, 5, 9])
    ns, xs = resamples(d, 200, 7)
    ns[:3], xs[:3] = ns[:3, :1], xs[:3, :1]  # single-level rows
    out.append(("single-level", ns, xs, None))
    for alpha, beta in ((0.0, 3e-4), (0.05, 0.0), (0.005, 0.0)):
        for levels in (BOOT_LEVELS_8, BOOT_LEVELS_14):
            d = exact_dataset(alpha, beta, 150.0, levels)
            out.append((f"face/{alpha}/{beta}/{len(levels)}", *resamples(d, 60, 3), pin_of(d)))
    # resamples whose steps are rejected 11 and 17 times in a row, alone and
    # repeated, so that every row is rejected on the same passes
    d = boot_dataset("normalized-8", 0)
    ns, xs = resamples(d, 200, 0)
    for row in (83, 198):
        for rows in (1, 200):
            name = f"rejected/{row}" + ("/repeated" if rows > 1 else "")
            out.append((name, np.tile(ns[row], (rows, 1)), np.tile(xs[row], (rows, 1)),
                        d.baseline.x))
    return out


class TestRowsReference:
    """The batched solver against its frozen one-step-per-pass copy in oracles.

    Trying a rejected row's shrinking steps together changes how many
    passes the polish takes, never a row's arithmetic, so every row must be
    equal bit for bit, signed zeros and nans included.
    """

    @pytest.mark.parametrize("batch_points", [None, 64], ids=["batch-default", "batch-64"])
    @pytest.mark.parametrize("opt", ROWS_OPTIONS, ids=ROWS_OPTION_IDS)
    def test_rows_match_bit_for_bit(self, monkeypatch, opt, batch_points):
        if batch_points is not None:
            monkeypatch.setattr(fitting, "_BATCH_POINTS", batch_points)
        mismatches = []
        for name, ns, xs, pin in rows_batches():
            got = fitting._fit_rows(ns, xs, pin, opt)
            want = fit_rows_reference(ns, xs, pin, opt)
            bad = [i for i in range(len(ns)) if got[i].tobytes() != want[i].tobytes()]
            if bad:
                mismatches.append(f"{name}: rows {bad[:5]}, e.g. {got[bad[0]]!r} "
                                  f"against {want[bad[0]]!r}")
        assert not mismatches, "; ".join(mismatches)

    @pytest.mark.parametrize("ns,xs", EDGE_CASES, ids=EDGE_IDS)
    def test_edge_rows_match_bit_for_bit(self, ns, xs):
        ns, xs = np.array(ns, dtype=float), np.array(xs, dtype=float)
        idx = np.random.default_rng(4).integers(0, len(ns), size=(40, len(ns)))
        idx[0] = np.arange(len(ns))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for opt in ROWS_OPTIONS + [FitOptions(beta_max=math.inf)]:
                for pin in (float(xs.max()), None):
                    got = fitting._fit_rows(ns[idx], xs[idx], pin, opt)
                    want = fit_rows_reference(ns[idx], xs[idx], pin, opt)
                    assert got.tobytes() == want.tobytes(), (opt, pin)

    def test_rejected_rows_share_one_pass(self, monkeypatch):
        # 200 copies of a resample whose steps are rejected after its third
        # pass try their shrinking steps in one grid, 16 to a row, or as
        # many as _BATCH_POINTS allows
        sizes = []
        inner = fitting._profile_rows

        def sized(*args):
            sizes.append(len(args[0]))
            return inner(*args)

        monkeypatch.setattr(fitting, "_profile_rows", sized)
        _, ns, xs, pin = next(b for b in rows_batches() if b[0] == "rejected/83/repeated")
        want = fit_rows_reference(ns, xs, pin, FitOptions()).tobytes()
        assert fitting._fit_rows(ns, xs, pin, FitOptions()).tobytes() == want
        assert max(sizes) == 200 * 16
        sizes.clear()
        monkeypatch.setattr(fitting, "_BATCH_POINTS", 200 * 8 * 5)
        assert fitting._fit_rows(ns, xs, pin, FitOptions()).tobytes() == want
        assert max(sizes) == 200 * 5


# bootstrap_confidence(boot_dataset(kind, seed), replicates=200, seed=seed) as the solver
# with one trial step per pass gave them; the reprs are exact, so any change to a
# bootstrap digest fails here
PINNED_INTERVALS = {
    ("normalized-8", 0): "((0.0763087692028788, 0.08403050856543694), "
                         "(0.0, 0.0002757460056043124), "
                         "(200.75438132656035, 200.75438132656035))",
    ("normalized-8", 1): "((0.07119429535654871, 0.08844459258317759), "
                         "(0.0, 0.0007095142299408233), "
                         "(202.07350515238872, 202.07350515238872))",
    ("normalized-8", 2): "((0.06662169137679685, 0.08758645242535858), "
                         "(0.0, 0.0009060270881321746), "
                         "(201.13432029076122, 201.13432029076122))",
    ("raw3-14", 0): "((0.03941196151374335, 0.06621232546125079), (0.0, 0.0003606277094722666), "
                    "(115.91909664291431, 133.34749451971962))",
    ("raw3-14", 1): "((0.04126945830711112, 0.054894280653845766), "
                    "(3.744212973635808e-05, 0.00023452019429948432), "
                    "(114.20423910736221, 124.08483997569384))",
    ("raw3-14", 2): "((0.03659416384850182, 0.05352932985169696), "
                    "(0.00011220889187364999, 0.00026968753815227747), "
                    "(110.52079580220762, 125.03752242981491))",
}


TINY_BASE_REST = [(2, 1e10), (4, 2e10), (8, 3e10), (16, 3.5e10), (32, 3.6e10)]
HUGE_LEVEL_REST = [(1, 100.0), (2, 190.0), (4, 300.0)]


class TestBootstrapSetup:
    @pytest.mark.parametrize("kind,seed", sorted(PINNED_INTERVALS))
    def test_intervals_are_pinned(self, kind, seed):
        r = bootstrap_confidence(boot_dataset(kind, seed), replicates=200, seed=seed)
        got = repr((r.alpha_interval, r.beta_interval, r.x1_interval))
        assert got == PINNED_INTERVALS[kind, seed]

    def test_bootstrap_does_not_call_fit_usl(self, monkeypatch):
        d = boot_dataset("raw3-14", 3)
        want = bootstrap_confidence(d, replicates=30, seed=3)

        def refuse(*args, **kwargs):
            raise AssertionError("bootstrap_confidence called fit_usl")

        monkeypatch.setattr(fitting, "fit_usl", refuse)
        assert bootstrap_confidence(d, replicates=30, seed=3) == want
        assert fitting.bootstrap_confidence(d, replicates=30, seed=3) == want

    @pytest.mark.parametrize("pairs,mode,error", [
        ([(1, 0.0), (2, 0.0), (4, 0.0)], MODE_AUTO, DegenerateDataError),
        ([(1, 0.0), (2, 0.0), (4, 0.0), (8, 0.0)], MODE_RAW3, DegenerateDataError),
        ([(1, 10.0), (2, 18.0)], MODE_AUTO, InsufficientDataError),
        ([(2, 18.0), (4, 30.0), (8, 44.0)], MODE_AUTO, InsufficientDataError),
        ([(1, 10.0), (2, 18.0), (4, 30.0)], MODE_RAW3, InsufficientDataError),
        ([(2, 18.0), (4, 30.0), (8, 44.0), (16, 50.0)], MODE_NORMALIZED, MissingBaselineError),
        ([(1, 0.0), (2, 18.0), (4, 30.0)], MODE_NORMALIZED, ZeroBaselineError),
        ([(1, 0.0), (2, 18.0), (4, 30.0)], MODE_AUTO, ZeroBaselineError),
        # a baseline this far below the rest overflows the start's weights
        ([(1, 1e-300), *TINY_BASE_REST], MODE_AUTO, DegenerateDataError),
        ([(2, 1e-300), *TINY_BASE_REST[1:]], MODE_AUTO, DegenerateDataError),
        # ... and this one their sums of squares
        ([(1, 1e-150), *TINY_BASE_REST], MODE_AUTO, DegenerateDataError),
        # the level-count and baseline errors come first
        ([(1, 1e-300), *TINY_BASE_REST[:1]], MODE_AUTO, InsufficientDataError),
        ([(2, 1e-300), *TINY_BASE_REST[1:3]], MODE_AUTO, InsufficientDataError),
        ([(2, 1e-300), *TINY_BASE_REST[1:]], MODE_NORMALIZED, MissingBaselineError),
        # a level this far out would overflow the start's sums and the model's
        # n * (n - 1), so no dataset holds one, for fit_usl or the bootstrap
        ([*HUGE_LEVEL_REST, (1.35e154, 300.0)], MODE_AUTO, DomainError),
        ([*HUGE_LEVEL_REST, (1.35e154, 300.0)], MODE_RAW3, DomainError),
    ], ids=["all-zero", "all-zero-raw3", "normalized-2", "raw3-3", "forced-raw3-3",
            "no-baseline", "zero-baseline", "zero-baseline-auto", "tiny-baseline",
            "tiny-baseline-raw3", "small-baseline", "tiny-normalized-2", "tiny-raw3-3",
            "tiny-no-baseline", "huge-level", "huge-level-raw3"])
    def test_bootstrap_raises_what_fit_usl_raises(self, pairs, mode, error):
        opt = FitOptions(mode=mode)
        with pytest.raises(error) as fit_error:
            fit_usl(Dataset.from_pairs(pairs), opt)
        with pytest.raises(error) as boot_error:
            bootstrap_confidence(Dataset.from_pairs(pairs), opt, replicates=10)
        assert str(boot_error.value) == str(fit_error.value)

    def test_data_near_overflow_fit_and_resample_as_at_unit_scale(self):
        # squared sums of these throughputs overflow unless the fit scales
        # them first; the fit and the intervals are those of the unit-scale
        # set, times 1e154 for x1
        xs = (1.0, 1.9, 3.4, 5.6, 7.1, 6.9)
        unit = Dataset.from_pairs(zip(LEVELS, xs))
        d = Dataset.from_pairs((n, 1e154 * x) for n, x in zip(LEVELS, xs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit, want = fit_usl(d), fit_usl(unit)
            r = bootstrap_confidence(d, replicates=50, seed=0)
        close = dict(rel=1e-12)
        assert fit.params.alpha == pytest.approx(want.params.alpha, **close)
        assert fit.params.beta == pytest.approx(want.params.beta, **close)
        assert fit.params.x1 == pytest.approx(1e154 * want.params.x1, **close)
        r_unit = bootstrap_confidence(unit, replicates=50, seed=0)
        assert r.alpha_interval == pytest.approx(r_unit.alpha_interval, **close)
        assert r.beta_interval == pytest.approx(r_unit.beta_interval, **close)
        assert r.x1_interval == pytest.approx(tuple(1e154 * v for v in r_unit.x1_interval), **close)
