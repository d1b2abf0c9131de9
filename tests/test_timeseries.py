import dataclasses
import math
import re

import numpy as np
import pytest

from uslkit import (
    DomainError,
    NoSteadyStateError,
    RunSeries,
    SteadyStateConfig,
    SteadyWindow,
    TrimExceedsRunError,
    aggregate_runs,
    extract_steady_state,
)
from oracles import steady_window_mser


def constant_run(load, level, n=20, step=5.0):
    return RunSeries(load=load, samples=tuple((i * step, level) for i in range(n)))


def trapezoid_run(load, plateau=100.0, noise=0.02, seed=11):
    # 30s ramp up, 360s noisy plateau, 30s ramp down, 5s sampling
    rng = np.random.default_rng(seed)
    samples = []
    t = 0.0
    while t <= 420.0:
        if t < 30.0:
            x = plateau * t / 30.0
        elif t <= 390.0:
            x = plateau * (1.0 + rng.normal(0.0, noise))
        else:
            x = plateau * max(0.0, (420.0 - t) / 30.0)
        samples.append((t, max(x, 0.0)))
        t += 5.0
    return RunSeries(load=load, samples=tuple(samples))


class TestRunSeries:
    def test_validation(self):
        good = tuple((float(i), 10.0) for i in range(5))
        with pytest.raises(DomainError):
            RunSeries(load=2.0, samples=good[:4])
        with pytest.raises(DomainError):
            RunSeries(load=2.0, samples=((0.0, 1.0), (1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)))
        with pytest.raises(DomainError):
            RunSeries(load=2.0, samples=((0.0, 1.0), (1.0, -1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)))
        with pytest.raises(DomainError):
            RunSeries(load=0.5, samples=good)

    def test_arrays(self):
        r = constant_run(2.0, 50.0, n=5)
        assert list(r.times) == [0.0, 5.0, 10.0, 15.0, 20.0]
        assert list(r.values) == [50.0] * 5

    @pytest.mark.parametrize("samples, message", [
        (((0, 1), (1, 1), (2, 1), (3, 1)), "a run needs at least 5 samples, got 4"),
        ((), "a run needs at least 5 samples, got 0"),
        (((0, 1), (1, -1), (2, 1), (2, 1), (1, 1)), r"timestamps must strictly increase \(at t=2\)"),
        (((0, 1), (1, 1), (math.nan, 1), (3, 1), (4, 1)),
         r"timestamps must strictly increase \(at t=nan\)"),
        (((0, 1), (1, 1), (2, math.inf), (3, -1), (4, 1)),
         r"throughput must be finite and >= 0 \(at t=2\)"),
        (((0, 1), (1, 1), (2, 1), (3, 1), (math.inf, 1)),
         r"throughput must be finite and >= 0 \(at t=inf\)"),
        (((0, 1), (1, 1), (2, 1), (3, -0.5), (4, math.nan)),
         r"throughput must be finite and >= 0 \(at t=3\)"),
        (((0, 1, 9),) * 5, r"samples must be \(timestamp, throughput\) pairs"),
    ])
    def test_checks_name_the_first_offending_sample(self, samples, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            RunSeries(load=2.0, samples=samples)

    @pytest.mark.parametrize("trim,message", [
        pytest.param((math.nan, 0.0), "trim_up must be >= 0, got nan", id="trim0"),
        pytest.param((0.0, math.nan), "trim_down must be >= 0, got nan", id="trim1"),
        pytest.param((math.inf, 0.0), "trim_up must be finite, got inf", id="trim2"),
        pytest.param((0.0, math.inf), "trim_down must be finite, got inf", id="trim3"),
        pytest.param((-1.0, 0.0), "trim_up must be >= 0, got -1.0", id="trim4"),
    ])
    def test_trims_must_be_finite_and_nonnegative(self, trim, message):
        # trims are a SteadyStateConfig setting, not part of the run
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            SteadyStateConfig(trim=trim)
        assert "trim" not in {f.name for f in dataclasses.fields(RunSeries)}

    def test_tuple_and_array_samples_agree(self):
        tup = trapezoid_run(4.0)
        arr = RunSeries(load=4.0, samples=np.array(tup.samples))
        for a, b in ((tup.times, arr.times), (tup.values, arr.values)):
            assert a.tobytes() == b.tobytes()
        assert extract_steady_state(tup) == extract_steady_state(arr)
        assert tup == arr and hash(tup) == hash(arr)

    def test_arrays_are_built_once_and_read_only(self):
        run = trapezoid_run(4.0)
        assert run.times is run.times and run.values is run.values
        assert not hasattr(run, "_times") and not hasattr(run, "_values")
        # each sample is held once: times and values are views of samples
        assert np.shares_memory(run.times, run.samples)
        assert np.shares_memory(run.values, run.samples)
        for a in (run.times, run.values, run.samples):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_caller_array_is_copied(self):
        a = np.array([(float(i), 10.0) for i in range(5)])
        run = RunSeries(load=2.0, samples=a)
        a[1, 1] = -1.0
        assert a.flags.writeable and run.values[1] == 10.0

    def test_samples_keep_the_pair_interface(self):
        pairs = tuple((float(i), 10.0 + i) for i in range(7))
        run = RunSeries(load=2.0, samples=pairs)
        assert len(run.samples) == 7
        assert [(t, x) for t, x in run.samples] == list(pairs)

    def test_replace_validates_and_keeps_the_samples(self):
        run = constant_run(2.0, 50.0)
        moved = dataclasses.replace(run, load=3.0)
        assert moved.load == 3.0 and moved.samples.tolist() == run.samples.tolist()
        with pytest.raises(DomainError):
            dataclasses.replace(run, load=math.nan)

    def test_equality_and_hash_by_value(self):
        a = constant_run(2.0, 50.0)
        assert a == constant_run(2.0, 50.0)
        assert a != constant_run(2.0, 51.0)
        assert a != constant_run(3.0, 50.0)
        assert a != constant_run(2.0, 50.0, n=21)
        assert a != (a.load, a.samples)
        negzero = RunSeries(load=2.0, samples=((-0.0, 50.0), *a.samples[1:].tolist()))
        assert negzero == a and hash(negzero) == hash(a)
        assert len({a, constant_run(2.0, 50.0), constant_run(2.0, 51.0)}) == 2


@pytest.mark.parametrize("args, message", [
    ((5.0, 5.0, 10.0, 0.1, 3), "window must have positive duration"),
    # the ids these had before check_range worded the rules
    pytest.param((0.0, 5.0, 10.0, 0.1, 2), "sample_count must be an integer >= 3, got 2",
                 id="args1-window must contain at least 3 samples"),
    pytest.param((0.0, 5.0, 10.0, -0.1, 3), "cv must be >= 0, got -0.1",
                 id="args2-cv cannot be negative"),
])
def test_steady_window_checks(args, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        SteadyWindow(*args)


class TestExplicitTrim:
    def test_exact_mean_over_kept_samples(self):
        vals = [50.0, 80.0, 100.0, 100.0, 100.0, 100.0, 80.0]
        run = RunSeries(load=2.0, samples=tuple((float(i * 10), v) for i, v in enumerate(vals)))
        w = extract_steady_state(run, SteadyStateConfig(trim=(15.0, 5.0)))
        # keeps t in [15, 55]: the four samples that all read 100
        assert (w.start, w.end) == (15.0, 55.0)
        assert w.mean_throughput == 100.0
        assert w.cv == 0.0
        assert w.sample_count == 4

    def test_trim_that_leaves_no_interval(self):
        run = RunSeries(load=2.0, samples=tuple((float(i * 10), 10.0) for i in range(5)))
        with pytest.raises(TrimExceedsRunError):
            extract_steady_state(run, SteadyStateConfig(trim=(30.0, 30.0)))

    def test_trim_that_leaves_too_few_samples(self):
        run = RunSeries(load=2.0, samples=tuple((float(i * 10), 10.0) for i in range(5)))
        with pytest.raises(TrimExceedsRunError):
            extract_steady_state(run, SteadyStateConfig(trim=(15.0, 15.0)))


class TestDetection:
    def test_ramp_then_plateau_lands_on_plateau(self):
        # 30s ramp up then 360s of 1% noise; the slope guard must push
        # the window start past the ramp
        rng = np.random.default_rng(3)
        samples = []
        t = 0.0
        while t <= 390.0:
            if t < 30.0:
                x = 100.0 * t / 30.0
            else:
                x = 100.0 * (1.0 + rng.normal(0.0, 0.01))
            samples.append((t, max(x, 0.0)))
            t += 5.0
        w = extract_steady_state(RunSeries(load=4.0, samples=tuple(samples)))
        assert w.start >= 30.0
        assert abs(w.mean_throughput - 100.0) / 100.0 < 0.01
        assert w.cv <= 0.15

    def test_trapezoid_with_strict_cv(self):
        # symmetric ramps cancel the fitted slope, so the cv limit is
        # what keeps the window on the plateau (within one shoulder
        # sample on each side)
        w = extract_steady_state(trapezoid_run(8.0), SteadyStateConfig(cv_max=0.05))
        assert w.start >= 25.0
        assert w.end <= 395.0
        assert abs(w.mean_throughput - 100.0) / 100.0 < 0.01

    def test_longest_window_wins(self):
        # constant series: the whole run is valid, so it is the answer
        w = extract_steady_state(constant_run(2.0, 80.0, n=30))
        assert (w.start, w.end) == (0.0, 145.0)
        assert w.mean_throughput == 80.0
        assert w.sample_count == 30

    def test_dips_are_kept_in_the_window(self):
        # a single stall sample in the middle stays in the mean
        samples = [(float(t), 100.0) for t in range(0, 355, 5)]
        samples[35] = (175.0, 60.0)
        w = extract_steady_state(RunSeries(load=16.0, samples=tuple(samples)))
        assert w.sample_count == len(samples)
        assert w.mean_throughput == pytest.approx(7060.0 / 71.0, rel=1e-15)

    def test_monotone_ramp_has_no_steady_state(self):
        run = RunSeries(load=2.0, samples=tuple((float(i * 5), 10.0 + 2.0 * i) for i in range(40)))
        with pytest.raises(NoSteadyStateError) as err:
            extract_steady_state(run)
        assert "drift" in str(err.value) and "cv" in str(err.value)

    def test_all_zero_run_has_no_steady_state(self):
        with pytest.raises(NoSteadyStateError):
            extract_steady_state(constant_run(2.0, 0.0, n=10))

    @pytest.mark.parametrize("values, cfg, reason", [
        # a 5-sample ramp keeps its last 3, the fewest a window may hold
        ([1.0, 2.0, 3.0, 4.0, 5.0], SteadyStateConfig(), r"\[10s, 20s\] has cv 0\.2041 > 0\.15"),
        ([0.0] * 10, SteadyStateConfig(), r"\[0s, 45s\] has mean throughput 0"),
        ([0.0] * 5 + [100.0] * 15, SteadyStateConfig(min_fraction=0.8),
         r"\[25s, 95s\] lasts 70s, under 80% of the 95s run"),
        ([50.0, 150.0] * 20, SteadyStateConfig(), r"\[0s, 195s\] has cv 0\.5 > 0\.15"),
        (100.0 + 0.05 * np.arange(200) + np.random.default_rng(1).normal(0.0, 5.0, 200),
         SteadyStateConfig(), r"\[0s, \d+s\] has drift 0\.\d+ \(standard error 0\.\d+\) > 0\.01"),
        # ramps over 35% at each end: the window keeps half the run and bends down at both ends
        (np.minimum(1.0, np.minimum(np.arange(200), np.arange(199, -1, -1)) / 70.0) * 100.0,
         SteadyStateConfig(), r"\[\d+s, \d+s\] has curvature 0\.\d+ \(standard error 0\.\d+\) > 0\.01"),
    ], ids=["samples", "mean", "duration", "cv", "drift", "curvature"])
    def test_rejection_names_the_binding_check(self, values, cfg, reason):
        run = RunSeries(load=2.0, samples=tuple((i * 5.0, v) for i, v in enumerate(values)))
        with pytest.raises(NoSteadyStateError) as err:
            extract_steady_state(run, cfg)
        assert re.fullmatch(
            f"the MSER window {reason}; a steady window needs at least 3 samples, a positive "
            f"mean, at least {cfg.min_fraction:.0%} of the run, cv <= {cfg.cv_max:g} and drift "
            f"<= {cfg.slope_tol:g} beyond 3 standard errors",
            str(err.value),
        )

    @pytest.mark.parametrize("cfg", [SteadyStateConfig(), SteadyStateConfig(trim=(20.0, 5.0))],
                             ids=["detected", "trimmed"])
    def test_the_window_does_not_depend_on_the_unit(self, cfg):
        # a 20-sample ramp, then 3% noise about 100; the squared sums of the
        # raw values underflow at 2**-1000 and overflow at 2**1000
        rng = np.random.default_rng(5)
        t = np.arange(200.0)
        x = 100.0 * np.minimum(1.0, (t + 1.0) / 20.0) * (1.0 + rng.normal(0.0, 0.03, 200))
        w0 = extract_steady_state(RunSeries(load=2.0, samples=np.column_stack([t, x])), cfg)
        for k in (-1000, -600, 500, 1000):
            run = RunSeries(load=2.0, samples=np.column_stack([t, np.ldexp(x, k)]))
            w = extract_steady_state(run, cfg)
            assert (w.start, w.end, w.sample_count, w.cv) == (w0.start, w0.end,
                                                               w0.sample_count, w0.cv)
            assert w.mean_throughput == math.ldexp(w0.mean_throughput, k)

    def test_noise_on_a_short_plateau_is_not_drift(self):
        # 61 samples of 3% noise: the fitted drift's standard error, about
        # 0.013, exceeds slope_tol, so a drift above slope_tol alone is noise
        rng = np.random.default_rng(7)
        t, x = 5.0 * np.arange(61), 100.0 * (1.0 + rng.normal(0.0, 0.03, 61))
        w = extract_steady_state(RunSeries(load=2.0, samples=np.column_stack([t, x])))
        assert w.sample_count == 61
        assert abs(np.polyfit(t, x, 1)[0]) * (w.end - w.start) / w.mean_throughput > 0.01

    def test_noise_runs_keep_at_least_half(self):
        # pure 3% noise: unbounded passes compounded their cuts until 64 of
        # these 1000 30-sample runs, and 4 of the 61-sample ones, fell
        # under min_fraction
        for k in (30, 61):
            t = 5.0 * np.arange(k)
            for seed in range(1000):
                x = 100.0 * (1.0 + 0.03 * np.random.default_rng(seed).normal(size=k))
                w = extract_steady_state(RunSeries(load=2.0, samples=np.column_stack([t, x])))
                assert w.sample_count >= (k + 1) // 2

    def test_long_linear_ramp_has_no_steady_state(self):
        run = RunSeries(load=2.0, samples=np.column_stack([np.arange(20000.0),
                                                           np.linspace(1.0, 100.0, 20000)]))
        with pytest.raises(NoSteadyStateError):
            extract_steady_state(run)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SteadyStateConfig(slope_tol=0.0)
        with pytest.raises(DomainError):
            SteadyStateConfig(cv_max=-0.1)
        with pytest.raises(DomainError):
            SteadyStateConfig(min_fraction=1.5)


def detect_both(times, values, cfg):
    """(library result, oracle result); each a SteadyWindow or an error message."""
    out = []
    run = RunSeries(load=2.0, samples=tuple(zip(times, values)))
    for detect in (lambda: extract_steady_state(run, cfg),
                   lambda: steady_window_mser(run.times, run.values, cfg)):
        try:
            out.append(detect())
        except NoSteadyStateError as e:
            out.append(str(e))
    return out


def random_times(rng, case, k):
    spacing = case % 4
    if spacing == 0:
        return np.arange(k, dtype=float)
    if spacing == 1:
        return np.cumsum(rng.uniform(0.05, 4.0, k))
    if spacing == 2:
        return 1.7e9 + np.cumsum(np.full(k, 0.001))
    return 1.7e9 + np.cumsum(rng.choice([0.001, 0.25, 1.0], k))


def random_run(rng, case):
    k = int(rng.integers(5, 160))
    t = random_times(rng, case, k)
    shape = (case // 4) % 4
    if shape == 0:
        x = np.full(k, float(rng.uniform(1.0, 500.0)))
    else:
        x = 100.0 * (1.0 + rng.normal(0.0, rng.uniform(0.0, 0.2), k))
        if shape >= 2:
            up, down = int(k * rng.uniform(0.0, 0.4)), int(k * rng.uniform(0.0, 0.3))
            x[:up] *= np.linspace(0.0, 1.0, up)
            x[k - down:] *= np.linspace(1.0, 0.0, down)
        if shape == 3:
            x[rng.integers(0, k, int(rng.integers(1, k)))] = 0.0
        x = np.maximum(x, 0.0)
    if case % 37 == 0:
        x = np.zeros(k)
    min_fraction = rng.choice([1.0, 0.05, 0.05 + 1e-12, float(rng.uniform(0.05, 1.0))])
    cfg = SteadyStateConfig(
        slope_tol=float(rng.uniform(0.001, 0.1)),
        cv_max=float(rng.uniform(0.005, 0.3)),
        min_fraction=float(min_fraction),
    )
    return t, x, cfg


def long_run(rng, case):
    # 1000-5000 ramped, noisy samples, some zeroed: the winning window is
    # usually well short of the whole run, so the search spans many blocks
    k = int(rng.integers(1000, 5001))
    t = random_times(rng, case, k)
    if case % 10 == 0:
        x = np.linspace(1.0, 100.0, k)  # a plain ramp has no valid window
    else:
        x = 100.0 * (1.0 + rng.normal(0.0, rng.uniform(0.0, 0.05), k))
        up, down = int(k * rng.uniform(0.05, 0.4)), int(k * rng.uniform(0.0, 0.3))
        x[:up] *= np.linspace(0.0, 1.0, up)
        x[k - down:] *= np.linspace(1.0, 0.0, down)
        if case % 3 == 0:
            x[rng.integers(0, k, int(rng.integers(1, 10)))] = 0.0
        x = np.maximum(x, 0.0)
    cfg = SteadyStateConfig(
        slope_tol=float(rng.uniform(0.005, 0.05)),
        cv_max=float(rng.uniform(0.01, 0.2)),
        min_fraction=float(rng.uniform(0.05, 0.8)),
    )
    return t, x, cfg


def same_outcome(got, want):
    """Equal windows, with mean and cv to rounding; or the same error message."""
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return (got.start, got.end, got.sample_count) == (want.start, want.end, want.sample_count) and (
        got.mean_throughput == pytest.approx(want.mean_throughput, rel=1e-12)
        and got.cv == pytest.approx(want.cv, rel=1e-9, abs=1e-15)
    )


class TestMserOracle:
    def test_matches_the_mser_oracle_on_seeded_runs(self):
        # the suffix-sum cuts must choose the window the direct-sum oracle
        # chooses: the same samples, or the same error message
        rng = np.random.default_rng(20261017)
        runs = [("short", random_run(rng, case)) for case in range(560)]
        runs += [("long", long_run(rng, case)) for case in range(40)]
        found = {"short": 0, "long": 0}
        failed = dict(found)
        cut = 0
        for case, (kind, (t, x, cfg)) in enumerate(runs):
            got, want = detect_both(t, x, cfg)
            assert same_outcome(got, want), f"case {case}: {got!r} != {want!r}"
            if isinstance(want, str):
                failed[kind] += 1
            else:
                found[kind] += 1
                cut += want.sample_count < len(t)
        # both outcomes are exercised, so neither branch is compared
        # vacuously, and many accepted windows drop some samples
        assert found["short"] >= 150 and failed["short"] >= 50
        assert found["long"] >= 15 and failed["long"] >= 5
        assert cut >= 75

    def test_rounded_end_bound_keeps_the_boundary_window(self):
        # t[1] + 9 rounds (a tie, to even) one ulp past the last timestamp,
        # yet t[-1] - t[1] is exactly 9, the minimum duration: the only
        # valid window ends at a sample the rounded bound would skip
        u = 2.0 ** -49  # ulp of values in [8, 16)
        t = [0.0, 1.5 * u] + [float(s) for s in range(1, 9)] + [9.0 + u]
        assert t[1] + 9.0 > t[-1] and t[-1] - t[1] == 9.0
        x = [1000.0] + [100.0] * (len(t) - 1)
        cfg = SteadyStateConfig(min_fraction=9.0 / (9.0 + u))
        assert cfg.min_fraction * (t[-1] - t[0]) == 9.0
        got, want = detect_both(t, x, cfg)
        assert same_outcome(got, want)
        assert (got.start, got.end) == (t[1], t[-1])


def ramped_values(rng, k, up, down):
    # linear ramps over the first `up` and last `down` fractions of k
    # samples around a plateau at 100 with 3% Gaussian noise
    shape = np.ones(k)
    u, d = int(up * k), int(down * k)
    shape[:u] = np.arange(u) / u
    shape[k - d:] = np.arange(d, 0, -1) / (d + 1)
    return np.maximum(100.0 * shape * (1.0 + rng.normal(0.0, 0.03, k)), 0.0)


class TestBias:
    @pytest.mark.parametrize("up, down", [(0.1, 0.05), (0.2, 0.2)])
    def test_ramps_do_not_bias_the_mean(self, up, down):
        # a window that keeps ramp samples reads low; the plateau is 100
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = ramped_values(rng, 2000, up, down)
            w = extract_steady_state(RunSeries(load=2.0, samples=np.column_stack([np.arange(2000.0), x])))
            assert abs(w.mean_throughput - 100.0) < 0.5


    @pytest.mark.parametrize("k, up, down", [
        (40, 0.7, 0.0), (200, 0.7, 0.0), (2000, 0.7, 0.0),
        (40, 0.35, 0.35), (200, 0.35, 0.35), (2000, 0.35, 0.35),
        (200, 0.3, 0.3), (2000, 0.3, 0.3),
    ])
    def test_ramps_over_half_the_run_are_rejected(self, k, up, down):
        # the window keeps half of the run, so ramps over more than half of
        # it stay in the window in part: one ramp shows as drift, a ramp at
        # each end as curvature.  40-sample runs with 30% ramps at each end
        # are left out: their 20-sample window passes in 30 of 200 seeds,
        # reading 1-3.6% low (CHANGES.md)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = ramped_values(rng, k, up, down)
            run = RunSeries(load=2.0, samples=np.column_stack([5.0 * np.arange(k), x]))
            with pytest.raises(NoSteadyStateError, match=r"\] has (cv|drift|curvature) "):
                extract_steady_state(run)


class TestAggregation:
    def test_three_runs_become_a_dataset(self):
        d = aggregate_runs([
            constant_run(1.0, 100.0),
            constant_run(2.0, 190.0),
            constant_run(4.0, 350.0),
        ])
        assert list(d.ns) == [1.0, 2.0, 4.0]
        assert list(d.xs) == [100.0, 190.0, 350.0]
        assert d.has_baseline
        for p in d.points:
            assert p.meta["cv"] == 0.0
            assert p.meta["samples"] == 20

    def test_config_trim_cuts_every_run(self):
        head = ((0.0, 1.0), (10.0, 99.0), (20.0, 100.0), (30.0, 100.0), (40.0, 100.0))
        runs = [RunSeries(load=1.0, samples=head), constant_run(2.0, 180.0, n=8, step=10.0)]
        d = aggregate_runs(runs, SteadyStateConfig(trim=(15.0, 0.0)))
        assert list(d.xs) == [100.0, 180.0]
        # the 15s cut keeps the samples from t=20 on in both runs
        assert [p.meta["samples"] for p in d.points] == [3, 6]
        # the default config detects instead, and keeps all of the constant run
        assert [p.meta["samples"] for p in aggregate_runs(runs).points] == [3, 8]

    def test_duplicate_loads_rejected(self):
        with pytest.raises(DomainError):
            aggregate_runs([constant_run(2.0, 100.0), constant_run(2.0, 110.0)])

    def test_failure_names_the_offending_load(self):
        ramp = RunSeries(load=4.0, samples=tuple((float(i * 5), 10.0 + 2.0 * i) for i in range(40)))
        runs = [constant_run(1.0, 100.0), constant_run(2.0, 190.0), ramp]
        with pytest.raises(NoSteadyStateError) as err:
            aggregate_runs(runs)
        assert "load 4" in str(err.value)
