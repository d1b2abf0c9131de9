import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uslkit import (
    UNBOUNDED,
    DomainError,
    MissingNormalizationError,
    MeasuredPoint,
    Regime,
    UslParams,
    amdahl_capacity,
    classify_regime,
    efficiency,
    peak_concurrency,
    practical_peak,
    predict_throughput,
    scalability_curve,
    usl_capacity,
)
from oracles import capacity_by_hand

# Coefficient pairs published for real systems, used as regression
# anchors: three releases of an in-memory cache, a transactional app
# server at two load regimes, and a GPU graph workload.  Peaks are
# recomputed from the closed form at full precision.
CACHE_V1 = UslParams(0.0255, 0.0210)
CACHE_V2 = UslParams(0.0821, 0.0207)
CACHE_V3 = UslParams(0.0988, 0.0209)
APPSERVER_LOW = UslParams(1.49e-5, 6.7e-9)
APPSERVER_HIGH = UslParams(0.0, 2.4e-7)
GPU_WORKLOAD = UslParams(0.1008, 0.00405)

params_strategy = st.builds(
    UslParams,
    alpha=st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
    beta=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
level_strategy = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)


class TestUslCapacity:
    def test_identity_at_one(self):
        assert usl_capacity(1, CACHE_V1) == 1.0

    def test_hand_expanded_denominator(self):
        # 4 / (1 + 0.0255*3 + 0.0210*4*3) = 4 / 1.3285
        assert usl_capacity(4, CACHE_V1) == pytest.approx(4 / 1.3285, rel=1e-15)
        assert usl_capacity(4, CACHE_V1) == pytest.approx(3.0109145652992098, rel=1e-15)

    def test_matches_independent_assembly(self):
        for n in (1, 2, 3, 7, 50, 333.5):
            got = usl_capacity(n, CACHE_V3)
            assert got == pytest.approx(capacity_by_hand(n, 0.0988, 0.0209), rel=1e-15)

    def test_linear_when_both_zero(self):
        p = UslParams(0.0, 0.0)
        ns = np.array([1.0, 2.0, 17.0, 4096.0])
        assert np.array_equal(usl_capacity(ns, p), ns)

    def test_array_shape_and_scalar(self):
        out = usl_capacity([1, 2, 4], CACHE_V1)
        assert isinstance(out, np.ndarray) and out.shape == (3,)
        assert isinstance(usl_capacity(2, CACHE_V1), float)

    def test_rejects_levels_below_one(self):
        with pytest.raises(DomainError):
            usl_capacity(0.5, CACHE_V1)
        with pytest.raises(DomainError):
            usl_capacity([2.0, 0.0], CACHE_V1)

    @given(params=params_strategy, n=level_strategy)
    def test_efficiency_never_exceeds_one(self, params, n):
        c = usl_capacity(n, params)
        assert efficiency(n, c) <= 1.0

    @given(params=params_strategy, n=level_strategy)
    def test_identity_at_one_universally(self, params, n):
        assert usl_capacity(1.0, params) == 1.0

    @given(n=level_strategy, alpha=st.floats(min_value=0.0, max_value=0.999))
    def test_amdahl_is_beta_zero_bit_for_bit(self, n, alpha):
        assert amdahl_capacity(n, alpha) == usl_capacity(n, UslParams(alpha, 0.0))

    @given(
        n=st.floats(min_value=1.0, max_value=1e4),
        alpha=st.floats(min_value=0.0, max_value=0.99),
        beta=st.floats(min_value=0.0, max_value=1.0),
        bump=st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_more_contention_or_coherency_never_helps(self, n, alpha, beta, bump):
        base = usl_capacity(n, UslParams(alpha, beta))
        if alpha + bump < 1.0:
            assert usl_capacity(n, UslParams(alpha + bump, beta)) <= base
        assert usl_capacity(n, UslParams(alpha, beta + bump)) <= base


class TestAmdahl:
    def test_two_workers_half_serial(self):
        assert amdahl_capacity(2, 0.5) == pytest.approx(4 / 3, rel=1e-15)

    def test_asymptote_is_reciprocal_alpha(self):
        assert amdahl_capacity(1e9, 0.25) == pytest.approx(4.0, rel=1e-6)

    def test_rejects_alpha_outside_range(self):
        for bad in (-0.1, 1.0, 1.5, math.nan):
            with pytest.raises(DomainError):
                amdahl_capacity(4, bad)

    @given(
        n=st.floats(min_value=1.0, max_value=1e6),
        alpha=st.floats(min_value=1e-6, max_value=0.999),
    )
    def test_never_exceeds_asymptote_or_n(self, n, alpha):
        c = amdahl_capacity(n, alpha)
        assert c <= n
        assert c <= 1.0 / alpha + 1e-9


class TestPeak:
    # (params, peak recomputed from sqrt((1 - alpha)/beta))
    KNOWN_PEAKS = [
        (CACHE_V1, 6.812104073247993),
        (CACHE_V2, 6.6590536241332465),
        (CACHE_V3, 6.56655291799894),
        (APPSERVER_LOW, 12216.853419055438),
        (APPSERVER_HIGH, 2041.2414523193152),
        (GPU_WORKLOAD, 14.900492990435742),
    ]

    @pytest.mark.parametrize("params,expected", KNOWN_PEAKS)
    def test_known_systems(self, params, expected):
        assert peak_concurrency(params) == pytest.approx(expected, rel=1e-12)

    def test_unbounded_marker_when_no_coherency(self):
        assert peak_concurrency(UslParams(0.25, 0.0)) is UNBOUNDED
        assert math.isinf(peak_concurrency(UslParams(0.0, 0.0)))

    def test_pure_coherency_peak(self):
        assert peak_concurrency(UslParams(0.0, 1e-4)) == pytest.approx(100.0, rel=1e-12)

    @given(
        alpha=st.floats(min_value=0.0, max_value=0.99),
        beta=st.floats(min_value=1e-9, max_value=1.0),
    )
    def test_capacity_is_unimodal_around_peak(self, alpha, beta):
        params = UslParams(alpha, beta)
        nc = peak_concurrency(params)
        if nc * 0.999 > 1.0:
            lo = np.linspace(1.0, nc * 0.999, 25)
            caps = usl_capacity(lo, params)
            assert np.all(np.diff(caps) >= -1e-12 * caps[:-1])
        start = max(nc * 1.001, 1.0)
        hi = np.linspace(start, start * 3.0, 25)
        caps = usl_capacity(hi, params)
        assert np.all(np.diff(caps) <= 1e-12 * caps[:-1])

    def test_practical_peak_is_best_integer(self):
        p = practical_peak(CACHE_V1)  # real peak 6.81
        assert p == 7.0 and type(p) is float
        assert usl_capacity(p, CACHE_V1) >= usl_capacity(6.0, CACHE_V1)
        assert usl_capacity(p, CACHE_V1) >= usl_capacity(8.0, CACHE_V1)

    def test_practical_peak_clamps_to_one(self):
        # peak sqrt(0.5/2) = 0.5 lies below the smallest level
        assert practical_peak(UslParams(0.5, 2.0)) == 1.0

    def test_practical_peak_unbounded(self):
        assert math.isinf(practical_peak(UslParams(0.1, 0.0)))

    @given(
        alpha=st.floats(min_value=0.0, max_value=0.99),
        beta=st.floats(min_value=1e-8, max_value=1.0),
    )
    def test_practical_peak_never_worse_than_neighbours(self, alpha, beta):
        params = UslParams(alpha, beta)
        p = practical_peak(params)
        assert type(p) is float
        cap = usl_capacity(p, params)
        assert cap >= usl_capacity(p + 1.0, params)
        if p > 1.0:
            assert cap >= usl_capacity(p - 1.0, params)


class TestPredictAndRegime:
    def test_scales_by_single_user_throughput(self):
        p = UslParams(0.0255, 0.0210, x1=100.0)
        assert predict_throughput(4, p) == pytest.approx(301.09145652992095, rel=1e-15)
        assert predict_throughput(1, p) == pytest.approx(100.0, rel=1e-15)

    def test_requires_normalization(self):
        with pytest.raises(MissingNormalizationError):
            predict_throughput(4, UslParams(0.1, 0.01))

    def test_regime_labels(self):
        assert classify_regime(UslParams(0.0, 0.0)) is Regime.LINEAR
        assert classify_regime(UslParams(0.2, 0.0)) is Regime.AMDAHL_SATURATING
        assert classify_regime(UslParams(0.0, 1e-6)) is Regime.RETROGRADE
        assert classify_regime(CACHE_V1).value == "retrograde"


class TestParamsValidation:
    @pytest.mark.parametrize("alpha,beta", [(-0.01, 0.0), (1.0, 0.0), (0.5, -1e-9), (math.nan, 0.0)])
    def test_rejects_out_of_range(self, alpha, beta):
        with pytest.raises(DomainError):
            UslParams(alpha, beta)

    def test_rejects_bad_x1(self):
        for bad in (0.0, -5.0, math.inf):
            with pytest.raises(DomainError):
                UslParams(0.1, 0.0, x1=bad)

    def test_measured_point_bounds(self):
        with pytest.raises(DomainError):
            MeasuredPoint(0.0, 10.0)
        with pytest.raises(DomainError):
            MeasuredPoint(2.0, -1.0)
        p = MeasuredPoint(2.0, 10.0, meta={"cv": 0.1})
        assert p == MeasuredPoint(2.0, 10.0)  # meta never affects equality


class TestCurve:
    def test_starts_at_exactly_one(self):
        c = scalability_curve(CACHE_V1, domain_max=32.0, num=40)
        assert c.ns[0] == 1.0
        assert c.capacities[0] == 1.0
        assert np.all(np.diff(c.ns) > 0)
        assert c.throughputs is None
        assert c.samples[0] == (1.0, 1.0, None)

    def test_throughput_column_present_with_x1(self):
        c = scalability_curve(UslParams(0.05, 0.001, x1=200.0), domain_max=10.0, num=10)
        rows = c.samples
        assert rows[0] == (1.0, 1.0, 200.0)
        assert len(rows) == 10

    def test_rejects_degenerate_domain(self):
        with pytest.raises(DomainError):
            scalability_curve(CACHE_V1, domain_max=1.0)
        with pytest.raises(DomainError):
            scalability_curve(CACHE_V1, domain_max=8.0, num=1)

    @pytest.mark.parametrize("top, message", [
        (1.0, "domain_max must be > 1, got 1.0"), (math.nan, "domain_max must be > 1, got nan"),
        (-math.inf, "domain_max must be > 1, got -inf"),
        (math.inf, "domain_max must be finite, got inf"),
    ])
    def test_domain_message_names_the_failed_condition(self, top, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            scalability_curve(CACHE_V1, domain_max=top)

    def test_overflowing_levels_reach_zero_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = scalability_curve(CACHE_V1, domain_max=1e308, num=5)
        assert c.capacities[-1] == 0.0 and np.all(np.isfinite(c.capacities))

    def test_throughputs_beyond_the_float_range_are_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = scalability_curve(UslParams(0.0, 0.0, 1e308), domain_max=4.0, num=4)
        assert c.throughputs.tolist() == [1e308, math.inf, math.inf, math.inf]


def model_outputs():
    """repr of both peaks and the curve's bytes over seeded and special params.

    The specials put N_c below 1, on an integer, near 1e6 and at infinity
    (beta = 0); the seeded draws span 12 decades of beta.  usl_capacity
    runs on a scalar, a list, a tuple and an array.
    """
    params = [UslParams(0.5, 0.9), UslParams(0.5, 2.0, 40.0),   # N_c < 1
              UslParams(0.0, 1 / 64), UslParams(0.0, 0.0625, 12.5),   # N_c = 8 and 4
              UslParams(0.1, 0.9e-12), UslParams(0.3, 7.1e-13, 250.0),   # N_c = 1e6 and near it
              UslParams(0.2, 0.0), UslParams(0.0, 0.0, 3.0)]   # no peak
    rng = np.random.default_rng(1313)
    for _ in range(300):
        alpha = float(rng.uniform(0.0, 0.99))
        beta = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-12.0, 0.0))
        x1 = None if rng.random() < 0.5 else float(rng.uniform(1.0, 1e4))
        params.append(UslParams(alpha, beta, x1))
    levels = [1, 2.5, 7, 1e6]
    out = []
    for p in params:
        nc = peak_concurrency(p)
        out.append(f"{p!r} {nc!r} {practical_peak(p)!r}")
        for num in (2, 50, 101):
            c = scalability_curve(p, 1e3 if math.isinf(nc) else max(2.0, 3.0 * nc), num)
            xs = b"none" if c.throughputs is None else c.throughputs.tobytes()
            out.append((c.ns.tobytes() + c.capacities.tobytes() + xs).hex())
        for n in (*levels, np.float64(3.0), np.array(5.0), list(levels), tuple(levels), np.array(levels)):
            got = usl_capacity(n, p)
            out.append(f"{type(got).__name__} {np.asarray(got).tobytes().hex()}")
    return out


class TestModelPinned:
    # sha256 of model_outputs() as the model stood before the peak's
    # neighbours moved to plain float arithmetic and the level check to
    # one pass, with the practical peak then returned as a float (it was
    # an int for most finite peaks; every other line is unchanged)
    DIGEST = "392b3237ae9c1fbe92d59cfb78b2fcb5e9f817e1d799bbef534a7851a16589b0"

    def test_every_output_is_pinned(self):
        out = model_outputs()
        # 13 lines a params: the peaks, 3 curves, 9 usl_capacity calls
        assert out[2 * 13] == "UslParams(alpha=0.0, beta=0.015625, x1=None) 8.0 8.0"
        assert out[3 * 13].endswith(" 4.0 4.0")
        assert out[4 * 13].endswith(" 1000000.0 1000000.0")
        assert hashlib.sha256("\n".join(out).encode()).hexdigest() == self.DIGEST

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 0.5, [1.0, math.nan]],
                             ids=["nan", "inf", "-inf", "half", "list-nan"])
    def test_invalid_levels_raise(self, n):
        with pytest.raises(DomainError, match="^concurrency levels must be finite and >= 1$"):
            usl_capacity(n, CACHE_V1)

    def test_empty_levels_pass(self):
        got = usl_capacity(np.array([]), CACHE_V1)
        assert isinstance(got, np.ndarray) and got.shape == (0,) and got.dtype == float
