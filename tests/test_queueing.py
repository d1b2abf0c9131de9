import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from uslkit import (
    Dataset,
    DomainError,
    QueueParams,
    UslParams,
    generate_synthetic,
    mva_solve,
    sync_bound,
    sync_bound_capacity,
    usl_capacity,
)
from oracles import birth_death_queue

service = st.floats(min_value=1e-3, max_value=100.0, allow_nan=False)
think = st.floats(min_value=1e-3, max_value=100.0, allow_nan=False)
population = st.integers(min_value=1, max_value=200)


class TestMva:
    def test_single_customer_sees_bare_cycle(self):
        sol = mva_solve(QueueParams(n=1, s=0.5, z=2.0))
        assert sol.x == pytest.approx(1.0 / 2.5, rel=1e-15)
        assert sol.r == 0.5
        assert sol.w == 0.0

    def test_two_customers_worked_example(self):
        # s = z = 1: r(2) = 1*(1 + q(1)) with q(1) = 0.4 gives 1.4?  No:
        # q(1) = x(1)*r(1) = 0.5, so r(2) = 1.5, x(2) = 2/2.5 = 0.8
        sol = mva_solve(QueueParams(n=2, s=1.0, z=1.0))
        assert sol.x == pytest.approx(0.8, rel=1e-15)
        assert sol.r == pytest.approx(1.5, rel=1e-15)
        assert sol.q == pytest.approx(1.2, rel=1e-15)
        assert sol.w == pytest.approx(0.5, rel=1e-15)

    def test_no_think_time_saturates_server(self):
        # every customer always queued; throughput is exactly 1/s for any n
        for n in (1, 3, 10):
            sol = mva_solve(QueueParams(n=n, s=0.25, z=0.0))
            assert sol.x == pytest.approx(4.0, rel=1e-15)

    @given(n=st.integers(min_value=1, max_value=6), s=service, z=think)
    @settings(max_examples=150)
    def test_matches_stationary_distribution(self, n, s, z):
        sol = mva_solve(QueueParams(n=n, s=s, z=z))
        x_ref, q_ref = birth_death_queue(n, s, z)
        assert sol.x == pytest.approx(x_ref, rel=1e-10)
        assert sol.q == pytest.approx(q_ref, rel=1e-10)

    def test_load_dependent_service_unsupported(self):
        with pytest.raises(DomainError):
            mva_solve(QueueParams(n=4, s=1.0, z=1.0, c=0.1))

    def test_param_validation(self):
        with pytest.raises(DomainError):
            QueueParams(n=0, s=1.0, z=1.0)
        with pytest.raises(DomainError):
            QueueParams(n=2, s=0.0, z=1.0)
        with pytest.raises(DomainError):
            QueueParams(n=2, s=1.0, z=-0.1)
        with pytest.raises(DomainError):
            QueueParams(n=2, s=1.0, z=1.0, c=-1e-9)


class TestSyncBound:
    def test_worked_values(self):
        assert sync_bound(QueueParams(n=1, s=2.0, z=3.0)) == pytest.approx(0.2, rel=1e-15)
        assert sync_bound(QueueParams(n=2, s=2.0, z=3.0)) == pytest.approx(
            0.2857142857142857, rel=1e-15
        )

    @given(n=population, s=service, z=think)
    @settings(max_examples=200)
    def test_never_exceeds_exact_solution(self, n, s, z):
        exact = mva_solve(QueueParams(n=n, s=s, z=z)).x
        bound = sync_bound(QueueParams(n=n, s=s, z=z))
        assert bound <= exact * (1.0 + 1e-12)

    @given(s=service, z=st.floats(min_value=0.0, max_value=100.0))
    def test_tight_at_single_customer(self, s, z):
        p = QueueParams(n=1, s=s, z=z)
        assert sync_bound(p) == pytest.approx(mva_solve(p).x, rel=1e-12)


class TestSyncBoundCapacity:
    def test_worked_example(self):
        cap = sync_bound_capacity(8, QueueParams(n=1, s=1.0, z=3.0))
        assert cap.capacity == pytest.approx(2.909090909090909, rel=1e-12)
        assert cap.alpha == 0.25
        assert cap.beta == 0.0

    def test_bound_normalizes_to_contention_only_model(self):
        p = QueueParams(n=1, s=1.0, z=3.0)
        cap = sync_bound_capacity(8, p)
        model = usl_capacity(8, cap.params())
        assert cap.capacity == pytest.approx(model, rel=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=500),
        s=service,
        z=think,
        c=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=200)
    def test_penalized_bound_matches_full_model(self, n, s, z, c):
        cap = sync_bound_capacity(n, QueueParams(n=1, s=s, z=z, c=c))
        model = usl_capacity(n, UslParams(cap.alpha, cap.beta))
        assert cap.capacity == pytest.approx(model, rel=1e-12)

    def test_zero_think_time_keeps_plain_floats(self):
        cap = sync_bound_capacity(4, QueueParams(n=1, s=1.0, z=0.0))
        assert cap.alpha == 1.0  # outside UslParams' open bound on purpose
        with pytest.raises(DomainError):
            cap.params()

    def test_rejects_bad_level(self):
        with pytest.raises(DomainError):
            sync_bound_capacity(0.5, QueueParams(n=1, s=1.0, z=1.0))


class TestGenerateSynthetic:
    def test_noiseless_equals_model_exactly(self):
        p = UslParams(0.05, 0.002, x1=100.0)
        d = generate_synthetic(p, [1, 2, 4, 8])
        for point in d.points:
            assert point.x == 100.0 * usl_capacity(point.n, p)

    def test_default_x1_is_one(self):
        d = generate_synthetic(UslParams(0.0, 0.0), [1, 2, 3])
        assert [p.x for p in d.points] == [1.0, 2.0, 3.0]

    def test_seeded_noise_reproducible(self):
        p = UslParams(0.05, 0.002, x1=100.0)
        a = generate_synthetic(p, [1, 2, 4, 8], noise=0.05, seed=7)
        b = generate_synthetic(p, [1, 2, 4, 8], noise=0.05, seed=7)
        c = generate_synthetic(p, [1, 2, 4, 8], noise=0.05, seed=8)
        assert [q.x for q in a.points] == [q.x for q in b.points]
        assert [q.x for q in a.points] != [q.x for q in c.points]

    def test_noise_floors_at_zero(self):
        d = generate_synthetic(UslParams(0.0, 0.0, x1=1e-9), [1, 2, 4, 8],
                               noise=50.0, seed=0)
        assert all(p.x >= 0.0 for p in d.points)

    def test_rejects_negative_noise_and_short_level_lists(self):
        p = UslParams(0.05, 0.002)
        with pytest.raises(DomainError):
            generate_synthetic(p, [1, 2], noise=-0.1)
        with pytest.raises(DomainError):
            generate_synthetic(p, [4])
        with pytest.raises(DomainError):
            generate_synthetic(p, [2, 2])  # duplicate level

    @pytest.mark.parametrize("level", [0.5, math.nan, -math.inf, 2.0 ** 65])
    def test_each_level_gets_the_level_rule(self, level):
        message = f"concurrency must be in [1, 2**64], got {level}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            generate_synthetic(UslParams(0.1, 0.01), [1, level, 2])

    @pytest.mark.parametrize("x1,noise,level", [(1e308, 0.0, 2), (1.0, 1e308, 4)])
    def test_an_overflowing_throughput_names_its_level(self, x1, noise, level):
        # the product overflows inside numpy, which must not warn on the way
        message = f"simulated throughput at N={level} is not finite, got inf"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            generate_synthetic(UslParams(0.05, 0.002, x1), [1, 2, 4], noise=noise)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_rejects_negative_seed_with_or_without_noise(self, noise):
        with pytest.raises(DomainError, match=r"^seed must be an integer >= 0, got -1$"):
            generate_synthetic(UslParams(0.05, 0.002), [1, 2, 4], noise=noise, seed=-1)

    def test_returns_fittable_dataset(self):
        d = generate_synthetic(UslParams(0.1, 0.001, x1=50.0), [1, 2, 4, 8, 16])
        assert isinstance(d, Dataset)
        assert d.has_baseline


class TestModelCorrespondence:
    """The queue is the mechanism; the capacity model is its shadow."""

    @given(s=service, z=think, n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=200)
    def test_contention_coefficient_from_queue_times(self, s, z, n):
        cap = sync_bound_capacity(n, QueueParams(n=1, s=s, z=z))
        expected_alpha = s / (s + z)
        assert cap.alpha == pytest.approx(expected_alpha, rel=1e-15)
        # bound capacity never exceeds the level itself
        assert cap.capacity <= n * (1.0 + 1e-12)

    def test_x1_matches_single_customer_throughput(self):
        p = QueueParams(n=1, s=0.5, z=1.5)
        x1 = mva_solve(p).x
        assert x1 == pytest.approx(1.0 / (0.5 + 1.5), rel=1e-15)
        cap = sync_bound_capacity(16, p)
        up = cap.params(x1)
        assert up.x1 == x1
