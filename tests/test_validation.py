import math
import re

import pytest

from uslkit import (
    FLAG_DECREASE_BEFORE_PEAK,
    FLAG_DOWN_THEN_UP,
    FLAG_DUPLICATE_THROUGHPUT,
    FLAG_EFFICIENCY_ABOVE_ONE,
    FLAG_ZERO_THROUGHPUT,
    Dataset,
    DomainError,
    InsufficientDataError,
    MissingBaselineError,
    ProfileShape,
    UslParams,
    Verdict,
    generate_synthetic,
    monotonicity_profile,
    practical_peak,
    validate_dataset,
)
from conftest import SUSPECT_BAD_LEVELS, SUSPECT_EFFICIENCIES, SUSPECT_CAPACITIES


class TestValidateSuspectTable:
    """A load-test benchmark whose early rows scale better than linearly.

    Such rows are physically impossible when capacity is a ratio to the
    single-user run, so they must invalidate the dataset as a whole.
    """

    def test_verdict_invalid(self, suspect_dataset):
        report = validate_dataset(suspect_dataset)
        assert report.verdict is Verdict.INVALID

    def test_hard_flags_exactly_on_superlinear_rows(self, suspect_dataset):
        report = validate_dataset(suspect_dataset)
        flagged = [r.n for r in report.rows if FLAG_EFFICIENCY_ABOVE_ONE in r.flags]
        assert flagged == [float(n) for n in SUSPECT_BAD_LEVELS]
        assert [r.n for r in report.hard_flagged] == flagged

    def test_efficiencies_match_published_rounding(self, suspect_dataset):
        report = validate_dataset(suspect_dataset)
        for row, expected in zip(report.rows, SUSPECT_EFFICIENCIES):
            # published values carry 2 decimals, so half a cent of slack
            # (the 1e-9 keeps the boundary row inclusive in float)
            assert abs(row.efficiency - expected) <= 0.005 + 1e-9

    def test_capacities_are_ratios_to_baseline(self, suspect_dataset):
        report = validate_dataset(suspect_dataset)
        for row, (n, cap) in zip(report.rows, SUSPECT_CAPACITIES):
            assert row.n == float(n)
            assert row.capacity == pytest.approx(cap, rel=1e-15)

    def test_trailing_dip_is_not_flagged(self, suspect_dataset):
        # the final row drops below the peak; that is expected behaviour
        # past saturation, not an anomaly
        report = validate_dataset(suspect_dataset)
        last = report.rows[-1]
        assert last.flags == ()

    def test_notes_name_the_bound(self, suspect_dataset):
        report = validate_dataset(suspect_dataset)
        assert any("cannot scale better than linearly" in n for n in report.notes)


class TestValidateVerdicts:
    def test_model_generated_data_is_clean(self):
        d = generate_synthetic(UslParams(0.05, 0.002, x1=100.0), [1, 2, 4, 8, 16, 32])
        report = validate_dataset(d)
        assert report.verdict is Verdict.CLEAN
        assert report.notes == ()
        assert all(r.flags == () for r in report.rows)

    def test_tolerance_is_adjustable(self):
        d = Dataset.from_pairs([(1, 10.0), (2, 21.0)])  # efficiency 1.05
        assert validate_dataset(d).verdict is Verdict.INVALID
        assert validate_dataset(d, tolerance=0.1).verdict is Verdict.CLEAN

    @pytest.mark.parametrize("tolerance,message", [
        (0.0, "tolerance must be positive, got 0.0"),
        (-1.0, "tolerance must be positive, got -1.0"),
        (math.nan, "tolerance must be positive, got nan"),
        (math.inf, "tolerance must be finite, got inf"),
    ], ids=["zero", "negative", "nan", "inf"])
    def test_tolerance_out_of_range_raises(self, tolerance, message):
        d = Dataset.from_pairs([(1, 10.0), (2, 21.0)])
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            validate_dataset(d, tolerance=tolerance)
        # checked before the data: a dataset without a baseline gets the same error
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            validate_dataset(Dataset.from_pairs([(2, 10.0), (4, 18.0)]), tolerance=tolerance)

    def test_zero_throughput_is_soft(self):
        d = Dataset.from_pairs([(1, 10.0), (2, 0.0), (4, 30.0)])
        report = validate_dataset(d)
        assert report.verdict is Verdict.SUSPECT
        by_n = {r.n: r.flags for r in report.rows}
        assert FLAG_ZERO_THROUGHPUT in by_n[2.0]
        assert FLAG_DECREASE_BEFORE_PEAK in by_n[2.0]
        assert FLAG_DOWN_THEN_UP in by_n[4.0]

    def test_duplicate_throughput_points_to_first_occurrence(self):
        d = Dataset.from_pairs([(1, 10.0), (2, 15.0), (4, 15.0)])
        report = validate_dataset(d)
        assert report.verdict is Verdict.SUSPECT
        row = next(r for r in report.rows if r.n == 4.0)
        assert FLAG_DUPLICATE_THROUGHPUT in row.flags
        assert any("identical to N=2" in n for n in report.notes)

    def test_requires_baseline(self):
        with pytest.raises(MissingBaselineError):
            validate_dataset(Dataset.from_pairs([(2, 10.0), (4, 18.0)]))

    def test_soft_flagged_rows_listed(self):
        d = Dataset.from_pairs([(1, 10.0), (2, 15.0), (4, 15.0)])
        report = validate_dataset(d)
        assert [r.n for r in report.soft_flagged] == [4.0]
        assert report.hard_flagged == ()


class TestMonotonicityProfile:
    def test_suspect_table_shape_and_landmarks(self, suspect_dataset):
        profile = monotonicity_profile(suspect_dataset)
        assert profile.shape is ProfileShape.RETROGRADE
        assert profile.peak == 300.0
        assert profile.knee == 250.0

    def test_knee_moves_with_threshold(self, suspect_dataset):
        # a 15% cutoff calls the knee one level earlier on this data
        profile = monotonicity_profile(suspect_dataset, knee_fraction=0.15)
        assert profile.knee == 200.0

    def test_linear_data_is_rising_without_knee(self):
        d = Dataset.from_pairs([(n, 10.0 * n) for n in (1, 2, 4, 8, 16)])
        profile = monotonicity_profile(d)
        assert profile.shape is ProfileShape.RISING
        assert profile.knee is None
        assert profile.peak == 16.0

    def test_retrograde_model_peaks_at_best_integer(self):
        params = UslParams(0.05, 0.002, x1=100.0)
        d = generate_synthetic(params, range(1, 41))
        profile = monotonicity_profile(d)
        assert profile.shape is ProfileShape.RETROGRADE
        assert profile.peak == practical_peak(params)

    def test_saturating_shape_and_knee(self):
        # contention-only curve: gains collapse but never go negative
        d = generate_synthetic(UslParams(0.2, 0.0), [1, 2, 4, 8, 16, 32, 64, 128])
        profile = monotonicity_profile(d)
        assert profile.shape is ProfileShape.SATURATING
        assert profile.knee == 16.0
        assert profile.peak == 128.0

    def test_initial_decline_is_irregular(self):
        d = Dataset.from_pairs([(1, 10.0), (2, 8.0), (3, 12.0)])
        assert monotonicity_profile(d).shape is ProfileShape.IRREGULAR

    def test_recovery_after_peak_is_irregular(self):
        d = Dataset.from_pairs([(1, 10.0), (2, 18.0), (3, 15.0), (4, 17.0)])
        assert monotonicity_profile(d).shape is ProfileShape.IRREGULAR

    def test_needs_three_points(self):
        with pytest.raises(InsufficientDataError):
            monotonicity_profile(Dataset.from_pairs([(1, 10.0), (2, 18.0)]))
