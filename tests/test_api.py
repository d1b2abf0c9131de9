"""The public names: each stated once, in the ``__all__`` of the module defining it.

``uslkit.__all__`` is the union of the modules' lists.  A name added to or
dropped from the API shows here as a change to PUBLIC.
"""

import inspect

import pytest

import uslkit
from uslkit import errors, fitting, model, queueing, timeseries, validation

MODULES = [errors, model, fitting, validation, queueing, timeseries]

PUBLIC = {
    errors: [
        "UslError", "DomainError", "MissingBaselineError", "ZeroBaselineError",
        "MissingNormalizationError", "InsufficientDataError", "DegenerateDataError",
        "MismatchedDatasetError", "NoSteadyStateError", "TrimExceedsRunError", "ParseError",
    ],
    model: [
        "UNBOUNDED", "UslParams", "MeasuredPoint", "Regime", "ScalabilityCurve",
        "usl_capacity", "amdahl_capacity", "efficiency", "peak_concurrency", "practical_peak",
        "predict_throughput", "classify_regime", "scalability_curve",
    ],
    fitting: [
        "MODE_AUTO", "MODE_NORMALIZED", "MODE_RAW3", "Dataset", "FitOptions", "FitResult",
        "FitDiagnostics", "FitComparison", "BootstrapResult", "Residual", "capacity_ratios",
        "fit_usl", "evaluate_fit", "compare_fits", "bootstrap_confidence",
    ],
    validation: [
        "FLAG_DECREASE_BEFORE_PEAK", "FLAG_DOWN_THEN_UP", "FLAG_DUPLICATE_THROUGHPUT",
        "FLAG_EFFICIENCY_ABOVE_ONE", "FLAG_ZERO_THROUGHPUT", "HARD_FLAGS", "Verdict",
        "ProfileShape", "ValidationReport", "ValidationRow", "MonotonicityProfile",
        "validate_dataset", "monotonicity_profile",
    ],
    queueing: [
        "QueueParams", "QueueSolution", "SyncBoundCapacity", "mva_solve", "sync_bound",
        "sync_bound_capacity", "generate_synthetic",
    ],
    timeseries: [
        "RunSeries", "SteadyWindow", "SteadyStateConfig", "extract_steady_state",
        "aggregate_runs",
    ],
}


def test_the_package_exports_the_pinned_names_once():
    names = [name for module in MODULES for name in PUBLIC[module]]
    assert len(names) == len(set(names)) == 64
    assert len(uslkit.__all__) == len(set(uslkit.__all__))
    assert set(uslkit.__all__) == set(names)


def test_a_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from uslkit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(uslkit.__all__)
    assert all(namespace[name] is getattr(uslkit, name) for name in namespace)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_module_lists_its_own_public_names(module):
    assert sorted(module.__all__) == sorted(PUBLIC[module])
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, name


def test_no_name_is_listed_by_two_modules():
    seen = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in seen, f"{name} is in {seen.get(name)} and {module.__name__}"
            seen[name] = module.__name__
