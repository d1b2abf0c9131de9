"""The public names: each stated once, in the ``__all__`` of the module defining it.

``uslkit.__all__`` is the union of the modules' lists.  A name added to or
dropped from the API shows here as a change to PUBLIC.  Also the
arithmetic rule: every array reduction of the library is ``model._dot``.
"""

import ast
import inspect
from pathlib import Path

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


SOURCES = sorted(Path(uslkit.__file__).parent.glob("*.py"))
BLAS = {"dot", "matmul", "inner", "vdot", "tensordot", "linalg"}  # numpy names that reach BLAS


def arithmetic_breaches(source: str) -> list[str]:
    """Lines of source that reduce past model._dot: a numpy BLAS routine or np.linalg,
    the @ operator, a .dot attribute, or built-in sum(, which compensates from Python 3.12."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (node.attr == "dot" or node.attr in BLAS
                                                and getattr(node.value, "id", "") == "np"):
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name in BLAS]
        elif isinstance(getattr(node, "op", None), ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "sum":
            found.append(f"{node.lineno}: sum(")
    return found


def test_the_arithmetic_lint_sees_every_form():
    source = ("np.dot(a, b)\nnp.linalg.norm(a)\na @ b\na @= b\nx.dot(b)\nsum(a)\n"
              "np.matmul(a, b) + np.inner(a, b) + np.vdot(a, b) + np.tensordot(a, b)\n"
              "from numpy import dot\nnp.einsum('...p,...p->...', a, b)\nnp.sum(a)\n")
    assert len(arithmetic_breaches(source)) == 11


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_reduction_goes_through_model_dot(path):
    assert arithmetic_breaches(path.read_text()) == []
