"""In-memory spans around the public functions of each uslkit layer.

The wrappers are installed at run time, by rebinding module attributes,
from the benchmark's own files: nothing inside the package is timed.  Each
function is rebound in the module that defines it, which covers calls from
the benchmark and calls inside a layer, such as ``aggregate_runs`` calling
``extract_steady_state``.  It is also rebound in every uslkit module that
imported it by name: ``uslkit.cli`` for most of them, and
``uslkit.fitting`` for the model functions behind ``FitResult.peak``.

A span is (name, start, end, parent, op).  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import statistics
import time
from dataclasses import dataclass, field

import uslkit.cli
import uslkit.fitting
import uslkit.model
import uslkit.queueing
import uslkit.timeseries
import uslkit.validation


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = -1
    counts: dict = field(default_factory=dict)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


# Counters taken from a call's arguments and result after its span closed.
def _count_fit(args, kwargs, result):
    return {"points": len(args[0])}


def _count_extract(args, kwargs, result):
    return {"samples": len(args[0].samples), "window_samples": result.sample_count,
            "window": [args[0].load, result.start, result.end]}


def _count_bootstrap(args, kwargs, result):
    return {"replicates": result.replicates}


def _count_validate(args, kwargs, result):
    return {"invalid": int(result.verdict is uslkit.validation.Verdict.INVALID)}


def _count_mva(args, kwargs, result):
    return {"steps": int(args[0].n)}


def _count_read_dir(args, kwargs, result):
    d = args[0]
    return {"bytes": sum(os.path.getsize(os.path.join(d, n)) for n in os.listdir(d))}


def _count_read_file(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (span name, defining module, attribute, counter)
TRACED = (
    ("cli.main", uslkit.cli, "main", None),
    ("cli.read", uslkit.cli, "read_series_dir", _count_read_dir),
    ("cli.read", uslkit.cli, "read_points_csv", _count_read_file),
    ("cli.render", uslkit.cli, "build_fit_report", None),
    ("cli.render", uslkit.cli, "render_json", None),
    ("cli.render", uslkit.cli, "render_fit_markdown", None),
    ("timeseries.aggregate", uslkit.timeseries, "aggregate_runs", None),
    ("timeseries.extract", uslkit.timeseries, "extract_steady_state", _count_extract),
    ("fitting.fit", uslkit.fitting, "fit_usl", _count_fit),
    ("fitting.evaluate", uslkit.fitting, "evaluate_fit", None),
    ("fitting.bootstrap", uslkit.fitting, "bootstrap_confidence", _count_bootstrap),
    ("validation.validate", uslkit.validation, "validate_dataset", _count_validate),
    ("validation.profile", uslkit.validation, "monotonicity_profile", None),
    ("model.usl_capacity", uslkit.model, "usl_capacity", None),
    ("model.scalability_curve", uslkit.model, "scalability_curve", None),
    ("model.peak_concurrency", uslkit.model, "peak_concurrency", None),
    ("model.practical_peak", uslkit.model, "practical_peak", None),
    ("model.classify_regime", uslkit.model, "classify_regime", None),
    ("queueing.mva", uslkit.queueing, "mva_solve", _count_mva),
)

# every uslkit module that imported a traced function by name
_BINDERS = (uslkit.cli, uslkit.fitting, uslkit.model, uslkit.queueing,
            uslkit.timeseries, uslkit.validation)


class Tracer:
    """Records spans while installed; one caller, so one span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches = []   # (module, attribute, original, wrapper)
        for name, module, attr, counter in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for binder in _BINDERS:
                if getattr(binder, attr, None) is original:
                    self._patches.append((binder, attr, original, wrapper))

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self._op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx].counts = counter(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def run_op(self, op: int, fn, *args):
        """Run one benchmark operation traced, under a root 'harness.op' span."""
        self._op = op
        self.install()
        idx = self._open("harness.op")
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.uninstall()

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def to_records(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics, per traced operation, from the recorded spans.

    Counts and seconds are means per operation; ratios and medians are
    over all spans of the run.  Layers a workload does not reach read 0.
    The ``*.self_s`` values, ``model.s``, ``queueing.mva_s`` (mva_solve
    has no traced children) and the unattributed benchmark time add up
    to ``trace.wall_s``.
    """
    spans = tracer.spans
    own = tracer.self_times()
    ops = [i for i, s in enumerate(spans) if s.name == "harness.op"]
    n_ops = max(len(ops), 1)
    wall = sum(spans[i].end - spans[i].start for i in ops)

    def of(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def dur(idx):
        return sum(spans[i].end - spans[i].start for i in idx)

    def count(idx, key):
        return sum(spans[i].counts.get(key, 0) for i in idx)

    def layer_self(layer):
        return sum(own[i] for i, s in enumerate(spans) if _layer(s.name) == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    extract, fits, boots = of("timeseries.extract"), of("fitting.fit"), of("fitting.bootstrap")
    validate, mva = of("validation.validate"), of("queueing.mva")
    model = [i for i, s in enumerate(spans) if _layer(s.name) == "model"]
    samples = count(extract, "samples")
    fit_ms = [1e3 * (spans[i].end - spans[i].start) for i in fits]
    boot_fit = sum(spans[i].end - spans[i].start for i in fits
                   if spans[i].parent is not None and spans[spans[i].parent].name == "fitting.bootstrap")
    replicates = count(boots, "replicates")
    return {
        "timeseries.extract_calls": len(extract) / n_ops,
        "timeseries.extract_s": dur(extract) / n_ops,
        "timeseries.aggregate_s": dur(of("timeseries.aggregate")) / n_ops,
        "timeseries.samples": samples / n_ops,
        "timeseries.samples_per_s": ratio(samples, dur(extract)),
        "timeseries.window_frac": ratio(count(extract, "window_samples"), samples),
        "timeseries.self_s": layer_self("timeseries") / n_ops,
        "fitting.fit_calls": len(fits) / n_ops,
        "fitting.fit_s": dur(fits) / n_ops,
        "fitting.fit_ms_p50": statistics.median(fit_ms) if fit_ms else 0.0,
        "fitting.points": count(fits, "points") / n_ops,
        "fitting.evaluate_s": dur(of("fitting.evaluate")) / n_ops,
        "fitting.bootstrap_calls": len(boots) / n_ops,
        "fitting.bootstrap_s": dur(boots) / n_ops,
        "fitting.replicates": replicates / n_ops,
        "fitting.replicate_ms": 1e3 * ratio(dur(boots) - boot_fit, replicates),
        "fitting.self_s": layer_self("fitting") / n_ops,
        "validation.calls": len(validate) / n_ops,
        "validation.validate_s": dur(validate) / n_ops,
        "validation.profile_s": dur(of("validation.profile")) / n_ops,
        "validation.invalid_frac": ratio(count(validate, "invalid"), len(validate)),
        "validation.self_s": layer_self("validation") / n_ops,
        "model.calls": len(model) / n_ops,
        "model.s": layer_self("model") / n_ops,
        "queueing.mva_calls": len(mva) / n_ops,
        "queueing.mva_s": dur(mva) / n_ops,
        "queueing.mva_steps": count(mva, "steps") / n_ops,
        "cli.calls": len(of("cli.main")) / n_ops,
        "cli.self_s": layer_self("cli") / n_ops,
        "cli.read_s": dur(of("cli.read")) / n_ops,
        "cli.render_s": dur(of("cli.render")) / n_ops,
        "cli.bytes_read": count(of("cli.read"), "bytes") / n_ops,
        "trace.wall_s": wall / n_ops,
        "trace.unattributed_frac": ratio(layer_self("harness"), wall),
    }


def windows(tracer: Tracer) -> list:
    """[load, start, end] of every steady-state window the traced runs chose."""
    return [s.counts["window"] for s in tracer.spans if "window" in s.counts]
