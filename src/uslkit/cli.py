"""Command-line interface and the file formats it speaks.

Point files are CSV with header ``n,x``; time-series files are CSV with
header ``t,x``, one file per load level, the level taken from a
``_N<load>.csv`` filename suffix or a ``manifest.csv`` mapping.  Blank
lines and whole lines whose first non-blank character is ``#`` are
ignored in both; a ``#`` after a value is not a comment, and makes the
line unparseable.

Subcommands: validate, fit, peak, predict, compare, simulate, steady.

Exit codes:
    0  success (validation verdicts clean and suspect included)
    1  domain or usage error
    2  unparseable input file
    3  validation verdict invalid (fit refuses it without --force)
    4  too few distinct levels for the requested computation
    5  no steady-state window found
    6  missing or zero n = 1 baseline

A JSON file named by the USLKIT_CONFIG environment variable supplies
defaults; command-line flags override it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InsufficientDataError,
    MissingBaselineError,
    NoSteadyStateError,
    ParseError,
    UslError,
    ZeroBaselineError,
)
from .fitting import (
    MODE_AUTO,
    MODE_NORMALIZED,
    MODE_RAW3,
    Dataset,
    FitOptions,
    FitResult,
    compare_fits,
    fit_usl,
)
from .model import (
    UslParams,
    classify_regime,
    peak_concurrency,
    practical_peak,
    predict_throughput,
    scalability_curve,
    usl_capacity,
)
from .queueing import generate_synthetic
from .timeseries import RunSeries, SteadyStateConfig, aggregate_runs, extract_steady_state
from .validation import Verdict, validate_dataset

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_INSUFFICIENT = 4
EXIT_NO_STEADY = 5
EXIT_NO_BASELINE = 6

_MODE_NAMES = {"auto": MODE_AUTO, "normalized": MODE_NORMALIZED, "raw3": MODE_RAW3}
_LOAD_SUFFIX = re.compile(r"_[nN](\d+(?:\.\d+)?)\.csv$")


@dataclass(frozen=True)
class AnalysisConfig:
    """Defaults shared by the subcommands, optionally from a JSON file."""

    format: str = "markdown"
    tolerance: float = 0.005
    seed: int = 0
    beta_max: float = 1.0
    refine_tol: float = 1e-10
    mode: str = "auto"
    slope_tol: float = 0.01
    cv_max: float = 0.15
    min_fraction: float = 0.3
    trim_up: float | None = None
    trim_down: float | None = None
    unit: str | None = None

    def __post_init__(self) -> None:
        if self.format not in ("json", "markdown"):
            raise DomainError(f"format must be json or markdown, got {self.format!r}")
        if self.mode not in _MODE_NAMES:
            raise DomainError(f"mode must be one of {sorted(_MODE_NAMES)}")
        for name in ("tolerance", "beta_max", "refine_tol", "slope_tol", "cv_max", "min_fraction"):
            if not (getattr(self, name) > 0.0):
                raise DomainError(f"{name} must be positive")

    @classmethod
    def from_env(cls) -> "AnalysisConfig":
        path = os.environ.get("USLKIT_CONFIG")
        if not path:
            return cls()
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ParseError(f"cannot read config: {e}", path=path) from e
        except json.JSONDecodeError as e:
            raise ParseError(f"config is not valid JSON: {e}", path=path) from e
        if not isinstance(raw, dict):
            raise ParseError(f"config must be a JSON object, got {json.dumps(raw)}", path=path)
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(raw) - set(fields)
        if unknown:
            raise ParseError(
                f"unknown config keys {sorted(unknown)}; known: {sorted(fields)}", path=path
            )
        for key, value in raw.items():
            kind, _, optional = fields[key].partition(" | ")
            types, wanted = _CONFIG_KINDS[kind]
            if value is None and optional or (isinstance(value, types)
                                              and not isinstance(value, bool)):
                continue
            raise ParseError(
                f"config key {key!r} must be {wanted}{' or null' if optional else ''}, "
                f"got {json.dumps(value)}", path=path,
            )
        try:
            return cls(**raw)
        except DomainError as e:
            raise ParseError(str(e), path=path) from e


# JSON values each AnalysisConfig field type accepts; a bool is no number
_CONFIG_KINDS = {"float": ((int, float), "a number"), "int": (int, "an integer"),
                 "str": (str, "a string")}


# ---------------------------------------------------------------- file formats

def _data_rows(path: str):
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise ParseError(str(e), path=path) from e
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, [c.strip() for c in line.split(",")]


def _read_two_column(path: str, header: tuple[str, str]) -> list[tuple[float, float]]:
    rows = []
    saw_header = False
    for lineno, cells in _data_rows(path):
        if not saw_header:
            if [c.lower() for c in cells] != list(header):
                raise ParseError(
                    f"expected header {','.join(header)!r}, got {','.join(cells)!r}",
                    path=path, line=lineno,
                )
            saw_header = True
            continue
        if len(cells) != 2:
            raise ParseError(f"expected 2 columns, got {len(cells)}", path=path, line=lineno)
        try:
            rows.append((float(cells[0]), float(cells[1])))
        except ValueError as e:
            raise ParseError(str(e), path=path, line=lineno) from e
    if not saw_header:
        raise ParseError(f"empty file; expected header {','.join(header)!r}", path=path)
    return rows


def _read_pairs(path: str, header: tuple[str, str]) -> np.ndarray:
    """The rows of a two-column CSV file as a (k, 2) float array.

    The body is parsed in one numpy call.  A file that call rejects is
    re-read line by line by _read_two_column, which raises the ParseError
    naming its path and line, or returns the rows float() accepts but
    numpy does not, such as ``1_000``.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        lines = text.split("\n")
        if "#" in text:
            # drop whole-line comments here: numpy's comments option would
            # also cut "2,3 # note" down to a valid row
            lines = [s for s in lines if not s.strip().startswith("#")]
        h = next((i for i, s in enumerate(lines) if s.strip()), None)
        if h is not None and [c.strip().lower() for c in lines[h].split(",")] == list(header):
            body = lines[h + 1:]
            if not any(body):
                return np.empty((0, 2))
            try:
                rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                # numpy skips empty lines but not lines of blanks; without
                # those, only a bad value raises
                body = [s for s in body if s.strip()]
                if not body:
                    return np.empty((0, 2))
                rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
            if rows.shape[1] == 2:
                return rows
    except (OSError, ValueError):
        pass
    return np.array(_read_two_column(path, header), dtype=float).reshape(-1, 2)


def read_points_csv(path: str) -> Dataset:
    """Load a measurements file (header n,x) into a Dataset."""
    pairs = _read_pairs(path, ("n", "x")).tolist()
    try:
        return Dataset.from_pairs(pairs)
    except DomainError as e:
        raise ParseError(str(e), path=path) from e


def write_points_csv(fh, dataset: Dataset, comments=()) -> None:
    for c in comments:
        fh.write(f"# {c}\n")
    fh.write("n,x\n")
    for p in dataset.points:
        fh.write(f"{p.n!r},{p.x!r}\n")


def infer_load(path: str) -> float | None:
    m = _LOAD_SUFFIX.search(os.path.basename(path))
    return float(m.group(1)) if m else None


def read_series_csv(path: str, load: float | None = None) -> RunSeries:
    """Load one run (header t,x); load from the argument or filename."""
    if load is None:
        load = infer_load(path)
    if load is None:
        raise ParseError(
            "cannot tell the load level: name the file *_N<load>.csv, "
            "list it in manifest.csv, or pass --load",
            path=path,
        )
    samples = _read_pairs(path, ("t", "x"))
    try:
        return RunSeries(load=load, samples=samples)
    except DomainError as e:
        raise ParseError(str(e), path=path) from e


def read_series_dir(dirpath: str) -> list[RunSeries]:
    """Load every run in a directory.

    A manifest.csv (header file,n) names the runs explicitly; without
    one, every *.csv with a _N<load> suffix is taken.
    """
    manifest = os.path.join(dirpath, "manifest.csv")
    runs = []
    if os.path.exists(manifest):
        saw_header = False
        for lineno, cells in _data_rows(manifest):
            if not saw_header:
                if [c.lower() for c in cells] != ["file", "n"]:
                    raise ParseError(
                        f"expected header 'file,n', got {','.join(cells)!r}",
                        path=manifest, line=lineno,
                    )
                saw_header = True
                continue
            if len(cells) != 2:
                raise ParseError(f"expected 2 columns, got {len(cells)}", path=manifest, line=lineno)
            try:
                load = float(cells[1])
            except ValueError as e:
                raise ParseError(str(e), path=manifest, line=lineno) from e
            runs.append(read_series_csv(os.path.join(dirpath, cells[0]), load=load))
        if not saw_header:
            raise ParseError("empty manifest", path=manifest)
    else:
        names = sorted(n for n in os.listdir(dirpath) if n.endswith(".csv"))
        for name in names:
            path = os.path.join(dirpath, name)
            if infer_load(path) is None:
                raise ParseError(
                    "no manifest.csv and no _N<load> suffix; cannot tell the load",
                    path=path,
                )
            runs.append(read_series_csv(path))
    if not runs:
        raise ParseError("no runs found", path=dirpath)
    return runs


# ------------------------------------------------------------------- reports

def _num(v):
    """JSON-safe number: infinities become None (rendered as unbounded)."""
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return None
    return v


def _fmt(v, unbounded_label: str = "none (beta=0)") -> str:
    if v is None:
        return unbounded_label
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def interpretation_hints(params: UslParams, n_ref: float) -> list[str]:
    """Heuristic pointers keyed on which loss term dominates at n_ref.

    These are hints for where to look, not diagnoses.
    """
    contention = params.alpha * (n_ref - 1.0)
    coherency = params.beta * n_ref * (n_ref - 1.0)
    hints = []
    if contention < 0.05 and coherency < 0.05:
        hints.append(
            "hint: losses are negligible over the measured range; the system is "
            "effectively linear here and extrapolation far beyond the data is unreliable"
        )
    elif coherency > contention:
        hints.append(
            f"hint: the pairwise-exchange term dominates at N={n_ref:g}; typical causes "
            "are shared writable state: cache-line ping-pong, replicated updates, "
            "consistency chatter"
        )
    else:
        hints.append(
            f"hint: the serialization term dominates at N={n_ref:g}; typical causes "
            "are locks, single-threaded stages, serialized resources"
        )
    nc = peak_concurrency(params)
    if math.isfinite(nc) and nc < n_ref:
        hints.append(
            f"hint: the measured range extends past the capacity peak (N ~ {nc:.4f}); "
            "extra concurrency there costs throughput"
        )
    return hints


def peak_dict(params: UslParams) -> dict:
    """Peak location, practical peak and peak capacity; None where unbounded."""
    nc = peak_concurrency(params)
    return {
        "n": _num(nc),
        "practical_n": _num(practical_peak(params)),
        "capacity": _num(usl_capacity(nc, params)) if math.isfinite(nc) else None,
    }


def build_fit_report(fit: FitResult, dataset: Dataset, validation, curve,
                     unit: str | None, notices: list[str]) -> dict:
    """Single source for both renderings of a fit."""
    params = fit.params
    report = {
        "fit": {
            "mode": fit.mode,
            "alpha": params.alpha,
            "beta": params.beta,
            "x1": params.x1,
            "sse": fit.sse,
            "r_squared": fit.r_squared,
            "significance_warning": fit.significance_warning,
        },
        "peak": peak_dict(params),
        "regime": fit.regime.value,
        "validation": validation,
        "residuals": [
            {"n": r.n, "measured": r.measured, "modeled": r.modeled, "residual": r.residual}
            for r in fit.residuals
        ],
        "curve": [
            {"n": n, "capacity": c, "throughput": x} for n, c, x in curve.samples
        ],
        "hints": interpretation_hints(params, float(dataset.ns.max())),
        "unit": unit,
        "notices": list(notices),
    }
    return report


def validation_dict(report) -> dict:
    return {
        "verdict": report.verdict.value,
        "rows": [
            {"n": r.n, "capacity": r.capacity, "efficiency": r.efficiency,
             "flags": list(r.flags)}
            for r in report.rows
        ],
        "notes": list(report.notes),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2)


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    out.extend("| " + " | ".join(r) + " |" for r in rows)
    return out


def _validation_lines(v: dict) -> list[str]:
    """The verdict line and the per-level table of a validation dict."""
    return [f"verdict: **{v['verdict']}**", ""] + _md_table(
        ["n", "capacity", "efficiency", "flags"],
        [
            [_fmt(r["n"]), _fmt(r["capacity"]), _fmt(r["efficiency"]),
             ", ".join(r["flags"]) or "-"]
            for r in v["rows"]
        ],
    )


def render_fit_markdown(report: dict) -> str:
    f = report["fit"]
    lines = ["# Scalability fit", ""]
    for n in report["notices"]:
        lines.append(f"> {n}")
    if report["notices"]:
        lines.append("")
    lines += ["## Coefficients", ""]
    unit = f" ({report['unit']})" if report.get("unit") else ""
    lines += _md_table(
        ["quantity", "value"],
        [
            ["mode", f["mode"]],
            ["alpha (contention)", _fmt(f["alpha"])],
            ["beta (coherency)", _fmt(f["beta"])],
            [f"x1{unit}", _fmt(f["x1"])],
            ["sse", _fmt(f["sse"])],
            ["r_squared", _fmt(f["r_squared"])],
            ["significance warning", _fmt(f["significance_warning"])],
        ],
    )
    lines += ["", "## Peak", ""]
    p = report["peak"]
    lines += _md_table(
        ["quantity", "value"],
        [
            ["peak N", _fmt(p["n"])],
            ["practical N", _fmt(p["practical_n"])],
            ["peak capacity", _fmt(p["capacity"], unbounded_label="-")],
            ["regime", report["regime"]],
        ],
    )
    v = report["validation"]
    lines += ["", "## Validation", ""]
    if v is None:
        lines.append("not performed (no n = 1 baseline)")
    else:
        lines += _validation_lines(v)
        lines += [f"- {note}" for note in v["notes"]]
    lines += ["", "## Residuals", ""]
    lines += _md_table(
        ["n", "measured", "modeled", "residual"],
        [
            [_fmt(r["n"]), _fmt(r["measured"]), _fmt(r["modeled"]), _fmt(r["residual"])]
            for r in report["residuals"]
        ],
    )
    lines += ["", "## Model curve", ""]
    lines += _md_table(
        ["n", "capacity", "throughput"],
        [
            [_fmt(s["n"]), _fmt(s["capacity"]), _fmt(s["throughput"], unbounded_label="-")]
            for s in report["curve"]
        ],
    )
    if report["hints"]:
        lines += ["", "## Reading the numbers", ""]
        lines += [f"- {h}" for h in report["hints"]]
    return "\n".join(lines) + "\n"


def render_validation_markdown(v: dict) -> str:
    lines = ["# Data validation", ""] + _validation_lines(v)
    if v["notes"]:
        lines.append("")
        lines += [f"- {n}" for n in v["notes"]]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ commands

def _effective(args_value, config_value):
    return config_value if args_value is None else args_value


def _steady_config(args, cfg: AnalysisConfig) -> SteadyStateConfig:
    return SteadyStateConfig(
        slope_tol=_effective(getattr(args, "slope_tol", None), cfg.slope_tol),
        cv_max=_effective(getattr(args, "cv_max", None), cfg.cv_max),
        min_fraction=_effective(getattr(args, "min_fraction", None), cfg.min_fraction),
    )


def _trim_pair(args, cfg: AnalysisConfig) -> tuple[float, float] | None:
    up = _effective(getattr(args, "trim_up", None), cfg.trim_up)
    down = _effective(getattr(args, "trim_down", None), cfg.trim_down)
    if up is None and down is None:
        return None
    return (up or 0.0, down or 0.0)


def _read_runs(args, cfg: AnalysisConfig) -> list[RunSeries]:
    """The runs in the input directory, with the effective trim applied."""
    runs = read_series_dir(args.input)
    trim = _trim_pair(args, cfg)
    if trim is not None:
        runs = [dataclasses.replace(r, trim=trim) for r in runs]
    return runs


def _fit_options(args, cfg: AnalysisConfig) -> FitOptions:
    return FitOptions(
        mode=_MODE_NAMES[_effective(getattr(args, "mode", None), cfg.mode)],
        beta_max=_effective(getattr(args, "beta_max", None), cfg.beta_max),
        refine_tol=cfg.refine_tol,
    )


def _load_dataset(args, cfg: AnalysisConfig) -> tuple[Dataset, list[str]]:
    """Points file or directory of series; exactly one input path."""
    notices: list[str] = []
    if os.path.isdir(args.input):
        runs = _read_runs(args, cfg)
        dataset = aggregate_runs(runs, _steady_config(args, cfg))
        notices.append(f"aggregated {len(runs)} time-series runs from {args.input}")
    else:
        dataset = read_points_csv(args.input)
    return dataset, notices


def cmd_validate(args, cfg: AnalysisConfig) -> int:
    dataset = read_points_csv(args.input)
    tol = _effective(args.tolerance, cfg.tolerance)
    report = validate_dataset(dataset, tolerance=tol)
    d = validation_dict(report)
    fmt = _effective(args.format, cfg.format)
    out = render_json(d) if fmt == "json" else render_validation_markdown(d)
    print(out, end="" if out.endswith("\n") else "\n")
    return EXIT_INVALID if report.verdict is Verdict.INVALID else EXIT_OK


def cmd_fit(args, cfg: AnalysisConfig) -> int:
    dataset, notices = _load_dataset(args, cfg)
    tol = _effective(args.tolerance, cfg.tolerance)

    validation = None
    if dataset.has_baseline and dataset.baseline.x > 0.0:
        vreport = validate_dataset(dataset, tolerance=tol)
        validation = validation_dict(vreport)
        if vreport.verdict is Verdict.INVALID and not args.force:
            sys.stderr.write(
                "refusing to fit: validation verdict is invalid "
                "(run the validate subcommand for details, or pass --force)\n"
            )
            for note in vreport.notes:
                sys.stderr.write(f"  {note}\n")
            return EXIT_INVALID
        if vreport.verdict is Verdict.INVALID:
            notices.append("validation verdict invalid; fitting anyway because of --force")
        elif vreport.verdict is Verdict.SUSPECT:
            notices.append("validation verdict suspect; see the validation section")
    else:
        notices.append("validation skipped: no usable n = 1 baseline")

    fit = fit_usl(dataset, _fit_options(args, cfg))
    if fit.significance_warning:
        notices.append(
            "fewer than 6 distinct levels; coefficient estimates are weakly constrained"
        )
    if fit.mode == MODE_RAW3:
        notices.append("no n = 1 measurement: x1 was fitted, not measured")

    max_n = float(dataset.ns.max())
    domain = max(float(args.extrapolate), max_n) if args.extrapolate else max_n
    curve = scalability_curve(fit.params, domain_max=domain, num=50)
    if args.extrapolate:
        notices.append(f"curve extrapolated to N={args.extrapolate:g}")

    unit = _effective(args.unit, cfg.unit)
    report = build_fit_report(fit, dataset, validation, curve, unit, notices)
    if args.plot_data:
        os.makedirs(args.plot_data, exist_ok=True)
        with open(os.path.join(args.plot_data, "points.csv"), "w") as fh:
            write_points_csv(fh, dataset)
        with open(os.path.join(args.plot_data, "curve.csv"), "w") as fh:
            fh.write("n,x\n")
            for n, _, x in curve.samples:
                fh.write(f"{n!r},{x!r}\n")
    fmt = _effective(args.format, cfg.format)
    out = render_json(report) if fmt == "json" else render_fit_markdown(report)
    print(out, end="" if out.endswith("\n") else "\n")
    return EXIT_OK


def cmd_peak(args, cfg: AnalysisConfig) -> int:
    params = UslParams(args.alpha, args.beta)
    d = {
        "alpha": args.alpha,
        "beta": args.beta,
        "peak": peak_dict(params),
        "regime": classify_regime(params).value,
    }
    fmt = _effective(args.format, cfg.format)
    if fmt == "json":
        print(render_json(d))
    else:
        p = d["peak"]
        print(f"peak N: {'none (beta=0)' if p['n'] is None else format(p['n'], '.4f')}")
        print(f"practical N: {'none (beta=0)' if p['practical_n'] is None else format(p['practical_n'], '.0f')}")
        if p["capacity"] is not None:
            print(f"peak capacity: {p['capacity']:.4f}")
        print(f"regime: {d['regime']}")
    return EXIT_OK


def cmd_predict(args, cfg: AnalysisConfig) -> int:
    params = UslParams(args.alpha, args.beta, args.x1)
    cap = usl_capacity(args.n, params)
    d = {
        "n": args.n,
        "capacity": cap,
        "efficiency": cap / args.n,
        "throughput": predict_throughput(args.n, params),
    }
    fmt = _effective(args.format, cfg.format)
    if fmt == "json":
        print(render_json(d))
    else:
        print(f"N={args.n:g}: capacity {d['capacity']:.4f}, "
              f"efficiency {d['efficiency']:.4f}, throughput {d['throughput']:.4f}")
    return EXIT_OK


def _fit_from_path(path: str, options: FitOptions) -> tuple[str, FitResult]:
    """A saved JSON fit report or a points file to fit fresh."""
    if path.endswith(".json"):
        try:
            with open(path) as fh:
                d = json.load(fh)
            f = d["fit"]
            params = UslParams(f["alpha"], f["beta"], f.get("x1"))
            fit = FitResult(
                params=params,
                sse=f.get("sse", 0.0),
                r_squared=f.get("r_squared", 0.0),
                residuals=(),
                significance_warning=bool(f.get("significance_warning", False)),
                mode=f.get("mode", MODE_NORMALIZED),
            )
            return os.path.basename(path), fit
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
            raise ParseError(f"not a saved fit report: {e}", path=path) from e
    dataset = read_points_csv(path)
    return os.path.basename(path), fit_usl(dataset, options)


def cmd_compare(args, cfg: AnalysisConfig) -> int:
    options = _fit_options(args, cfg)
    name_a, fit_a = _fit_from_path(args.a, options)
    name_b, fit_b = _fit_from_path(args.b, options)
    comp = compare_fits(fit_a, fit_b)
    if comp.scales_further == "tie":
        if math.isinf(comp.peak_a):
            verdict = "both scale without a finite peak"
        else:
            verdict = f"tie: both peak at N={_fmt(comp.peak_a)}"
    else:
        further = name_a if comp.scales_further == "a" else name_b
        verdict = f"{further} peaks later and scales further"
    d = {
        "a": {"name": name_a, "alpha": fit_a.params.alpha, "beta": fit_a.params.beta,
              "peak_n": _num(comp.peak_a)},
        "b": {"name": name_b, "alpha": fit_b.params.alpha, "beta": fit_b.params.beta,
              "peak_n": _num(comp.peak_b)},
        "delta": {"alpha": comp.alpha_delta, "beta": comp.beta_delta,
                  "peak_n": _num(comp.peak_delta)},
        "scales_further": comp.scales_further,
        "verdict": verdict,
    }
    fmt = _effective(args.format, cfg.format)
    if fmt == "json":
        print(render_json(d))
    else:
        lines = ["# Fit comparison", ""]
        lines += _md_table(
            ["quantity", name_a, name_b, "delta (b-a)"],
            [
                ["alpha", _fmt(fit_a.params.alpha), _fmt(fit_b.params.alpha), _fmt(comp.alpha_delta)],
                ["beta", _fmt(fit_a.params.beta), _fmt(fit_b.params.beta), _fmt(comp.beta_delta)],
                ["peak N", _fmt(_num(comp.peak_a)), _fmt(_num(comp.peak_b)),
                 _fmt(_num(comp.peak_delta), unbounded_label="-")],
            ],
        )
        lines += ["", d["verdict"]]
        print("\n".join(lines))
    return EXIT_OK


def _parse_levels(spec: str) -> list[float]:
    """Comma list (1,2,4,8) or inclusive range start:stop[:step]."""
    try:
        if ":" in spec:
            parts = [float(p) for p in spec.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1.0
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError("use start:stop or start:stop:step")
            if step <= 0 or stop < start:
                raise ValueError("need stop >= start and step > 0")
            levels = []
            v = start
            while v <= stop + 1e-9:
                levels.append(round(v, 9))
                v += step
            return levels
        return [float(p) for p in spec.split(",") if p.strip()]
    except ValueError as e:
        raise DomainError(f"bad level list {spec!r}: {e}") from e


def cmd_simulate(args, cfg: AnalysisConfig) -> int:
    queue_mode = args.service is not None or args.think is not None
    usl_mode = args.alpha is not None or args.beta is not None
    if queue_mode and usl_mode:
        raise DomainError("give either --alpha/--beta or --service/--think, not both")
    if queue_mode:
        if args.service is None or args.think is None:
            raise DomainError("queue mode needs both --service and --think")
        s, z, c = args.service, args.think, args.coherency
        if not (s > 0.0) or z < 0.0 or c < 0.0:
            raise DomainError("need service > 0, think >= 0, coherency >= 0")
        if z == 0.0:
            raise DomainError(
                "think time 0 serializes completely (alpha would reach 1); "
                "use a positive think time"
            )
        alpha = s / (s + z)
        params = UslParams(alpha, c * alpha, 1.0 / (s + z))
        origin = f"queue: service={s:g} think={z:g} coherency={c:g}"
    else:
        if args.alpha is None or args.beta is None:
            raise DomainError("model mode needs both --alpha and --beta")
        params = UslParams(args.alpha, args.beta, args.x1)
        origin = f"model: alpha={args.alpha:g} beta={args.beta:g} x1={args.x1:g}"
    levels = _parse_levels(args.levels)
    seed = _effective(args.seed, cfg.seed)
    dataset = generate_synthetic(params, levels, noise=args.noise, seed=seed)
    comments = [f"synthetic measurements ({origin} noise={args.noise:g} seed={seed})"]
    if args.out:
        with open(args.out, "w") as fh:
            write_points_csv(fh, dataset, comments=comments)
    else:
        write_points_csv(sys.stdout, dataset, comments=comments)
    return EXIT_OK


def cmd_steady(args, cfg: AnalysisConfig) -> int:
    sconfig = _steady_config(args, cfg)
    fmt = _effective(args.format, cfg.format)
    if os.path.isdir(args.input):
        dataset = aggregate_runs(_read_runs(args, cfg), sconfig)
        comments = ["steady-state means per load level"]
        for p in dataset.points:
            comments.append(f"N={p.n:g}: cv={p.meta['cv']:.4f} samples={p.meta['samples']}")
        if args.out:
            with open(args.out, "w") as fh:
                write_points_csv(fh, dataset, comments=comments)
        else:
            write_points_csv(sys.stdout, dataset, comments=comments)
        return EXIT_OK
    run = read_series_csv(args.input, load=args.load)
    trim = _trim_pair(args, cfg)
    if trim is not None:
        run = dataclasses.replace(run, trim=trim)
    w = extract_steady_state(run, sconfig)
    d = {
        "load": run.load,
        "window": {
            "start": w.start, "end": w.end, "duration": w.end - w.start,
            "mean_throughput": w.mean_throughput, "cv": w.cv,
            "samples": w.sample_count,
        },
        "mode": "trimmed" if run.trim is not None else "detected",
    }
    if fmt == "json":
        print(render_json(d))
    else:
        print(f"load N={run.load:g} ({d['mode']})")
        print(f"window: [{w.start:g}s, {w.end:g}s] ({w.end - w.start:g}s, {w.sample_count} samples)")
        print(f"mean throughput: {w.mean_throughput:.4f} (cv {w.cv:.4f})")
    return EXIT_OK


# --------------------------------------------------------------------- driver

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uslkit",
        description="Scalability analysis: fit, validate and explore throughput data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["json", "markdown"], default=None,
                       help="output format (default from config, else markdown)")

    p = sub.add_parser("validate", help="check a points file for impossible rows")
    p.add_argument("input", help="points CSV (header n,x)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="slack on the efficiency-above-1 check (default 0.005)")
    add_format(p)

    p = sub.add_parser("fit", help="estimate alpha/beta (and x1) from measurements")
    p.add_argument("input", help="points CSV, or a directory of time-series runs")
    p.add_argument("--mode", choices=sorted(_MODE_NAMES), default=None,
                   help="normalized (pin x1 to the n=1 point), raw3 (fit x1), or auto")
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--beta-max", dest="beta_max", type=float, default=None)
    p.add_argument("--force", action="store_true",
                   help="fit even when validation says the data is invalid")
    p.add_argument("--extrapolate", type=float, default=None, metavar="N",
                   help="extend the reported model curve out to N")
    p.add_argument("--plot-data", dest="plot_data", default=None, metavar="DIR",
                   help="write points.csv and curve.csv for plotting")
    p.add_argument("--unit", default=None, help="throughput unit label for reports")
    p.add_argument("--trim-up", dest="trim_up", type=float, default=None,
                   help="seconds to drop from the start of each run (directory input)")
    p.add_argument("--trim-down", dest="trim_down", type=float, default=None,
                   help="seconds to drop from the end of each run (directory input)")
    p.add_argument("--slope-tol", dest="slope_tol", type=float, default=None)
    p.add_argument("--cv-max", dest="cv_max", type=float, default=None)
    p.add_argument("--min-fraction", dest="min_fraction", type=float, default=None)
    add_format(p)

    p = sub.add_parser("peak", help="peak concurrency for given coefficients")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    add_format(p)

    p = sub.add_parser("predict", help="throughput prediction at a level")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x1", type=float, required=True, help="single-user throughput")
    p.add_argument("--n", type=float, required=True)
    add_format(p)

    p = sub.add_parser("compare", help="diff two fits (saved reports or point files)")
    p.add_argument("a", help="points CSV or saved JSON fit report")
    p.add_argument("b", help="points CSV or saved JSON fit report")
    add_format(p)

    p = sub.add_parser("simulate", help="generate synthetic measurements")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--x1", type=float, default=1.0)
    p.add_argument("--service", type=float, default=None,
                   help="queue mode: mean service time")
    p.add_argument("--think", type=float, default=None,
                   help="queue mode: mean think time")
    p.add_argument("--coherency", type=float, default=0.0,
                   help="queue mode: per-pair service inflation")
    p.add_argument("--levels", required=True,
                   help="comma list (1,2,4) or range start:stop[:step]")
    p.add_argument("--noise", type=float, default=0.0,
                   help="relative noise standard deviation")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output points CSV (default stdout)")

    p = sub.add_parser("steady", help="steady-state window from time series")
    p.add_argument("input", help="series CSV (header t,x) or a directory of runs")
    p.add_argument("--load", type=float, default=None,
                   help="load level when the filename has no _N<load> suffix")
    p.add_argument("--out", default=None,
                   help="directory input: write aggregated points CSV here")
    p.add_argument("--trim-up", dest="trim_up", type=float, default=None)
    p.add_argument("--trim-down", dest="trim_down", type=float, default=None)
    p.add_argument("--slope-tol", dest="slope_tol", type=float, default=None)
    p.add_argument("--cv-max", dest="cv_max", type=float, default=None)
    p.add_argument("--min-fraction", dest="min_fraction", type=float, default=None)
    add_format(p)

    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "fit": cmd_fit,
    "peak": cmd_peak,
    "predict": cmd_predict,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
    "steady": cmd_steady,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = AnalysisConfig.from_env()
        return _COMMANDS[args.command](args, cfg)
    except ParseError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_PARSE
    except (MissingBaselineError, ZeroBaselineError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_NO_BASELINE
    except InsufficientDataError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INSUFFICIENT
    except NoSteadyStateError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_NO_STEADY
    except UslError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())
