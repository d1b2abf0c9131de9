"""Command-line interface and the file formats it speaks.

Point files are CSV with header ``n,x``; time-series files are CSV with
header ``t,x``, one file per load level, the level taken from a
``_N<load>.csv`` filename suffix or a ``manifest.csv`` mapping.  Blank
lines and whole lines whose first non-blank character is ``#`` are
ignored in both; a ``#`` after a value is not a comment, and makes the
line unparseable.  Every file read is UTF-8, a byte-order mark allowed.

Subcommands: validate, fit, peak, predict, compare, simulate, steady.

Exit codes:
    0  success (validation verdicts clean and suspect included)
    1  domain or usage error, or an output that cannot be written
    2  unparseable input file
    3  validation verdict invalid (fit refuses it without --force)
    4  too few distinct levels for the requested computation
    5  no steady-state window found
    6  missing or zero n = 1 baseline

One table, _SETTINGS, declares every analysis setting.  A JSON file named
by the USLKIT_CONFIG environment variable overrides its defaults, flags
override that, and both pass the same checks before any input is read.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import asdict, fields

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
    _fixed,
    check_count,
    check_level,
    check_range,
    classify_regime,
    peak_concurrency,
    practical_peak,
    predict_throughput,
    scalability_curve,
    usl_capacity,
)
from .queueing import QueueParams, generate_synthetic, sync_bound_capacity
from .timeseries import RunSeries, SteadyStateConfig, aggregate_runs, extract_steady_state
from .validation import DEFAULT_TOLERANCE, Verdict, validate_dataset

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_INSUFFICIENT = 4
EXIT_NO_STEADY = 5
EXIT_NO_BASELINE = 6

_MODE_NAMES = {"auto": MODE_AUTO, "normalized": MODE_NORMALIZED, "raw3": MODE_RAW3}
_LOAD_SUFFIX = re.compile(r"_[nN](\d+(?:\.\d+)?)\.csv$")
_MAX_LEVELS = 100_000  # of a --levels range: 1:100000 simulates in 0.5 s and fits in 5 s


# setting -> (JSON kind, default, flag help, choices); each default is its
# owner's, and a default of None also admits null
_SETTINGS = {
    "format": (str, "markdown", "output format (default from config, else markdown)",
               ("json", "markdown")),
    "tolerance": (float, DEFAULT_TOLERANCE,
                  f"slack on the efficiency-above-1 check (default {DEFAULT_TOLERANCE:g})", None),
    "seed": (int, 0, None, None),
    "beta_max": (float, FitOptions.beta_max, None, None),
    "refine_tol": (float, FitOptions.refine_tol, None, None),
    # MODE_AUTO, whose name in _MODE_NAMES is its value
    "mode": (str, FitOptions.mode, "normalized (pin x1 to the n=1 point), raw3 (fit x1), or auto",
             tuple(sorted(_MODE_NAMES))),
    "slope_tol": (float, SteadyStateConfig.slope_tol, None, None),
    "cv_max": (float, SteadyStateConfig.cv_max, None, None),
    "min_fraction": (float, SteadyStateConfig.min_fraction, None, None),
    "trim_up": (float, None, "seconds to drop from the start of each time-series run", None),
    "trim_down": (float, None, "seconds to drop from the end of each time-series run", None),
    "unit": (str, None, "throughput unit label for reports", None),
}


def _config() -> dict:
    """Each setting's default, overridden by the USLKIT_CONFIG file and checked."""
    settings = {name: default for name, (_, default, _, _) in _SETTINGS.items()}
    path = os.environ.get("USLKIT_CONFIG")
    if not path:
        return settings
    try:
        raw = json.loads(_text(path, "cannot read config: "))
    except json.JSONDecodeError as e:
        raise ParseError(f"config is not valid JSON: {e}", path=path) from e
    if not isinstance(raw, dict):
        raise ParseError(f"config must be a JSON object, got {json.dumps(raw)}", path=path)
    unknown = set(raw) - set(_SETTINGS)
    if unknown:
        raise ParseError(
            f"unknown config keys {sorted(unknown)}; known: {sorted(_SETTINGS)}", path=path
        )
    for key, value in raw.items():
        kind, default, _, choices = _SETTINGS[key]
        optional = default is None
        accepted = (int, float) if kind is float else (kind,)  # JSON's bool is no number
        typed = value is None and optional or type(value) in accepted
        if typed and (choices is None or value in choices):
            continue
        wanted = (f"one of {list(choices)}" if typed else
                  {float: "a number", int: "an integer", str: "a string"}[kind]
                  + (" or null" if optional else ""))
        raise ParseError(f"config key {key!r} must be {wanted}, got {json.dumps(value)}",
                         path=path)
    settings.update(raw)
    try:
        _analysis_settings(argparse.Namespace(**settings))
    except DomainError as e:
        raise ParseError(str(e), path=path) from e
    return settings


def _analysis_settings(s) -> tuple[FitOptions, SteadyStateConfig]:
    """The FitOptions and SteadyStateConfig of the config or of the merged arguments, checked."""
    check_range("tolerance", s.tolerance, 0.0, math.inf, "()")
    check_count("seed", s.seed, 0)
    trim = None
    if s.trim_up is not None or s.trim_down is not None:
        trim = (s.trim_up or 0.0, s.trim_down or 0.0)
    return (FitOptions(_MODE_NAMES[s.mode], s.beta_max, s.refine_tol),
            SteadyStateConfig(s.slope_tol, s.cv_max, s.min_fraction, trim))


# ---------------------------------------------------------------- file formats

def _skipped(line: str) -> bool:
    """Whether a line is blank space or a comment, which every reader skips."""
    s = line.strip()
    return not s or s[0] == "#"


def _text(path: str, what: str = "") -> str:
    """The file at path as UTF-8 text, a leading byte-order mark dropped, whatever the locale.

    ParseError, its message led by what, unless the file can be opened and decoded.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"{what}{e}", path=path) from e


def _table(path: str, header: tuple[str, str], empty: str | None = None):
    """(lines, index of the header line) of a two-column CSV file, read once.

    ParseError unless _text reads the file and the first line _skipped keeps is the header.
    """
    lines = _text(path).split("\n")
    for i, line in enumerate(lines):
        if not _skipped(line):
            cells = [c.strip() for c in line.split(",")]
            if [c.lower() for c in cells] == list(header):
                return lines, i
            raise ParseError(f"expected header {','.join(header)!r}, got {','.join(cells)!r}",
                             path=path, line=i + 1)
    raise ParseError(empty or f"empty file; expected header {','.join(header)!r}", path=path)


def _rows(path: str, lines: list[str], h: int):
    """(line number, cells) of each line after header line h that _skipped keeps; two cells each."""
    for i in range(h + 1, len(lines)):
        if not _skipped(lines[i]):
            cells = [c.strip() for c in lines[i].split(",")]
            if len(cells) != 2:
                raise ParseError(f"expected 2 columns, got {len(cells)}", path=path, line=i + 1)
            yield i + 1, cells


def _float(cell: str, path: str, lineno: int, check=float) -> float:
    try:
        return check(float(cell))
    except ValueError as e:  # a DomainError from check is one too
        raise ParseError(str(e), path=path, line=lineno) from e


def _read_two_column(path: str, header: tuple[str, str]) -> list[tuple[float, float]]:
    return [(_float(a, path, i), _float(b, path, i))
            for i, (a, b) in _rows(path, *_table(path, header))]


def _loadtxt(body: list[str]) -> np.ndarray:  # comments=None: "#" reads "2,3 # note" as a row
    return (np.loadtxt(body, delimiter=",", comments=None, ndmin=2) if any(body)
            else np.empty((0, 2)))  # numpy warns on a body with no data


def _read_pairs(path: str, header: tuple[str, str]) -> np.ndarray:
    """The rows of a two-column CSV file as a (k, 2) float array, from one numpy call.

    numpy skips empty lines but no other line _skipped skips, so a body it
    rejects is parsed once more without them.  One it still rejects goes to
    _read_two_column, which raises the ParseError naming its path and line,
    or returns the rows float() accepts but numpy does not, such as ``1_000``.
    """
    lines, h = _table(path, header)
    body = lines[h + 1:]
    with contextlib.suppress(ValueError):
        try:
            rows = _loadtxt(body)
        except ValueError:
            rows = _loadtxt([s for s in body if not _skipped(s)])
        if rows.shape[1] == 2:
            return rows
    return np.array(_read_two_column(path, header), dtype=float).reshape(-1, 2)


def read_points_csv(path: str) -> Dataset:
    """Load a measurements file (header n,x) into a Dataset."""
    pairs = _read_pairs(path, ("n", "x")).tolist()
    try:
        return Dataset.from_pairs(pairs)
    except DomainError as e:
        raise ParseError(str(e), path=path) from e


def write_points_csv(path: str | None, rows, comments=()) -> None:
    """(n, x) rows as a points CSV, to the file at path, or to stdout without one."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write("n,x\n")
        for n, x in rows:
            fh.write(f"{n!r},{x!r}\n")


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
        lines, h = _table(manifest, ("file", "n"), "empty manifest")
        for lineno, (name, n) in _rows(manifest, lines, h):
            load = _float(n, manifest, lineno, check_level)
            runs.append(read_series_csv(os.path.join(dirpath, name), load=load))
    else:
        for name in sorted(n for n in os.listdir(dirpath) if n.endswith(".csv")):
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

def _fmt(v, spec: str = ".10g") -> str:
    """A report value as markdown text: None as -, a float by _fixed(v, spec), and text with
    each | escaped, which would otherwise end a table cell."""
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return _fixed(v, spec)
    if isinstance(v, (tuple, list)):
        v = ", ".join(v) or "-"
    return str(v).replace("|", "\\|")


def peak_dict(params: UslParams) -> dict:
    """Peak location, practical peak and peak capacity; inf, with no capacity, where unbounded.

    Capacity is defined from N = 1, so a peak below 1 reports C(1) = 1.
    """
    nc = peak_concurrency(params)
    return {
        "n": nc,
        "practical_n": practical_peak(params),
        "capacity": usl_capacity(max(nc, 1.0), params) if math.isfinite(nc) else None,
    }


def build_fit_report(fit: FitResult, dataset: Dataset, validation, curve,
                     unit: str | None, notices: list[str]) -> dict:
    """Single source for both renderings of a fit; the notices gain the fit's advice.

    peak.reach = top level / peak N, 0 when beta = 0; below 1 the peak is beyond the data.
    """
    params = fit.params
    top = float(dataset.ns.max())
    peak = peak_dict(params)
    peak["reach"] = top / peak["n"]
    contention, coherency = params.alpha * (top - 1.0), params.beta * top * (top - 1.0)
    advice = []
    if coherency > contention:
        advice.append(f"the pairwise-exchange term dominates at N={top:g}; typical causes "
                      "are shared writable state: cache-line ping-pong, replicated updates, "
                      "consistency chatter")
    elif contention > 0.0:
        advice.append(f"the serialization term dominates at N={top:g}; typical causes "
                      "are locks, single-threaded stages, serialized resources")
    if peak["reach"] == 0.0:
        advice.append("no capacity peak was found (beta=0); one beyond the highest level "
                      f"measured (N={top:g}) is not ruled out")
    elif peak["reach"] < 1.0:
        advice.append(f"the peak (N ~ {_fmt(peak['n'], '.4f')}) is an extrapolation, "
                      f"{peak['n'] / top:.3g}x the highest level measured (N={top:g})")
    elif peak["reach"] > 1.0:
        advice.append(f"the measured range extends past the capacity peak "
                      f"(N ~ {_fmt(peak['n'], '.4f')}); extra concurrency there costs throughput")
    return {
        "fit": {
            "mode": fit.mode,
            **asdict(params),  # the keys _params_from_path reads back
            "sse": fit.sse,
            "r_squared": fit.r_squared,
            "significance_warning": fit.significance_warning,
        },
        "peak": peak,
        "regime": fit.regime.value,
        "validation": validation,
        "residuals": [asdict(r) for r in fit.residuals],
        "curve": [
            {"n": n, "capacity": c, "throughput": x} for n, c, x in curve.samples
        ],
        "unit": unit,
        "notices": list(notices) + advice,
    }


def validation_dict(report) -> dict:
    return {
        "verdict": report.verdict.value,
        "rows": [asdict(r) for r in report.rows],
        "notes": list(report.notes),
    }


def render_json(report: dict) -> str:
    """The report as JSON, every inf and nan in it written as null: JSON has neither."""
    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps(finite(report), indent=2)


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    out.extend("| " + " | ".join(r) + " |" for r in rows)
    return out


def _records(rows: list[dict]) -> list[str]:
    """A markdown table of the rows with one column per key of the first."""
    return _md_table(list(rows[0]), [[_fmt(v) for v in r.values()] for r in rows])


def _md_section(d: dict, depth: int) -> list[str]:
    """d's scalars as one quantity/value table, then each non-empty dict or list in it
    under a heading of its key: a dict recursively, a list of dicts as _records, else bullets."""
    scalars = [[k, _fmt(v)] for k, v in d.items() if not isinstance(v, (dict, list))]
    lines = _md_table(["quantity", "value"], scalars) if scalars else []
    for k, v in d.items():
        if isinstance(v, (dict, list)) and v:
            lines += ["", f"{'#' * depth} {k}", ""] + (
                _md_section(v, depth + 1) if isinstance(v, dict)
                else _records(v) if isinstance(v[0], dict)
                else [f"- {_fmt(x)}" for x in v])
    return lines


def render_fit_markdown(report: dict) -> str:
    """Each notice as its own blockquote, then every other key of the report by _md_section."""
    lines = ["# Scalability fit", ""]
    for notice in report["notices"]:
        lines += [f"> {notice}", ""]
    lines += _md_section({k: v for k, v in report.items() if k != "notices"}, 2)
    return "\n".join(lines)


def render_validation_markdown(v: dict) -> str:
    lines = ["# Data validation", "", f"verdict: **{v['verdict']}**", ""]
    lines += _records(v["rows"])
    if v["notes"]:
        lines.append("")
        lines += [f"- {_fmt(n)}" for n in v["notes"]]
    return "\n".join(lines)


def render_peak_markdown(d: dict) -> str:
    p = d["peak"]
    return (f"peak N: {_fmt(p['n'], '.4f')}\npractical N: {_fmt(p['practical_n'], '.0f')}\n"
            f"peak capacity: {_fmt(p['capacity'], '.4f')}\nregime: {d['regime']}")


def render_predict_markdown(d: dict) -> str:
    return (f"N={d['n']:g}: capacity {_fmt(d['capacity'], '.4f')}, efficiency "
            f"{_fmt(d['efficiency'], '.4f')}, throughput {_fmt(d['throughput'], '.4f')}")


def render_compare_markdown(d: dict) -> str:
    a, b, delta = d["a"], d["b"], d["delta"]
    rows = [[label, _fmt(a[k]), _fmt(b[k]), _fmt(delta[k])]
            for label, k in (("alpha", "alpha"), ("beta", "beta"), ("peak N", "peak_n"))]
    lines = ["# Fit comparison", ""] + _md_table(
        ["quantity", _fmt(a["name"]), _fmt(b["name"]), "delta (b-a)"], rows)
    return "\n".join(lines + ["", d["verdict"]])


def render_steady_markdown(d: dict) -> str:
    w = d["window"]
    return (f"load N={d['load']:g} ({d['mode']})\n"
            f"window: [{w['start']:g}s, {w['end']:g}s] "
            f"({w['duration']:g}s, {w['samples']} samples)\n"
            f"mean throughput: {_fmt(w['mean_throughput'], '.4f')} (cv {_fmt(w['cv'], '.4f')})")


# ------------------------------------------------------------------ commands

def _emit(args, report: dict, markdown) -> None:
    print(render_json(report) if args.format == "json" else markdown(report))


def _aggregate(args) -> Dataset:
    """The steady-state means of the runs in the input directory."""
    return aggregate_runs(read_series_dir(args.input), args.steady_config)


def _points(dataset: Dataset):
    return ((p.n, p.x) for p in dataset.points)


def cmd_validate(args) -> int:
    report = validate_dataset(read_points_csv(args.input), tolerance=args.tolerance)
    _emit(args, validation_dict(report), render_validation_markdown)
    return EXIT_INVALID if report.verdict is Verdict.INVALID else EXIT_OK


def cmd_fit(args) -> int:
    if args.extrapolate is not None:
        check_range("--extrapolate", args.extrapolate, 1.0)
    notices: list[str] = []
    if os.path.isdir(args.input):
        dataset = _aggregate(args)
        notices.append(f"aggregated {len(dataset)} time-series runs from {args.input}")
    else:
        dataset = read_points_csv(args.input)

    validation = None
    if dataset.has_baseline and dataset.baseline.x > 0.0:
        vreport = validate_dataset(dataset, tolerance=args.tolerance)
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

    fit = fit_usl(dataset, args.fit_options)
    if fit.significance_warning:
        notices.append(
            "fewer than 6 distinct levels; coefficient estimates are weakly constrained"
        )
    if fit.mode == MODE_RAW3:
        notices.append("no n = 1 measurement: x1 was fitted, not measured")

    domain = float(dataset.ns.max())
    if args.extrapolate is not None and args.extrapolate > domain:
        domain = args.extrapolate
        notices.append(f"curve extrapolated to N={domain:g}")
    curve = scalability_curve(fit.params, domain_max=domain, num=50)

    report = build_fit_report(fit, dataset, validation, curve, args.unit, notices)
    if args.plot_data:
        os.makedirs(args.plot_data, exist_ok=True)
        write_points_csv(os.path.join(args.plot_data, "points.csv"), _points(dataset))
        write_points_csv(os.path.join(args.plot_data, "curve.csv"),
                         ((n, x) for n, _, x in curve.samples))
    _emit(args, report, render_fit_markdown)
    return EXIT_OK


def cmd_peak(args) -> int:
    params = UslParams(args.alpha, args.beta)
    d = {"alpha": args.alpha, "beta": args.beta, "peak": peak_dict(params),
         "regime": classify_regime(params).value}
    _emit(args, d, render_peak_markdown)
    return EXIT_OK


def cmd_predict(args) -> int:
    params = UslParams(args.alpha, args.beta, args.x1)
    cap = usl_capacity(args.n, params)
    x = predict_throughput(args.n, params)
    if not math.isfinite(x):
        raise DomainError(f"predicted throughput at N={args.n:g} is not finite, got {x}")
    d = {"n": args.n, "capacity": cap, "efficiency": cap / args.n, "throughput": x}
    _emit(args, d, render_predict_markdown)
    return EXIT_OK


def _params_from_path(path: str, options: FitOptions) -> tuple[str, UslParams]:
    """The coefficients of a saved JSON fit report, or of a fresh fit of a points file.

    A report is read only for the fields of UslParams, the keys fit.alpha,
    fit.beta and fit.x1: each a JSON number, x1 also null, within their ranges.
    """
    if not path.endswith(".json"):
        return os.path.basename(path), fit_usl(read_points_csv(path), options).params
    try:
        f = json.loads(_text(path, "not a saved fit report: "))["fit"]
        for field in fields(UslParams):
            v = f[field.name]
            if not (type(v) in (int, float) or v is None and field.default is None):
                raise TypeError(f"fit key {field.name!r} must be a number, got {json.dumps(v)}")
        params = UslParams(**{field.name: f[field.name] for field in fields(UslParams)})
    except (json.JSONDecodeError, DomainError, KeyError, TypeError) as e:
        raise ParseError(f"not a saved fit report: {e}", path=path) from e
    return os.path.basename(path), params


def cmd_compare(args) -> int:
    name_a, a = _params_from_path(args.a, args.fit_options)
    name_b, b = _params_from_path(args.b, args.fit_options)
    comp = compare_fits(a, b)
    if comp.scales_further != "tie":
        further = name_a if comp.scales_further == "a" else name_b
        verdict = f"{further} peaks later and scales further"
    elif math.isinf(comp.peak_a):
        verdict = "both scale without a finite peak"
    else:
        verdict = f"tie: both peak at N={_fmt(comp.peak_a)}"
    d = {
        "a": {"name": name_a, "alpha": a.alpha, "beta": a.beta, "peak_n": comp.peak_a},
        "b": {"name": name_b, "alpha": b.alpha, "beta": b.beta, "peak_n": comp.peak_b},
        "delta": {"alpha": comp.alpha_delta, "beta": comp.beta_delta, "peak_n": comp.peak_delta},
        "scales_further": comp.scales_further,
        "verdict": verdict,
    }
    _emit(args, d, render_compare_markdown)
    return EXIT_OK


def _parse_levels(spec: str) -> list[float]:
    """Comma list (1,2,4,8) or inclusive range start:stop[:step] of at most _MAX_LEVELS."""
    try:
        if ":" not in spec:
            return [float(p) for p in spec.split(",") if p.strip()]
        parts = [float(p) for p in spec.split(":")]
        if len(parts) not in (2, 3):
            raise ValueError("use start:stop or start:stop:step")
        start, stop, step = parts if len(parts) == 3 else (*parts, 1.0)
        if step <= 0 or stop < start:
            raise ValueError("need stop >= start and step > 0")
        last = (stop + 1e-9 - start) / step  # the last level's index, nan or inf if unbounded
        if not last < _MAX_LEVELS:
            raise ValueError(f"a range holds at most {_MAX_LEVELS} levels")
        return [round(start + i * step, 9) for i in range(int(last) + 1)]
    except ValueError as e:
        raise DomainError(f"bad level list {spec!r}: {e}") from e


def cmd_simulate(args) -> int:
    queue_mode = args.service is not None or args.think is not None
    usl_mode = args.alpha is not None or args.beta is not None
    if queue_mode and usl_mode:
        raise DomainError("give either --alpha/--beta or --service/--think, not both")
    if queue_mode:
        if args.service is None or args.think is None:
            raise DomainError("queue mode needs both --service and --think")
        s, z, c = args.service, args.think, args.coherency
        queue = QueueParams(1, s, z, c)
        if z == 0.0:
            raise DomainError(
                "think time 0 serializes completely (alpha would reach 1); "
                "use a positive think time"
            )
        params = sync_bound_capacity(1.0, queue).params(1.0 / (s + z))
        origin = f"queue: service={s:g} think={z:g} coherency={c:g}"
    else:
        if args.alpha is None or args.beta is None:
            raise DomainError("model mode needs both --alpha and --beta")
        params = UslParams(args.alpha, args.beta, args.x1)
        origin = f"model: alpha={args.alpha:g} beta={args.beta:g} x1={args.x1:g}"
    levels = _parse_levels(args.levels)
    dataset = generate_synthetic(params, levels, noise=args.noise, seed=args.seed)
    comment = f"synthetic measurements ({origin} noise={args.noise:g} seed={args.seed})"
    write_points_csv(args.out, _points(dataset), [comment])
    return EXIT_OK


def cmd_steady(args) -> int:
    if os.path.isdir(args.input):
        if args.load is not None:
            raise DomainError("--load applies to one run file, not to a directory of runs")
        dataset = _aggregate(args)
        comments = ["steady-state means per load level"] + [
            f"N={p.n:g}: cv={_fmt(p.meta['cv'], '.4f')} samples={p.meta['samples']}"
            for p in dataset.points
        ]
        write_points_csv(args.out, _points(dataset), comments)
        return EXIT_OK
    if args.out is not None:
        raise DomainError("--out applies to a directory of runs, not to one run file")
    if args.load is not None:
        check_level(args.load)
    run = read_series_csv(args.input, load=args.load)
    w = extract_steady_state(run, args.steady_config)
    d = {
        "load": run.load,
        "window": {
            "start": w.start, "end": w.end, "duration": w.end - w.start,
            "mean_throughput": w.mean_throughput, "cv": w.cv,
            "samples": w.sample_count,
        },
        "mode": "trimmed" if args.steady_config.trim is not None else "detected",
    }
    _emit(args, d, render_steady_markdown)
    return EXIT_OK


# --------------------------------------------------------------------- driver

def build_parser() -> argparse.ArgumentParser:
    """The command line; a flag left out is None, to be filled from the config."""
    parser = argparse.ArgumentParser(
        prog="uslkit",
        description="Scalability analysis: fit, validate and explore throughput data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p

    def add_settings(p, *names):
        for name in names:
            kind, _, summary, choices = _SETTINGS[name]
            p.add_argument("--" + name.replace("_", "-"), type=kind, choices=choices,
                           help=summary)

    steady = ("trim_up", "trim_down", "slope_tol", "cv_max", "min_fraction")

    p = add_command("validate", cmd_validate, "check a points file for impossible rows")
    p.add_argument("input", help="points CSV (header n,x)")
    add_settings(p, "tolerance", "format")

    p = add_command("fit", cmd_fit, "estimate alpha/beta (and x1) from measurements")
    p.add_argument("input", help="points CSV, or a directory of time-series runs")
    add_settings(p, "mode", "tolerance", "beta_max")
    p.add_argument("--force", action="store_true",
                   help="fit even when validation says the data is invalid")
    p.add_argument("--extrapolate", type=float, metavar="N",
                   help="extend the reported model curve out to N")
    p.add_argument("--plot-data", metavar="DIR", help="write points.csv and curve.csv for plotting")
    add_settings(p, "unit", *steady, "format")

    p = add_command("peak", cmd_peak, "peak concurrency for given coefficients")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    add_settings(p, "format")

    p = add_command("predict", cmd_predict, "throughput prediction at a level")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x1", type=float, required=True, help="single-user throughput")
    p.add_argument("--n", type=float, required=True)
    add_settings(p, "format")

    p = add_command("compare", cmd_compare, "diff two fits (saved reports or point files)")
    p.add_argument("a", help="points CSV or saved JSON fit report")
    p.add_argument("b", help="points CSV or saved JSON fit report")
    add_settings(p, "format")

    p = add_command("simulate", cmd_simulate, "generate synthetic measurements")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--x1", type=float, default=1.0)
    p.add_argument("--service", type=float, help="queue mode: mean service time")
    p.add_argument("--think", type=float, help="queue mode: mean think time")
    p.add_argument("--coherency", type=float, default=0.0,
                   help="queue mode: per-pair service inflation")
    p.add_argument("--levels", required=True, help="comma list (1,2,4) or range start:stop[:step]")
    p.add_argument("--noise", type=float, default=0.0, help="relative noise standard deviation")
    add_settings(p, "seed")
    p.add_argument("--out", help="output points CSV (default stdout)")

    p = add_command("steady", cmd_steady, "steady-state window from time series")
    p.add_argument("input", help="series CSV (header t,x) or a directory of runs")
    p.add_argument("--load", type=float, help="load level when the filename has no _N<load> suffix")
    p.add_argument("--out", help="directory input: write aggregated points CSV here")
    add_settings(p, *steady, "format")

    return parser


# the exit code of an error is that of the first class here it is an instance of
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    ((MissingBaselineError, ZeroBaselineError), EXIT_NO_BASELINE),
    (InsufficientDataError, EXIT_INSUFFICIENT),
    (NoSteadyStateError, EXIT_NO_STEADY),
    ((UslError, OSError, UnicodeEncodeError), EXIT_ERROR),  # the last two reach main from a write
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every setting a flag leaves unset, or a command has no flag for,
        # comes from the config, else from its default
        for name, value in _config().items():
            if getattr(args, name, None) is None:
                setattr(args, name, value)
        # so a flag gets the same checks as the config, before any input is read
        args.fit_options, args.steady_config = _analysis_settings(args)
        return args.run(args)
    except (UslError, OSError, UnicodeEncodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return next(code for kind, code in _EXIT_CODES if isinstance(e, kind))


def console_main() -> None:
    sys.exit(main())
