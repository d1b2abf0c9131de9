"""Golden files: the exact bytes every subcommand prints, and its exit code.

Each case runs ``uslkit.cli.main`` on inputs built in a temporary
directory, then compares the exit code, stdout, stderr and every file the
command writes with ``tests/golden/<case>.txt``.  The temporary directory
shows as ``<tmp>`` in those files.  A change to the program's output shows
as a diff of them; edit the expected file by hand when the change is meant.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from uslkit.cli import main
from conftest import SUSPECT_CAPACITIES

GOLDEN = Path(__file__).parent / "golden"


def _capacity(n, alpha, beta):
    return n / (1.0 + alpha * (n - 1.0) + beta * n * (n - 1.0))


def _pairs(alpha, beta, x1, levels):
    return [(n, repr(x1 * _capacity(n, alpha, beta))) for n in levels]


def _ramped(mean, samples=120, warmup=20):
    """A run that ramps up over its first samples, then wobbles about mean."""
    rows = []
    for i in range(samples):
        level = mean * (0.2 + 0.8 * i / warmup) if i < warmup else mean
        rows.append((float(i), repr(level + ((i * 37) % 11 - 5) * 0.002 * mean)))
    return rows


def _csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(header + "\n" + "".join(f"{a},{b}\n" for a, b in rows))


def _bom(path, text):
    """text as UTF-8 after a byte-order mark, as spreadsheet exports write it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))


def _plateau(value, seconds=300):
    return [(i * 5.0, value) for i in range(seconds // 5)]


def build_inputs(d: Path) -> None:
    """Every file the cases read, under d."""
    _csv(d / "clean.csv", "n,x", _pairs(0.05, 0.002, 100.0, [1, 2, 4, 8, 16, 32]))
    _csv(d / "suspect.csv", "n,x", SUSPECT_CAPACITIES)
    noisy = [(1, 100.0), (2, 190.0), (4, 330.0), (8, 560.0), (16, 700.0), (32, 720.0)]
    _csv(d / "noisy.csv", "n,x", noisy)
    # the same times 1e154, whose sse exceeds the float range
    _csv(d / "huge.csv", "n,x", [(n, repr(x * 1e154)) for n, x in noisy])
    _csv(d / "linear.csv", "n,x", [(n, 100.0 * n) for n in (1, 2, 4, 8, 16, 32)])
    _csv(d / "nobase.csv", "n,x", _pairs(0.05, 0.002, 100.0, [2, 4, 8, 16, 32]))
    _csv(d / "nobase4.csv", "n,x", _pairs(0.05, 0.002, 100.0, [2, 4, 8, 16]))
    _csv(d / "few.csv", "n,x", _pairs(0.05, 0.002, 100.0, [2, 4, 8]))
    _csv(d / "zerobase.csv", "n,x", [(1, 0.0), (2, 10.0), (4, 18.0), (8, 30.0)])
    # baselines so far below the rest that their capacities overflow, or the fit's sums
    _csv(d / "tinybase.csv", "n,x", [(1, 5e-324), (2, 1.0), (4, 2.0)])
    _csv(d / "tinyfit.csv", "n,x",
         [(1, 1e-300), (2, 1e10), (4, 2e10), (8, 3e10), (16, 3.5e10), (32, 3.6e10)])
    _csv(d / "far.csv", "n,x", [(1, 100.0), (2, 190.0), (4, 300.0), ("1e20", 300.0)])
    _csv(d / "below1.csv", "n,x", [(1, 100), (2, 40), (3, 20), (4, 12), (6, 6), (8, 3)])
    _csv(d / "before.csv", "n,x", _pairs(0.05, 0.004, 100.0, [1, 2, 4, 8, 16]))
    _csv(d / "after.csv", "n,x", _pairs(0.05, 0.002, 100.0, [1, 2, 4, 8, 16]))
    _csv(d / "flat_a.csv", "n,x", _pairs(0.2, 0.0, 50.0, [1, 2, 4, 8, 16]))
    _csv(d / "flat_b.csv", "n,x", _pairs(0.3, 0.0, 50.0, [1, 2, 4, 8, 16]))
    _csv(d / "bad_header.csv", "users,tput", [(1, 10)])
    _csv(d / "bad_number.csv", "n,x", [(1, 10.0), (2, "fast")])
    (d / "three_columns.csv").write_text("n,x\n1,10,99\n")
    (d / "one_row.csv").write_text("n,x\n1,10\n")
    (d / "empty.csv").write_text("")
    (d / "undecodable.csv").write_bytes(b"n,x\n1,100\n2,19\xff0\n")
    (d / "comments.csv").write_bytes(
        b"# a comment\r\n\r\nn,x\r\n 1 , 10\r\n# mid comment\r\n2,18\r\n\t\r\n4,30\r\n")
    # a spreadsheet export: a UTF-8 byte-order mark, then CRLF line ends
    _bom(d / "bom.csv", "n,x\r\n1,100\r\n2,190\r\n4,300\r\n")

    _csv(d / "bench_N8.csv", "t,x", _plateau(120.0))
    _csv(d / "run.csv", "t,x", _plateau(80.0))
    _csv(d / "ramped_N4.csv", "t,x", _ramped(300.0))
    _csv(d / "warm_N2.csv", "t,x",
         [(0.0, 1.0), (10.0, 99.0)] + [(20.0 + 10 * i, 100.0) for i in range(6)])
    _csv(d / "ramp_N2.csv", "t,x", [(i * 5.0, 10.0 + 2.0 * i) for i in range(40)])
    _csv(d / "short_N2.csv", "t,x", _plateau(50.0, seconds=50))
    _csv(d / "bad_series_N2.csv", "time,x", _plateau(50.0, seconds=50))
    (d / "bad_number_N2.csv").write_text("t,x\n0,100\n5,101\n10,fast\n15,100\n20,100\n")
    (d / "empty_N2.csv").write_text("")

    for n in (1, 2, 4, 8, 16):
        _csv(d / "runs" / f"svc_N{n}.csv", "t,x", _ramped(400.0 * _capacity(n, 0.06, 0.0015)))
    _csv(d / "manifest" / "one.csv", "t,x", _plateau(100.0))
    _csv(d / "manifest" / "two.csv", "t,x", _plateau(180.0))
    (d / "manifest" / "manifest.csv").write_text("# runs\nfile,n\none.csv,1\n\ntwo.csv,2\n")
    manifests = {
        "manifest_header": "file,load\none.csv,1\n",
        "manifest_empty": "# nothing here\n\n",
        "manifest_number": "file,n\none.csv,one\n",
        "manifest_columns": "file,n\none.csv,1,2\n",
        "manifest_missing_run": "file,n\nnone.csv,1\n",
        "manifest_zero_load": "file,n\none.csv,0\n",
    }
    for name, body in manifests.items():
        _csv(d / name / "one.csv", "t,x", _plateau(100.0))
        (d / name / "manifest.csv").write_text(body)
    _csv(d / "unsuffixed" / "mystery.csv", "t,x", _plateau(100.0))
    (d / "no_runs").mkdir()
    _csv(d / "runs_ramp" / "a_N1.csv", "t,x", _plateau(100.0))
    _csv(d / "runs_ramp" / "b_N2.csv", "t,x", [(i * 5.0, 10.0 + 2.0 * i) for i in range(40)])
    for n in (1, 2, 10 ** 20):
        _csv(d / "runs_far" / f"run_N{n}.csv", "t,x", _plateau(100.0))
    _csv(d / "runs_bad" / "a_N1.csv", "t,x", _plateau(100.0))
    (d / "runs_bad" / "b_N2.csv").write_text("t,x\n0,100\n5,101,7\n")

    # a manifest and runs that each start with a byte-order mark
    for name, mean in (("one", 100.0), ("two", 180.0), ("four", 300.0)):
        _bom(d / "bom_runs" / f"{name}.csv",
             "t,x\n" + "".join(f"{t},{x}\n" for t, x in _plateau(mean)))
    _bom(d / "bom_runs" / "manifest.csv", "file,n\none.csv,1\ntwo.csv,2\nfour.csv,4\n")

    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["fit", str(d / "clean.csv"), "--format", "json"]) == 0
    (d / "saved.json").write_text(out.getvalue())
    _bom(d / "saved_bom.json", out.getvalue())
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["fit", str(d / "nobase.csv"), "--format", "json"]) == 0
    (d / "saved_raw3.json").write_text(out.getvalue())
    (d / "garbage.json").write_text('{"not": "a report"}')
    (d / "not_json.json").write_text("{not json")
    (d / "partial.json").write_text('{"fit": {"alpha": 0.01, "beta": 0.001}}')
    # a saved report whose alpha is out of range, or a bool where JSON holds a number
    report = json.loads((d / "saved.json").read_text())
    for name, alpha in (("alpha_range", 1.5), ("alpha_bool", False)):
        report["fit"]["alpha"] = alpha
        (d / f"{name}.json").write_text(json.dumps(report))

    (d / "cfg.json").write_text(json.dumps({
        "format": "json", "tolerance": 0.2, "mode": "raw3", "unit": "req/s", "seed": 3,
        "beta_max": 0.5, "slope_tol": 0.02, "cv_max": 0.2, "min_fraction": 0.25,
        "trim_up": None, "trim_down": None, "refine_tol": 1e-12,
    }))
    (d / "cfg_unknown.json").write_text(json.dumps({"tollerance": 0.2}))
    (d / "cfg_tol_inf.json").write_text('{"refine_tol": Infinity}')
    (d / "cfg_undecodable.json").write_bytes(b'{"unit": "\xff"}')
    _bom(d / "cfg_bom.json", json.dumps({"format": "json", "unit": "req/s"}))


# case name -> (argv with {d} for the input directory, USLKIT_CONFIG file or None,
#               files the command writes, relative to {d})
CASES = {
    "validate-clean-md": ("validate {d}/clean.csv", None, ()),
    "validate-clean-json": ("validate {d}/clean.csv --format json", None, ()),
    "validate-suspect-md": ("validate {d}/suspect.csv", None, ()),
    "validate-suspect-json": ("validate {d}/suspect.csv --format json", None, ()),
    "validate-tolerance": ("validate {d}/suspect.csv --tolerance 0.2", None, ()),
    "validate-comments": ("validate {d}/comments.csv", None, ()),
    "validate-bad-header": ("validate {d}/bad_header.csv", None, ()),
    "validate-bad-number": ("validate {d}/bad_number.csv", None, ()),
    "validate-three-columns": ("validate {d}/three_columns.csv", None, ()),
    "validate-one-row": ("validate {d}/one_row.csv", None, ()),
    "validate-empty": ("validate {d}/empty.csv", None, ()),
    "validate-missing": ("validate {d}/absent.csv", None, ()),
    "validate-undecodable": ("validate {d}/undecodable.csv", None, ()),
    "validate-bom-crlf": ("validate {d}/bom.csv", None, ()),
    "validate-tiny-base-md": ("validate {d}/tinybase.csv", None, ()),
    "validate-tiny-base-json": ("validate {d}/tinybase.csv --format json", None, ()),
    "validate-level-above-2-64": ("validate {d}/far.csv", None, ()),

    "fit-clean-md": ("fit {d}/clean.csv", None, ()),
    "fit-clean-json": ("fit {d}/clean.csv --format json", None, ()),
    "fit-noisy-md": ("fit {d}/noisy.csv", None, ()),
    "fit-noisy-json": ("fit {d}/noisy.csv --format json", None, ()),
    "fit-huge-md": ("fit {d}/huge.csv", None, ()),
    "fit-huge-json": ("fit {d}/huge.csv --format json", None, ()),
    "fit-linear-md": ("fit {d}/linear.csv", None, ()),
    "fit-suspect-refused": ("fit {d}/suspect.csv", None, ()),
    "fit-suspect-force-md": ("fit {d}/suspect.csv --force", None, ()),
    "fit-suspect-force-json": ("fit {d}/suspect.csv --force --format json", None, ()),
    "fit-extrapolate-unit-md": ("fit {d}/clean.csv --extrapolate 100 --unit req/s", None, ()),
    "fit-extrapolate-unit-json":
        ("fit {d}/clean.csv --extrapolate 100 --unit req/s --format json", None, ()),
    "fit-raw3-md": ("fit {d}/nobase.csv", None, ()),
    "fit-raw3-json": ("fit {d}/nobase.csv --format json", None, ()),
    "fit-mode-raw3-json": ("fit {d}/noisy.csv --mode raw3 --format json", None, ()),
    "fit-beta-max-json": ("fit {d}/clean.csv --beta-max 0.001 --format json", None, ()),
    "fit-tolerance-json": ("fit {d}/suspect.csv --tolerance 0.2 --format json", None, ()),
    "fit-extrapolate-nan": ("fit {d}/clean.csv --extrapolate nan", None, ()),
    # refused before the input is read, or this undecodable file would exit 2
    "fit-extrapolate-inf": ("fit {d}/undecodable.csv --extrapolate inf", None, ()),
    "fit-plot-data": ("fit {d}/clean.csv --plot-data {d}/out/plot", None,
                      ("out/plot/points.csv", "out/plot/curve.csv")),
    "fit-plot-data-on-a-file": ("fit {d}/clean.csv --plot-data {d}/clean.csv", None, ()),
    "fit-normalized-no-baseline": ("fit {d}/nobase4.csv --mode normalized", None, ()),
    "fit-zero-baseline": ("fit {d}/zerobase.csv --mode normalized", None, ()),
    "fit-tiny-base-force": ("fit {d}/tinyfit.csv --force", None, ()),
    "fit-too-few": ("fit {d}/few.csv", None, ()),
    "fit-below-one-md": ("fit {d}/below1.csv", None, ()),
    "fit-below-one-force-json": ("fit {d}/below1.csv --force --format json", None, ()),
    "fit-bad-header": ("fit {d}/bad_header.csv", None, ()),
    "fit-missing": ("fit {d}/absent.csv", None, ()),
    "fit-runs-md": ("fit {d}/runs", None, ()),
    "fit-runs-json": ("fit {d}/runs --format json", None, ()),
    "fit-runs-trim-json": ("fit {d}/runs --trim-up 25 --trim-down 5 --format json", None, ()),
    "fit-runs-steady-flags-json":
        ("fit {d}/runs --slope-tol 0.05 --cv-max 0.3 --min-fraction 0.5 --format json",
         None, ()),
    "fit-manifest-json": ("fit {d}/manifest --format json", None, ()),
    "fit-runs-no-steady": ("fit {d}/runs_ramp", None, ()),
    "fit-runs-bad-series": ("fit {d}/runs_bad", None, ()),
    "fit-runs-unsuffixed": ("fit {d}/unsuffixed", None, ()),
    "fit-runs-load-above-2-64": ("fit {d}/runs_far", None, ()),
    "fit-bom-manifest-json": ("fit {d}/bom_runs --format json", None, ()),

    "peak-md": ("peak --alpha 0.0255 --beta 0.021", None, ()),
    "peak-json": ("peak --alpha 0.0255 --beta 0.021 --format json", None, ()),
    "peak-unbounded-md": ("peak --alpha 0.25 --beta 0", None, ()),
    "peak-unbounded-json": ("peak --alpha 0.25 --beta 0 --format json", None, ()),
    "peak-below-one-md": ("peak --alpha 0.5 --beta 2", None, ()),
    "peak-below-one-json": ("peak --alpha 0.5 --beta 2 --format json", None, ()),
    "peak-bad-alpha": ("peak --alpha 1.5 --beta 0", None, ()),

    "predict-md": ("predict --alpha 0.0255 --beta 0.021 --x1 100 --n 4", None, ()),
    "predict-json": ("predict --alpha 0.0255 --beta 0.021 --x1 100 --n 4 --format json",
                     None, ()),
    "predict-bad-n": ("predict --alpha 0.0255 --beta 0.021 --x1 100 --n 0.5", None, ()),
    "predict-overflow-json": ("predict --alpha 0 --beta 0 --x1 1e300 --n 1e300 --format json",
                              None, ()),

    "compare-points-md": ("compare {d}/before.csv {d}/after.csv", None, ()),
    "compare-points-json": ("compare {d}/before.csv {d}/after.csv --format json", None, ()),
    "compare-saved-md": ("compare {d}/saved.json {d}/noisy.csv", None, ()),
    "compare-saved-json": ("compare {d}/saved.json {d}/clean.csv --format json", None, ()),
    "compare-saved-raw3-json":
        ("compare {d}/saved_raw3.json {d}/saved.json --format json", None, ()),
    "compare-unbounded-md": ("compare {d}/flat_a.csv {d}/flat_b.csv", None, ()),
    "compare-tie-md": ("compare {d}/clean.csv {d}/clean.csv", None, ()),
    "compare-garbage": ("compare {d}/garbage.json {d}/clean.csv", None, ()),
    "compare-not-json": ("compare {d}/not_json.json {d}/clean.csv", None, ()),
    "compare-partial": ("compare {d}/partial.json {d}/clean.csv", None, ()),
    "compare-alpha-out-of-range": ("compare {d}/alpha_range.json {d}/clean.csv", None, ()),
    "compare-alpha-bool": ("compare {d}/alpha_bool.json {d}/clean.csv", None, ()),
    "compare-missing-report": ("compare {d}/absent.json {d}/clean.csv", None, ()),
    "compare-bad-points": ("compare {d}/clean.csv {d}/bad_number.csv", None, ()),
    "compare-saved-bom-md": ("compare {d}/saved_bom.json {d}/noisy.csv", None, ()),

    "simulate-model": ("simulate --alpha 0.1 --beta 0.004 --x1 100 --levels 1,2,4,8",
                       None, ()),
    "simulate-model-out": ("simulate --alpha 0.1 --beta 0.004 --x1 100 --levels 1,2,4,8 "
                           "--out {d}/out/sim.csv", None, ("out/sim.csv",)),
    "simulate-queue": ("simulate --service 1 --think 3 --coherency 0.01 --levels 1:8",
                       None, ()),
    "simulate-noise-seed": ("simulate --alpha 0.05 --beta 0.001 --x1 50 --levels 1,2,4,8 "
                            "--noise 0.05 --seed 7", None, ()),
    "simulate-noise-default-seed": ("simulate --alpha 0.05 --beta 0.001 --x1 50 "
                                    "--levels 1,2,4,8 --noise 0.05", None, ()),
    "simulate-out-missing-dir": ("simulate --alpha 0.1 --beta 0.01 --levels 1,2,4 "
                                 "--out {d}/missing/x.csv", None, ()),
    "simulate-range-step": ("simulate --alpha 0 --beta 0 --levels 1:7:2", None, ()),
    "simulate-zero-think": ("simulate --service 1 --think 0 --levels 1,2,4", None, ()),
    "simulate-mixed-modes": ("simulate --alpha 0.1 --beta 0 --service 1 --think 1 "
                             "--levels 1,2", None, ()),
    "simulate-missing-beta": ("simulate --alpha 0.1 --levels 1,2", None, ()),
    "simulate-missing-think": ("simulate --service 1 --levels 1,2", None, ()),
    "simulate-bad-levels": ("simulate --alpha 0.1 --beta 0 --levels fast,slow", None, ()),
    "simulate-levels-four-parts": ("simulate --alpha 0.1 --beta 0 --levels 1:2:3:4", None, ()),
    "simulate-levels-descending": ("simulate --alpha 0.1 --beta 0 --levels 5:1", None, ()),
    "simulate-level-below-one": ("simulate --alpha 0.1 --beta 0.01 --levels 0.5,1,2", None, ()),
    "simulate-level-above-2-64": ("simulate --alpha 0.1 --beta 0.01 --levels 1,2,4,1e20",
                                  None, ()),
    "simulate-overflow": ("simulate --alpha 0.05 --beta 0.002 --x1 1e308 --levels 1,2,4",
                          None, ()),

    "steady-plateau-md": ("steady {d}/bench_N8.csv", None, ()),
    "steady-plateau-json": ("steady {d}/bench_N8.csv --format json", None, ()),
    "steady-ramped-md": ("steady {d}/ramped_N4.csv", None, ()),
    "steady-ramped-json": ("steady {d}/ramped_N4.csv --format json", None, ()),
    "steady-load-flag": ("steady {d}/run.csv --load 4", None, ()),
    "steady-no-load": ("steady {d}/run.csv", None, ()),
    "steady-load-zero": ("steady {d}/run.csv --load 0", None, ()),
    "steady-runs-load": ("steady {d}/runs --load 7", None, ()),
    "steady-file-out": ("steady {d}/ramped_N4.csv --out {d}/out/one.csv", None, ()),
    "steady-trim-md": ("steady {d}/warm_N2.csv --trim-up 15", None, ()),
    "steady-trim-json": ("steady {d}/warm_N2.csv --trim-up 15 --format json", None, ()),
    "steady-trim-down-json": ("steady {d}/ramped_N4.csv --trim-down 10 --format json",
                              None, ()),
    "steady-cv-max": ("steady {d}/ramped_N4.csv --cv-max 0.001", None, ()),
    "steady-min-fraction": ("steady {d}/ramped_N4.csv --min-fraction 0.95", None, ()),
    "steady-slope-tol-json": ("steady {d}/ramped_N4.csv --slope-tol 0.5 --format json",
                              None, ()),
    "steady-ramp": ("steady {d}/ramp_N2.csv", None, ()),
    "steady-excess-trim": ("steady {d}/short_N2.csv --trim-up 100", None, ()),
    "steady-nan-trim": ("steady {d}/short_N2.csv --trim-down nan", None, ()),
    "steady-bad-header": ("steady {d}/bad_series_N2.csv", None, ()),
    "steady-bad-number": ("steady {d}/bad_number_N2.csv", None, ()),
    "steady-empty": ("steady {d}/empty_N2.csv", None, ()),
    "steady-missing": ("steady {d}/absent_N2.csv", None, ()),
    "steady-runs-stdout": ("steady {d}/runs", None, ()),
    "steady-runs-out": ("steady {d}/runs --out {d}/out/points.csv", None,
                        ("out/points.csv",)),
    "steady-runs-trim": ("steady {d}/runs --trim-up 25", None, ()),
    "steady-manifest": ("steady {d}/manifest --format json", None, ()),
    "steady-manifest-header": ("steady {d}/manifest_header", None, ()),
    "steady-manifest-empty": ("steady {d}/manifest_empty", None, ()),
    "steady-manifest-number": ("steady {d}/manifest_number", None, ()),
    "steady-manifest-columns": ("steady {d}/manifest_columns", None, ()),
    "steady-manifest-missing-run": ("steady {d}/manifest_missing_run", None, ()),
    "steady-manifest-zero-load": ("steady {d}/manifest_zero_load", None, ()),
    "steady-unsuffixed": ("steady {d}/unsuffixed", None, ()),
    "steady-no-runs": ("steady {d}/no_runs", None, ()),
    "steady-runs-no-steady": ("steady {d}/runs_ramp", None, ()),

    "config-validate": ("validate {d}/suspect.csv", "cfg.json", ()),
    "config-fit": ("fit {d}/noisy.csv", "cfg.json", ()),
    "config-fit-flags": ("fit {d}/noisy.csv --format markdown --mode auto --unit ops "
                         "--beta-max 1", "cfg.json", ()),
    "config-fit-runs": ("fit {d}/runs", "cfg.json", ()),
    "config-peak": ("peak --alpha 0.0255 --beta 0.021", "cfg.json", ()),
    "config-predict": ("predict --alpha 0.0255 --beta 0.021 --x1 100 --n 4", "cfg.json", ()),
    "config-compare": ("compare {d}/noisy.csv {d}/clean.csv", "cfg.json", ()),
    "config-simulate": ("simulate --alpha 0.05 --beta 0.001 --x1 50 --levels 1,2,4,8 "
                        "--noise 0.05", "cfg.json", ()),
    "config-steady": ("steady {d}/ramped_N4.csv", "cfg.json", ()),
    "config-refine-tol-inf": ("fit {d}/noisy.csv", "cfg_tol_inf.json", ()),
    "config-unknown-key": ("validate {d}/clean.csv", "cfg_unknown.json", ()),
    "config-unknown-key-peak": ("peak --alpha 0.0255 --beta 0.021", "cfg_unknown.json", ()),
    "config-missing": ("validate {d}/clean.csv", "absent.json", ()),
    "config-undecodable": ("validate {d}/clean.csv", "cfg_undecodable.json", ()),
    "config-bom": ("peak --alpha 0.0255 --beta 0.021", "cfg_bom.json", ()),

    "help": ("--help", None, ()),
    "help-validate": ("validate --help", None, ()),
    "help-fit": ("fit --help", None, ()),
    "help-peak": ("peak --help", None, ()),
    "help-predict": ("predict --help", None, ()),
    "help-compare": ("compare --help", None, ()),
    "help-simulate": ("simulate --help", None, ()),
    "help-steady": ("steady --help", None, ()),
    "usage-no-command": ("", None, ()),
    "usage-fit-no-input": ("fit", None, ()),
    "usage-bad-format": ("peak --alpha 0.1 --beta 0 --format yaml", None, ()),
}


def transcript(case: str, d: Path, monkeypatch) -> str:
    """Exit code, stdout, stderr and written files of one case, as text."""
    argv, config, written = CASES[case]
    args = argv.format(d=d).split()
    monkeypatch.setenv("COLUMNS", "100")
    if config is None:
        monkeypatch.delenv("USLKIT_CONFIG", raising=False)
    else:
        monkeypatch.setenv("USLKIT_CONFIG", str(d / config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as e:
            code = e.code
    parts = [f"$ uslkit {argv.format(d='<tmp>')}".rstrip()]
    if config is not None:
        parts.append(f"USLKIT_CONFIG=<tmp>/{config}")
    parts += [f"exit {code}", "--- stdout", out.getvalue(), "--- stderr", err.getvalue()]
    for name in written:
        parts += [f"--- file <tmp>/{name}", (d / name).read_text()]
    return "\n".join(parts).replace(str(d), "<tmp>")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("USLKIT_CONFIG", raising=False)
        build_inputs(d)
    return d


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, inputs, monkeypatch):
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert transcript(case, inputs, monkeypatch) == expected


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_json_stdout_is_strict_json():
    """NaN and Infinity are not JSON (RFC 8259), so no report may print them."""
    for path in sorted(GOLDEN.glob("*.txt")):
        out = path.read_text().split("\n--- stdout\n")[1].split("\n--- stderr\n")[0]
        if out.startswith("{") or (path.stem.endswith("-json") and out):
            try:
                json.loads(out, parse_constant=_no_constant)
            except ValueError as e:
                pytest.fail(f"{path.name}: {e}")


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)
