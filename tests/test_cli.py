import json
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uslkit.cli as cli
from uslkit import (
    MODE_NORMALIZED, Dataset, FitResult, UslParams, fit_usl, generate_synthetic,
    scalability_curve, usl_capacity,
)
from uslkit.cli import (
    EXIT_ERROR,
    EXIT_INSUFFICIENT,
    EXIT_INVALID,
    EXIT_NO_BASELINE,
    EXIT_NO_STEADY,
    EXIT_OK,
    EXIT_PARSE,
    main,
    read_points_csv,
    read_series_csv,
)
from conftest import SUSPECT_CAPACITIES


def write_points(path, pairs, header="n,x"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for n, x in pairs:
            fh.write(f"{n},{x}\n")
    return str(path)


def write_series(path, samples, header="t,x"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, x in samples:
            fh.write(f"{t},{x}\n")
    return str(path)


def model_pairs(alpha, beta, x1, levels):
    p = UslParams(alpha, beta)
    return [(n, repr(x1 * usl_capacity(n, p))) for n in levels]


def not_json(token):
    raise ValueError(f"{token} is not JSON")


def plateau(level, value, seconds=300, step=5.0):
    return [(i * step, value) for i in range(int(seconds / step))]


@pytest.fixture
def clean_csv(data_dir):
    return write_points(data_dir / "clean.csv", model_pairs(0.05, 0.002, 100.0, [1, 2, 4, 8, 16, 32]))


@pytest.fixture
def suspect_csv(data_dir):
    return write_points(data_dir / "suspect.csv", SUSPECT_CAPACITIES)


class TestValidateCommand:
    def test_clean_exits_zero(self, clean_csv, capsys):
        assert main(["validate", clean_csv]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: **clean**" in out

    def test_invalid_exits_three(self, suspect_csv, capsys):
        assert main(["validate", suspect_csv]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert "verdict: **invalid**" in out
        assert "efficiency-above-one" in out

    def test_json_format(self, suspect_csv, capsys):
        assert main(["validate", suspect_csv, "--format", "json"]) == EXIT_INVALID
        d = json.loads(capsys.readouterr().out)
        assert d["verdict"] == "invalid"
        assert len(d["rows"]) == len(SUSPECT_CAPACITIES)

    def test_tolerance_flag(self, suspect_csv):
        # generous slack swallows even the 13% excursions
        assert main(["validate", suspect_csv, "--tolerance", "0.2"]) == EXIT_OK

    def test_a_directory_of_runs_validates_as_fit_validates_it(self, data_dir, capsys):
        runs = data_dir / "runs"
        runs.mkdir()
        for n in (1, 2, 4, 8):
            write_series(runs / f"bench_N{n}.csv",
                         plateau(n, 100.0 * usl_capacity(n, UslParams(0.1, 0.004))))
        assert main(["validate", str(runs), "--format", "json"]) == EXIT_OK
        validated = capsys.readouterr().out
        assert main(["fit", str(runs), "--format", "json"]) == EXIT_OK
        fitted = json.loads(capsys.readouterr().out)["validation"]
        assert validated == cli.render_json(fitted) + "\n"


class TestParseErrors:
    def test_wrong_header_names_line(self, data_dir, capsys):
        bad = write_points(data_dir / "bad.csv", [(1, 10)], header="users,tput")
        assert main(["validate", bad]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "bad.csv:1:" in err and "expected header" in err

    def test_bad_number_names_line(self, data_dir, capsys):
        bad = write_points(data_dir / "bad.csv", [(1, 10.0), (2, "fast")])
        assert main(["validate", bad]) == EXIT_PARSE
        assert "bad.csv:3:" in capsys.readouterr().err

    def test_wrong_column_count(self, data_dir, capsys):
        p = data_dir / "bad.csv"
        p.write_text("n,x\n1,10,99\n")
        assert main(["validate", str(p)]) == EXIT_PARSE
        assert "expected 2 columns" in capsys.readouterr().err

    def test_missing_file(self, data_dir):
        assert main(["validate", str(data_dir / "nope.csv")]) == EXIT_PARSE

    def test_comments_and_blanks_are_skipped(self, data_dir):
        p = data_dir / "ok.csv"
        p.write_text("# a comment\n\nn,x\n1,10\n# mid comment\n2,18\n4,30\n")
        assert main(["validate", str(p)]) == EXIT_OK


SERIES_ROWS = "".join(f"{5 * i},{100 + i % 2}\n" for i in range(8))

# (file body, line named in the message or None, message)
SERIES_ERRORS = {
    "wrong-header": ("time,x\n" + SERIES_ROWS, 1, "expected header 't,x', got 'time,x'"),
    "bad-number": ("t,x\n0,100\n5,101\n10,fast\n15,100\n20,100\n", 4,
                   "could not convert string to float: 'fast'"),
    "three-columns": ("t,x\n0,100\n5,101,7\n" + SERIES_ROWS, 3, "expected 2 columns, got 3"),
    "empty": ("", None, "empty file; expected header 't,x'"),
    "four-rows": ("t,x\n0,100\n5,101\n10,100\n15,101\n", None,
                  "a run needs at least 5 samples, got 4"),
    "negative": ("t,x\n0,100\n5,101\n10,-3\n15,101\n20,100\n", None,
                 "throughput must be finite and >= 0 (at t=10)"),
    "repeated-time": ("t,x\n0,100\n5,101\n5,100\n15,101\n20,100\n", None,
                      "timestamps must strictly increase (at t=5)"),
}


class TestSeriesParseErrors:
    @pytest.mark.parametrize("case", sorted(SERIES_ERRORS))
    @pytest.mark.parametrize("via", ["steady", "fit"])
    def test_exit_two_names_path_and_line(self, data_dir, capsys, case, via):
        body, line, message = SERIES_ERRORS[case]
        runs = data_dir / "runs"
        runs.mkdir()
        path = runs / "bad_N2.csv"
        path.write_text(body)
        target = path if via == "steady" else runs
        assert main([via, str(target)]) == EXIT_PARSE
        where = f"{path}:" if line is None else f"{path}:{line}:"
        assert capsys.readouterr().err == f"error: {where} {message}\n"

    @pytest.mark.parametrize("runs,manifest,message", [
        (["r_N4.csv"], None, "a dataset needs at least 2 points, got 1"),
        (["one.csv", "two.csv"], "file,n\none.csv,4\ntwo.csv,4\n",
         "duplicate load level 4 across runs"),
    ])
    @pytest.mark.parametrize("via", ["validate", "fit", "compare", "steady"])
    def test_runs_that_make_no_dataset_exit_two_naming_the_directory(
            self, data_dir, capsys, runs, manifest, message, via):
        d = data_dir / "runs"
        d.mkdir()
        for name in runs:
            write_series(d / name, plateau(4, 100.0))
        if manifest:
            (d / "manifest.csv").write_text(manifest)
        argv = [via, str(d)] + ([str(d)] if via == "compare" else [])
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {d}: {message}\n"

    def test_comments_blanks_and_crlf_give_the_clean_window(self, data_dir, capsys):
        samples = [(i * 5.0, 100.0 + (i % 3)) for i in range(40)]
        clean = write_series(data_dir / "clean_N4.csv", samples)
        messy = data_dir / "messy_N4.csv"
        rows = [f" {t!r} , {x!r} " for t, x in samples]
        rows[10:10] = ["# warm-up done", "", "   "]
        messy.write_bytes(("# exported\r\n\r\nt,x\r\n" + "\r\n".join(rows) + "\r\n").encode())
        windows = []
        for path in (clean, str(messy)):
            assert main(["steady", path, "--format", "json"]) == EXIT_OK
            windows.append(json.loads(capsys.readouterr().out))
        assert windows[0] == windows[1]

    @pytest.mark.parametrize("blank", ["   ", "\t", " \t "])
    def test_a_line_of_blanks_keeps_the_one_call_reader(self, data_dir, monkeypatch, blank):
        samples = [(i * 5.0, 100.0 + (i % 3)) for i in range(40)]
        rows = [f"{t!r},{x!r}" for t, x in samples]
        rows[20:20] = [blank]
        path = data_dir / "blank_N4.csv"
        path.write_text("t,x\n" + "\n".join(rows) + "\n")

        def line_by_line(*args):
            raise AssertionError("fell back to the line-by-line reader")

        monkeypatch.setattr(cli, "_read_two_column", line_by_line)
        assert read_series_csv(str(path)).samples.tolist() == [list(p) for p in samples]


def _sections(md):
    """The lines of a report under each heading, keyed by the path of headings below the title."""
    sections, path = {(): []}, ()
    for line in md.splitlines():
        m = re.match(r"(#+) (.*)", line)
        if m:
            depth = len(m.group(1)) - 1
            path = path[:depth - 1] + (m.group(2),) if depth else ()
            sections[path] = []
        elif line:
            sections[path].append(line)
    return sections


def _shows(cell, value):
    """Whether a markdown cell shows a JSON value: null as -, inf or nan, a number to 10 digits."""
    if value is None:
        return cell in ("-", "inf", "-inf", "nan")
    if type(value) in (int, float):
        return float(cell) == pytest.approx(value, rel=1e-9, abs=0.0)
    return cell == cli._fmt(value)


def _assert_shown(sections, d, path):
    """Every key of d is shown in the section at path: a scalar as its table row, a dict as
    a section of its own, a list of dicts as a table headed by their keys, a list as bullets."""
    for key, value in d.items():
        where = path + (key,)
        if isinstance(value, dict):
            _assert_shown(sections, value, where)
        elif not value and isinstance(value, list):
            assert where not in sections, where
        elif isinstance(value, list) and isinstance(value[0], dict):
            header, _, *rows = sections[where]
            assert header == "| " + " | ".join(value[0]) + " |", where
            assert len(rows) == len(value), where
            for row, line in zip(value, rows):
                cells = re.split(r"(?<!\\) \| ", line[2:-2])
                assert all(_shows(c, v) for c, v in zip(cells, row.values(), strict=True))
        elif isinstance(value, list):
            assert sections[where] == [f"- {cli._fmt(v)}" for v in value], where
        else:
            cells = [line[len(key) + 5:-2] for line in sections[path]
                     if line.startswith(f"| {key} | ")]
            assert len(cells) == 1 and _shows(cells[0], value), where


class TestFitCommand:
    def test_recovers_coefficients_json(self, clean_csv, capsys):
        assert main(["fit", clean_csv, "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["fit"]["alpha"] == pytest.approx(0.05, abs=1e-8)
        assert d["fit"]["beta"] == pytest.approx(0.002, abs=1e-8)
        assert d["fit"]["x1"] == pytest.approx(100.0, rel=1e-12)
        assert d["fit"]["mode"] == "normalized-capacity"
        assert d["regime"] == "retrograde"
        assert d["validation"]["verdict"] == "clean"
        assert len(d["residuals"]) == 6
        assert d["peak"]["n"] == pytest.approx(21.79449472, rel=1e-6)

    def test_markdown_and_json_numbers_agree(self, data_dir, clean_csv, capsys):
        noisy = [(1, 100.0), (2, 190.0), (4, 330.0), (8, 560.0), (16, 700.0), (32, 720.0)]
        runs = data_dir / "runs"
        runs.mkdir()
        for n in (1, 2, 4, 8):
            write_series(runs / f"bench_N{n}.csv",
                         plateau(n, 100.0 * usl_capacity(n, UslParams(0.1, 0.004))))
        cases = [
            [clean_csv],
            [write_points(data_dir / "noisy.csv", noisy)],
            [write_points(data_dir / "nobase.csv",
                          model_pairs(0.05, 0.002, 100.0, [2, 4, 8, 16, 32]))],
            [write_points(data_dir / "huge.csv", [(n, repr(x * 1e154)) for n, x in noisy])],
            [write_points(data_dir / "linear.csv", [(n, 100.0 * n) for n in (1, 2, 4, 8, 16)])],
            [write_points(data_dir / "below.csv", self.BELOW_ONE), "--force"],
            [str(runs)],
            [clean_csv, "--unit", "req/s"],
        ]
        for argv in cases:
            assert main(["fit", *argv, "--format", "json"]) == EXIT_OK
            d = json.loads(capsys.readouterr().out)
            assert main(["fit", *argv]) == EXIT_OK
            md = capsys.readouterr().out
            assert md.startswith("# Scalability fit\n\n" + "".join(
                f"> {n}\n\n" for n in d.pop("notices")) + "| quantity | value |\n"), argv
            _assert_shown(_sections(md), d, ())

    def test_refuses_invalid_data(self, suspect_csv, capsys):
        assert main(["fit", suspect_csv]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "refusing to fit" in err
        assert "--force" in err

    def test_force_overrides_validation(self, suspect_csv, capsys):
        assert main(["fit", suspect_csv, "--force", "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert any("--force" in n for n in d["notices"])
        assert d["validation"]["verdict"] == "invalid"

    def test_extrapolate_extends_curve(self, clean_csv, capsys):
        assert main(["fit", clean_csv, "--extrapolate", "100", "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["curve"][-1]["n"] == 100.0
        assert any("extrapolated" in n for n in d["notices"])

    def test_infinite_extrapolate_names_finiteness(self, data_dir, capsys):
        # refused before the input is read: the input here does not exist
        assert main(["fit", str(data_dir / "absent.csv"), "--extrapolate", "inf"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: --extrapolate must be finite, got inf\n"

    def test_huge_extrapolate_writes_nothing_to_stderr(self, clean_csv, capsys):
        # the curve's top capacities overflow to their limit, 0; a numpy
        # warning on the way would raise here rather than reach stderr
        argv = ["fit", clean_csv, "--extrapolate", "1e308", "--format", "json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["curve"][-1]["capacity"] == 0.0

    @pytest.mark.parametrize("n", ["1", "10", "32"])
    def test_extrapolate_within_the_data_changes_nothing(self, clean_csv, capsys, n):
        # clean.csv spans levels 1 to 32
        for fmt in ("json", "markdown"):
            assert main(["fit", clean_csv, "--format", fmt]) == EXIT_OK
            plain = capsys.readouterr().out
            assert main(["fit", clean_csv, "--extrapolate", n, "--format", fmt]) == EXIT_OK
            assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("n", ["-5", "0", "0.5", "nan"])
    def test_extrapolate_below_one_exits_one(self, data_dir, capsys, n):
        # refused before the input is read: the input here does not exist
        argv = ["fit", str(data_dir / "absent.csv"), "--extrapolate", n]
        assert main(argv) == EXIT_ERROR
        message = f"--extrapolate must be >= 1, got {float(n)}"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_plot_data_files(self, clean_csv, data_dir, capsys):
        plot = data_dir / "plot"
        assert main(["fit", clean_csv, "--plot-data", str(plot)]) == EXIT_OK
        capsys.readouterr()
        points = read_points_csv(str(plot / "points.csv"))
        original = read_points_csv(clean_csv)
        assert [(p.n, p.x) for p in points.points] == [(p.n, p.x) for p in original.points]
        curve_lines = (plot / "curve.csv").read_text().splitlines()
        assert curve_lines[0] == "n,x"
        assert len(curve_lines) == 51

    def test_unit_label_appears(self, clean_csv, capsys):
        assert main(["fit", clean_csv, "--unit", "req/s"]) == EXIT_OK
        assert "| unit | req/s |" in capsys.readouterr().out

    def test_a_pipe_in_a_cell_is_escaped(self, clean_csv, capsys):
        assert main(["fit", clean_csv, "--unit", "req|s"]) == EXIT_OK
        assert "| unit | req\\|s |" in capsys.readouterr().out.splitlines()

    def test_mode_normalized_without_baseline_exits_six(self, data_dir, capsys):
        p = write_points(data_dir / "nob.csv", model_pairs(0.05, 0.002, 100.0, [2, 4, 8, 16]))
        assert main(["fit", p, "--mode", "normalized"]) == EXIT_NO_BASELINE
        assert "n = 1" in capsys.readouterr().err

    def test_too_few_points_exits_four(self, data_dir, capsys):
        p = write_points(data_dir / "few.csv", model_pairs(0.05, 0.002, 100.0, [2, 4, 8]))
        assert main(["fit", p]) == EXIT_INSUFFICIENT
        capsys.readouterr()

    def test_raw3_notice_without_baseline(self, data_dir, capsys):
        p = write_points(data_dir / "nob.csv", model_pairs(0.05, 0.002, 100.0, [2, 4, 8, 16, 32]))
        assert main(["fit", p, "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["fit"]["mode"] == "raw-throughput-3param"
        assert any("x1 was fitted" in n for n in d["notices"])
        assert d["validation"] is None

    # alpha and beta both at their bounds put the peak near N = 0
    BELOW_ONE = [(1, 100), (2, 40), (3, 20), (4, 12), (6, 6), (8, 3)]

    def test_peak_below_one_json(self, data_dir, capsys):
        p = write_points(data_dir / "below.csv", self.BELOW_ONE)
        assert main(["fit", p, "--force", "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["peak"]["n"] < 1.0
        assert d["peak"]["practical_n"] == 1.0
        assert d["peak"]["capacity"] == 1.0

    def test_peak_below_one_markdown(self, data_dir, capsys):
        p = write_points(data_dir / "below.csv", self.BELOW_ONE)
        assert main(["fit", p, "--force"]) == EXIT_OK
        out = capsys.readouterr().out
        peak = _sections(out)[("peak",)]
        assert "| practical_n | 1 |" in peak
        assert "| capacity | 1 |" in peak

    def test_throughputs_near_the_float_maximum_write_null(self, data_dir, capsys):
        path = write_points(data_dir / "max.csv",
                            [(1, 1e308), (2, 1.7e308), (4, 1.79e308), (8, 1.79e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", path, "--format", "json"]) == EXIT_OK
        out, err = capsys.readouterr()
        report = json.loads(out, parse_constant=not_json)
        assert err == "" and None in [r["modeled"] for r in report["residuals"]]

    def test_a_level_above_2_to_the_64_exits_two(self, data_dir, capsys):
        path = write_points(data_dir / "far.csv", [(1, 100), (2, 190), (4, 300), (1.35e154, 300)])
        assert main(["fit", path]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: {path}: concurrency must be in [1, 2**64], got 1.35e+154\n")

    def test_directory_of_runs(self, data_dir, capsys):
        runs = data_dir / "runs"
        runs.mkdir()
        p = UslParams(0.1, 0.004)
        for n in (1, 2, 4, 8):
            write_series(runs / f"bench_N{n}.csv", plateau(n, 100.0 * usl_capacity(n, p)))
        assert main(["fit", str(runs), "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["fit"]["alpha"] == pytest.approx(0.1, abs=1e-8)
        assert d["fit"]["beta"] == pytest.approx(0.004, abs=1e-8)
        assert any("aggregated 4 time-series runs" in n for n in d["notices"])


def _report(alpha, beta, levels, seed):
    """The fit report of law data with 2 % noise at levels, x1 = 1000."""
    data = generate_synthetic(UslParams(alpha, beta, 1000.0), levels, noise=0.02, seed=seed)
    fit = fit_usl(data)
    curve = scalability_curve(fit.params, domain_max=float(levels[-1]), num=2)
    return cli.build_fit_report(fit, data, None, curve, None, [])


def _beyond_the_data(report):
    return any("is an extrapolation" in n or "is not ruled out" in n for n in report["notices"])


class TestRangeNotice:
    """peak.reach chooses the notice on where the peak lies; 300 seeds per design."""

    SEEDS = range(300)

    @pytest.mark.parametrize("top,least,most", [(4, 0.95, 1.0), (8, 0.95, 1.0),
                                                (32, 0.0, 0.05), (48, 0.0, 0.05)])
    def test_short_ranges_get_the_notice_and_long_ones_do_not(self, top, least, most):
        # alpha = 0.05, beta = 0.002 peaks at N = 21.8; up to 8 geometric levels from 1
        levels = np.unique(np.round(np.geomspace(1.0, top, 8)))
        share = np.mean([_beyond_the_data(_report(0.05, 0.002, levels, s)) for s in self.SEEDS])
        assert least <= share <= most

    @pytest.mark.parametrize("alpha", [0.02, 0.05])
    def test_every_finite_peak_fitted_to_amdahl_data_is_flagged(self, alpha):
        reports = [_report(alpha, 0.0, [1, 2, 4, 8, 16, 24, 32, 48], s) for s in self.SEEDS]
        finite = [r for r in reports if r["peak"]["reach"] > 0.0]
        assert len(finite) > 30 and all(r["peak"]["reach"] < 1.0 for r in finite)
        assert all(_beyond_the_data(r) for r in reports)

    @pytest.mark.parametrize("reach,notice", [
        (0.5, "the peak (N ~ 64.0000) is an extrapolation, "
              "2x the highest level measured (N=32)"),
        (2.0, "the measured range extends past the capacity peak (N ~ 16.0000); "
              "extra concurrency there costs throughput"),
        (1.0, None),
    ])
    def test_reach_chooses_the_range_notice(self, reach, notice):
        # alpha = 0 puts the peak at 1 / sqrt(beta)
        params = UslParams(0.0, (reach / 32.0) ** 2, 100.0)
        levels = [1, 2, 4, 8, 16, 32]
        data = generate_synthetic(params, levels)
        report = cli.build_fit_report(
            fit_usl(data), data, None, scalability_curve(params, 32.0, 2), None, [])
        assert report["peak"]["reach"] == pytest.approx(reach, rel=1e-9)
        # after the validation-skipped notice (validation None) and the dominant term
        assert report["notices"][2:] == ([notice] if notice else [])

    def test_a_peak_from_2_to_the_53_is_written_in_exponent_form(self):
        fit = FitResult(UslParams(0.05, 1e-200, 100.0), 0.0, 1.0, (), False, MODE_NORMALIZED)
        data = Dataset.from_pairs([(1, 100.0), (2, 190.0), (4, 330.0)])
        report = cli.build_fit_report(
            fit, data, None, scalability_curve(fit.params, 4.0, 2), None, [])
        assert report["notices"][2:] == ["the peak (N ~ 9.746794345e+99) is an extrapolation, "
                                         "2.44e+99x the highest level measured (N=4)"]


class TestDerivedNotices:
    """build_fit_report writes each notice its arguments imply after the given ones, in order,
    and the fit's advice after them."""

    SKIPPED = "validation skipped: no usable n = 1 baseline"
    FEW = "fewer than 6 distinct levels; coefficient estimates are weakly constrained"
    RAW3 = "no n = 1 measurement: x1 was fitted, not measured"

    @pytest.mark.parametrize("verdict,levels,domain,derived", [
        (None, [1, 2, 4, 8, 16, 32], 32.0, [SKIPPED]),
        ("invalid", [1, 2, 4, 8, 16, 32], 32.0,
         ["validation verdict invalid; fitting anyway because of --force"]),
        ("suspect", [1, 2, 4, 8, 16, 32], 32.0,
         ["validation verdict suspect; see the validation section"]),
        ("clean", [1, 2, 4, 8], 8.0, [FEW]),
        (None, [2, 4, 8, 16, 32, 48], 48.0, [SKIPPED, RAW3]),
        ("clean", [1, 2, 4, 8, 16, 32], 100.0, ["curve extrapolated to N=100"]),
        (None, [2, 4, 8, 16], 50.0, [SKIPPED, FEW, RAW3, "curve extrapolated to N=50"]),
    ])
    def test_each_notice_in_order(self, verdict, levels, domain, derived):
        data = generate_synthetic(UslParams(0.05, 0.002, 100.0), levels)
        fit = fit_usl(data)
        validation = verdict and {"verdict": verdict, "rows": [], "notes": []}
        report = cli.build_fit_report(fit, data, validation,
                                      scalability_curve(fit.params, domain, 2), None, ["given"])
        # the fit's advice: the dominant term, then where the peak lies
        advice = [n for n in report["notices"] if "dominates" in n or "peak" in n]
        assert len(advice) == 2
        assert report["notices"] == ["given", *derived, *advice]


class TestPeakCommand:
    def test_markdown_rounding(self, capsys):
        assert main(["peak", "--alpha", "0.0255", "--beta", "0.0210"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "peak N: 6.8121" in out
        assert "practical N: 7" in out
        assert "regime: retrograde" in out

    def test_unbounded_when_beta_zero(self, capsys):
        assert main(["peak", "--alpha", "0.25", "--beta", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "peak N: inf" in out

    def test_json_full_precision(self, capsys):
        assert main(["peak", "--alpha", "0.0255", "--beta", "0.0210", "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["peak"]["n"] == pytest.approx(6.812104073247993, rel=1e-12)
        assert d["peak"]["practical_n"] == 7.0

    def test_json_unbounded_is_null(self, capsys):
        assert main(["peak", "--alpha", "0.25", "--beta", "0", "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["peak"]["n"] is None

    def test_bad_alpha_exits_one(self, capsys):
        assert main(["peak", "--alpha", "1.5", "--beta", "0"]) == EXIT_ERROR
        capsys.readouterr()

    def test_peak_below_one_markdown(self, capsys):
        # N_c = sqrt(0.5 / 2) = 0.5; capacity is defined from N = 1
        assert main(["peak", "--alpha", "0.5", "--beta", "2"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "peak N: 0.5000\npractical N: 1\npeak capacity: 1.0000\nregime: retrograde\n")

    def test_peak_below_one_json(self, capsys):
        assert main(["peak", "--alpha", "0.5", "--beta", "2", "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["peak"] == {"n": 0.5, "practical_n": 1.0, "capacity": 1.0}


class TestPredictCommand:
    def test_json_values(self, capsys):
        rc = main(["predict", "--alpha", "0.0255", "--beta", "0.0210",
                   "--x1", "100", "--n", "4", "--format", "json"])
        assert rc == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["capacity"] == pytest.approx(3.0109145652992098, rel=1e-12)
        assert d["throughput"] == pytest.approx(301.09145652992095, rel=1e-12)
        assert d["efficiency"] == pytest.approx(3.0109145652992098 / 4.0, rel=1e-12)

    def test_markdown_line(self, capsys):
        rc = main(["predict", "--alpha", "0.0255", "--beta", "0.0210",
                   "--x1", "100", "--n", "4"])
        assert rc == EXIT_OK
        assert "throughput 301.0915" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,tail", [
        (["predict", "--alpha", "0.05", "--beta", "1e300", "--x1", "1", "--n", "1e200"],
         "capacity 0.0000, efficiency 0.0000, throughput 0.0000\n"),
        (["simulate", "--alpha", "0.05", "--beta", "1e300", "--levels", "1,2,1e19"],
         "2.0,1e-300\n1e+19,0.0\n"),
    ], ids=["predict", "simulate"])
    def test_overflowing_capacity_writes_nothing_to_stderr(self, capsys, argv, tail):
        # the denominator overflows to inf, whose limit is capacity 0; a numpy
        # warning on the way would raise here rather than reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and out.endswith(tail)


class TestCompareCommand:
    def test_two_point_files(self, data_dir, capsys):
        a = write_points(data_dir / "before.csv", model_pairs(0.05, 0.004, 100.0, [1, 2, 4, 8, 16]))
        b = write_points(data_dir / "after.csv", model_pairs(0.05, 0.002, 100.0, [1, 2, 4, 8, 16]))
        assert main(["compare", a, b, "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["scales_further"] == "b"
        assert "after.csv" in d["verdict"]
        assert d["delta"]["beta"] == pytest.approx(-0.002, abs=1e-8)

    def test_inputs_that_share_a_base_name_are_named_in_full(self, data_dir, capsys):
        (data_dir / "a").mkdir()
        (data_dir / "b").mkdir()
        a = write_points(data_dir / "a" / "p.csv", model_pairs(0.05, 0.004, 100.0, [1, 2, 4, 8]))
        b = write_points(data_dir / "b" / "p.csv", model_pairs(0.05, 0.002, 100.0, [1, 2, 4, 8]))
        assert main(["compare", a, b, "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert (d["a"]["name"], d["b"]["name"]) == (a, b)
        assert d["verdict"] == f"{b} peaks later and scales further"

    def test_saved_report_against_points(self, data_dir, clean_csv, capsys):
        assert main(["fit", clean_csv, "--format", "json"]) == EXIT_OK
        report = data_dir / "fit.json"
        report.write_text(capsys.readouterr().out)
        assert main(["compare", str(report), clean_csv, "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        # same data both ways round, so the peaks must coincide
        assert d["delta"]["peak_n"] == pytest.approx(0.0, abs=1e-6)

    def test_forced_report_of_invalid_points_compares(self, data_dir, capsys):
        invalid = write_points(data_dir / "invalid.csv", [(1, 100), (2, 250), (4, 330), (8, 560)])
        good = write_points(data_dir / "good.csv", [(1, 100), (2, 190), (4, 330), (8, 560)])
        assert main(["compare", invalid, good]) == EXIT_INVALID  # compare never forces
        capsys.readouterr()
        assert main(["fit", invalid, "--force", "--format", "json"]) == EXIT_OK
        saved = data_dir / "invalid.json"
        saved.write_text(capsys.readouterr().out)
        fit = json.loads(saved.read_text())["fit"]
        assert main(["compare", str(saved), good, "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert (d["a"]["name"], d["a"]["alpha"], d["a"]["beta"]) == (
            "invalid.json", fit["alpha"], fit["beta"])

    def test_directories_of_runs_compare_as_fit_reports_them(self, data_dir, capsys):
        fits = {}
        for name, p in (("before", UslParams(0.06, 0.0015)), ("after", UslParams(0.05, 0.001))):
            (data_dir / name).mkdir()
            for n in (1, 2, 4, 8, 16):
                write_series(data_dir / name / f"svc_N{n}.csv", _ramped(400.0 * usl_capacity(n, p)))
            assert main(["fit", str(data_dir / name), "--format", "json"]) == EXIT_OK
            fits[name] = json.loads(capsys.readouterr().out)["fit"]
        # a trailing separator, as shell completion writes it, keeps the directory's name
        argv = ["compare", f"{data_dir / 'before'}{os.sep}", str(data_dir / "after")]
        assert main([*argv, "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        for side, name in (("a", "before"), ("b", "after")):
            assert (d[side]["name"], d[side]["alpha"], d[side]["beta"]) == (
                name, fits[name]["alpha"], fits[name]["beta"])

    def test_both_unbounded(self, data_dir, capsys):
        a = write_points(data_dir / "a.csv", model_pairs(0.2, 0.0, 50.0, [1, 2, 4, 8, 16]))
        b = write_points(data_dir / "b.csv", model_pairs(0.3, 0.0, 50.0, [1, 2, 4, 8, 16]))
        assert main(["compare", a, b]) == EXIT_OK
        assert "both scale without a finite peak" in capsys.readouterr().out

    def test_a_pipe_in_a_file_name_is_escaped(self, data_dir, capsys):
        a = write_points(data_dir / "a|b.csv", model_pairs(0.05, 0.004, 100.0, [1, 2, 4, 8, 16]))
        b = write_points(data_dir / "c.csv", model_pairs(0.05, 0.002, 100.0, [1, 2, 4, 8, 16]))
        assert main(["compare", a, b]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "| quantity | a\\|b.csv | c.csv | delta (b-a) |"

    def test_garbage_json_exits_two(self, data_dir, capsys):
        bad = data_dir / "bad.json"
        bad.write_text("{\"not\": \"a report\"}")
        assert main(["compare", str(bad), str(bad)]) == EXIT_PARSE
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["alpha", "beta", "x1"])
    def test_report_missing_a_key_exits_two(self, data_dir, clean_csv, capsys, key):
        assert main(["fit", clean_csv, "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        del report["fit"][key]
        partial = data_dir / "partial.json"
        partial.write_text(json.dumps(report))
        assert main(["compare", str(partial), clean_csv]) == EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {partial}: not a saved fit report: '{key}'\n"

    @pytest.mark.parametrize("cut", [
        lambda r: r["fit"].pop("mode"),
        lambda r: r["fit"].pop("sse"),
        lambda r: r["fit"].pop("r_squared"),
        lambda r: r["fit"].pop("significance_warning"),
        lambda r: r.pop("residuals"),
        lambda r: r["residuals"][2].pop("modeled"),
    ], ids=["mode", "sse", "r_squared", "significance_warning", "residuals", "short-residual"])
    def test_report_missing_an_unread_key_compares_the_same(self, data_dir, clean_csv, capsys,
                                                            cut):
        # only fit.alpha, fit.beta and fit.x1 are read; the same file name in
        # two directories keeps the name columns equal
        assert main(["fit", clean_csv, "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        (data_dir / "whole").mkdir()
        (data_dir / "cut").mkdir()
        whole, partial = data_dir / "whole" / "fit.json", data_dir / "cut" / "fit.json"
        whole.write_text(json.dumps(report))
        cut(report)
        partial.write_text(json.dumps(report))
        assert main(["compare", str(whole), clean_csv]) == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["compare", str(partial), clean_csv]) == EXIT_OK
        assert capsys.readouterr() == (expected, "")


class TestSavedReportRoundTrip:
    """A saved report reads back as the coefficients it was written from."""

    @pytest.mark.parametrize("levels", [[1, 2, 4, 8, 16, 24, 32, 48], [2, 3, 4, 8, 16, 32, 48]],
                             ids=["baseline", "no-baseline"])
    def test_read_back_equals_fit_usl(self, data_dir, capsys, levels):
        points, saved = data_dir / "p.csv", data_dir / "fit.json"
        for seed in range(100):
            data = generate_synthetic(UslParams(0.05, 0.002, 100.0), levels, noise=0.03, seed=seed)
            cli.write_points_csv(str(points), ((p.n, p.x) for p in data.points))
            assert main(["fit", str(points), "--force", "--format", "json"]) == EXIT_OK
            saved.write_text(capsys.readouterr().out)
            _, back = cli._params_from_path(str(saved), None)  # a report reads no setting
            assert back == fit_usl(read_points_csv(str(points))).params, seed

    def test_overflowing_sse_is_null_and_reads_back_as_inf(self, data_dir, capsys):
        noisy = [(1, 100.0), (2, 190.0), (4, 330.0), (8, 560.0), (16, 700.0), (32, 720.0)]
        points = write_points(data_dir / "huge.csv", [(n, repr(x * 1e154)) for n, x in noisy])
        saved = data_dir / "fit.json"
        assert main(["fit", points, "--format", "json"]) == EXIT_OK
        text = capsys.readouterr().out
        d = json.loads(text, parse_constant=not_json)
        assert d["fit"]["sse"] is None and 0.99 < d["fit"]["r_squared"] < 1.0
        assert main(["fit", points]) == EXIT_OK
        assert "| sse | inf |" in capsys.readouterr().out
        saved.write_text(text)
        assert main(["compare", str(saved), points]) == EXIT_OK

    def test_null_r_squared_reads_back_as_nan(self, data_dir, capsys, clean_csv):
        assert main(["fit", clean_csv, "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        d["fit"]["r_squared"] = None
        assert "| r_squared | - |" in cli.render_fit_markdown(d)
        saved = data_dir / "fit.json"
        saved.write_text(json.dumps(d))
        assert main(["compare", str(saved), clean_csv]) == EXIT_OK


@pytest.mark.parametrize("argv, code, shown", [
    (["peak", "--alpha", "0", "--beta", "5e-324"], EXIT_OK, "peak N: 4.498913795e+161\n"),
    (["peak", "--alpha", "0.1", "--beta", "1e-200"], EXIT_OK, "peak N: 9.486832981e+99\n"),
    (["predict", "--alpha", "0", "--beta", "0", "--x1", "1e300", "--n", "10"], EXIT_OK,
     "throughput 1e+301\n"),
    (["validate", "{tiny}"], EXIT_INVALID, "- N=2: efficiency 5e+299 exceeds"),
    (["steady", "{flat}"], EXIT_OK, "mean throughput: 1e+300 (cv 0.0000)\n"),
], ids=["peak-subnormal-beta", "peak-tiny-beta", "predict", "validate", "steady"])
def test_a_number_from_2_to_the_53_prints_in_exponent_form(data_dir, capsys, argv, code, shown):
    # a fixed form would print every digit of the number, 18 and more
    files = {"tiny": write_points(data_dir / "tiny.csv", [(1, 1e-300), (2, 1), (4, 2)]),
             "flat": write_series(data_dir / "flat_N4.csv", [(i, 1e300) for i in range(60)])}
    assert main([a.format(**files) for a in argv]) == code
    out, err = capsys.readouterr()
    assert shown in out and err == ""
    assert not re.search(r"\d{18}", out)


def test_render_json_writes_every_inf_and_nan_as_null():
    report = {"a": math.inf, "b": [-math.inf, (math.nan, 1.5)],
              "c": {"d": (math.inf,), "e": None, "f": 2, "g": "inf"}}
    assert json.loads(cli.render_json(report), parse_constant=not_json) == {
        "a": None, "b": [None, [None, 1.5]], "c": {"d": [None], "e": None, "f": 2, "g": "inf"}}


class TestSimulateCommand:
    def test_model_mode_exact_values(self, data_dir, capsys):
        out = data_dir / "sim.csv"
        rc = main(["simulate", "--alpha", "0.1", "--beta", "0.004", "--x1", "100",
                   "--levels", "1,2,4,8", "--out", str(out)])
        assert rc == EXIT_OK
        d = read_points_csv(str(out))
        p = UslParams(0.1, 0.004)
        for point in d.points:
            assert point.x == 100.0 * usl_capacity(point.n, p)
        assert "# synthetic measurements (model:" in out.read_text()

    def test_queue_mode_coefficients_round_trip(self, data_dir, capsys):
        out = data_dir / "queue.csv"
        rc = main(["simulate", "--service", "1", "--think", "3",
                   "--levels", "1:8", "--out", str(out)])
        assert rc == EXIT_OK
        d = read_points_csv(str(out))
        # alpha = s/(s+z) = 0.25, x1 = 1/(s+z) = 0.25
        assert d.baseline.x == pytest.approx(0.25, rel=1e-15)
        p = UslParams(0.25, 0.0)
        for point in d.points:
            assert point.x == pytest.approx(0.25 * usl_capacity(point.n, p), rel=1e-15)

    def test_levels_range_with_step(self, capsys):
        rc = main(["simulate", "--alpha", "0", "--beta", "0", "--levels", "1:7:2"])
        assert rc == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert lines[0] == "n,x"
        assert [float(l.split(",")[0]) for l in lines[1:]] == [1.0, 3.0, 5.0, 7.0]

    def test_seeded_noise_is_reproducible(self, capsys):
        argv = ["simulate", "--alpha", "0.05", "--beta", "0.001", "--x1", "50",
                "--levels", "1,2,4,8", "--noise", "0.05", "--seed", "7"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_zero_think_time_rejected(self, capsys):
        rc = main(["simulate", "--service", "1", "--think", "0", "--levels", "1,2,4"])
        assert rc == EXIT_ERROR
        assert "think time 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--service", "0", "--think", "1"], "service time must be positive, got 0.0"),
        (["--service", "1", "--think", "nan"], "think time must be >= 0, got nan"),
        (["--service", "1", "--think", "-1"], "think time must be >= 0, got -1.0"),
        (["--service", "1", "--think", "1", "--coherency", "inf"],
         "coherency penalty must be finite, got inf"),
    ], ids=["zero-service", "nan-think", "negative-think", "inf-coherency"])
    def test_queue_values_get_the_queue_model_checks(self, capsys, flags, message):
        assert main(["simulate", *flags, "--levels", "1,2,4"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_mixing_modes_rejected(self, capsys):
        rc = main(["simulate", "--alpha", "0.1", "--beta", "0", "--service", "1",
                   "--think", "1", "--levels", "1,2"])
        assert rc == EXIT_ERROR
        capsys.readouterr()

    def test_bad_levels_rejected(self, capsys):
        rc = main(["simulate", "--alpha", "0.1", "--beta", "0", "--levels", "fast,slow"])
        assert rc == EXIT_ERROR
        capsys.readouterr()


def looped_range(start, stop, step):
    """The reference for ranges: add step to start until the sum passes stop."""
    levels = []
    v = start
    while v <= stop + 1e-9:
        levels.append(round(v, 9))
        v += step
    return levels


@st.composite
def level_ranges(draw):
    """The texts of start, stop and step, or of start and stop, of a range of at most
    1000 levels: whole numbers up to 10**6, or decimals up to 1000, where the sums of
    looped_range stay well within its 1e-9 slack."""
    places = draw(st.sampled_from([0, 1, 2, 3]))
    top = 10**6 if places == 0 else 1000 * 10**places  # in units of 10**-places
    step = draw(st.integers(1, top // 10))
    count = draw(st.integers(0, min(999, top // step - 1)))
    extra = draw(st.integers(0, step - 1))
    start = draw(st.integers(0, top - count * step - extra))
    texts = [str(Decimal(u).scaleb(-places)) for u in (start, start + count * step + extra, step)]
    if step == 10**places and draw(st.booleans()):
        texts.pop()
    return texts


class TestLevelRanges:
    @settings(max_examples=300, deadline=None)
    @given(texts=level_ranges())
    def test_closed_form_matches_the_stepping_loop(self, texts):
        start, stop, step = [*map(float, texts), 1.0][:3]
        assert cli._parse_levels(":".join(texts)) == looped_range(start, stop, step)

    def test_long_decimal_ranges_end_on_their_decimal_stop(self):
        # the loop's sums drift by more than its slack here: it ends the first
        # range short of 30811.2 and leaves 65274.2 out of the second
        assert cli._parse_levels("0:30811.2:33.6")[-1] == 30811.2
        assert looped_range(0.0, 30811.2, 33.6)[-1] == 30811.199999999
        levels = cli._parse_levels("0:65274.2:77.8")
        assert (len(levels), levels[-1]) == (840, 65274.2)
        assert len(looped_range(0.0, 65274.2, 77.8)) == 839

    def test_bound_and_levels_the_loop_could_not_step(self):
        assert len(cli._parse_levels("1:100000")) == 100_000
        assert cli._parse_levels("1e20:1e20") == [1e20]  # 1e20 + 1 == 1e20

    @pytest.mark.parametrize("spec", ["1:1e12", "1:100001", "1:2:1e-300", "1:inf", "-inf:1",
                                      "nan:1", "1:nan", "1:2:nan"])
    def test_ranges_past_the_bound_exit_one(self, capsys, spec):
        argv = ["simulate", "--alpha", "0.1", "--beta", "0.01", f"--levels={spec}"]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: bad level list {spec!r}: a range holds at most 100000 levels\n")


SRC = str(Path(cli.__file__).resolve().parents[1])


def run_in_c_locale(*argv, config=None):
    """uslkit in a fresh process whose locale encoding is ASCII: the C locale with
    locale coercion and UTF-8 mode off."""
    env = {k: v for k, v in os.environ.items() if k != "USLKIT_CONFIG"}
    env.update(LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    if config:
        env["USLKIT_CONFIG"] = config
    return subprocess.run([sys.executable, "-m", "uslkit", *argv], capture_output=True,
                          env=env, timeout=60)


class TestFileEncoding:
    def test_a_utf8_comment_reads_under_the_c_locale(self, data_dir):
        path = data_dir / "points.csv"
        path.write_bytes("# latency in µs\nn,x\n1,100\n2,190\n4,300\n".encode("utf-8"))
        proc = run_in_c_locale("validate", str(path))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert b"verdict: **clean**" in proc.stdout

    def test_a_utf8_config_reads_under_the_c_locale(self, data_dir, clean_csv):
        config = data_dir / "cfg.json"
        config.write_bytes('{"unit": "µs"}'.encode("utf-8"))
        proc = run_in_c_locale("fit", clean_csv, "--format", "json", config=str(config))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["unit"] == "µs"
        # a markdown report that ASCII cannot hold is an output that cannot be written
        proc = run_in_c_locale("fit", clean_csv, config=str(config))
        assert (proc.returncode, proc.stdout) == (EXIT_ERROR, b"")
        assert proc.stderr.startswith(b"error: 'ascii' codec can't encode character '\\xb5'")
        assert proc.stderr.count(b"\n") == 1


class TestSteadyCommand:
    def test_detected_window_json(self, data_dir, capsys):
        path = write_series(data_dir / "bench_N8.csv", plateau(8, 120.0))
        assert main(["steady", str(path), "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["load"] == 8.0
        assert d["mode"] == "detected"
        assert d["window"]["mean_throughput"] == 120.0
        assert d["window"]["samples"] == 60

    def test_load_flag_overrides_missing_suffix(self, data_dir, capsys):
        path = write_series(data_dir / "run.csv", plateau(0, 80.0))
        assert main(["steady", str(path)]) == EXIT_PARSE
        capsys.readouterr()
        assert main(["steady", str(path), "--load", "4"]) == EXIT_OK
        assert "load N=4 (detected)" in capsys.readouterr().out

    def test_trim_flags_switch_mode(self, data_dir, capsys):
        samples = [(0.0, 1.0), (10.0, 99.0)] + [(20.0 + 10 * i, 100.0) for i in range(6)]
        path = write_series(data_dir / "warm_N2.csv", samples)
        assert main(["steady", str(path), "--trim-up", "15", "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["mode"] == "trimmed"
        assert d["window"]["mean_throughput"] == 100.0

    def test_monotone_ramp_exits_five(self, data_dir, capsys):
        path = write_series(data_dir / "ramp_N2.csv", [(i * 5.0, 10.0 + 2.0 * i) for i in range(40)])
        assert main(["steady", str(path)]) == EXIT_NO_STEADY
        capsys.readouterr()

    def test_excessive_trim_exits_one(self, data_dir, capsys):
        path = write_series(data_dir / "short_N2.csv", plateau(2, 50.0, seconds=50))
        assert main(["steady", str(path), "--trim-up", "100"]) == EXIT_ERROR
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--trim-up", "--trim-down"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_trim_exits_one(self, data_dir, capsys, flag, value):
        path = write_series(data_dir / "short_N2.csv", plateau(2, 50.0, seconds=50))
        assert main(["steady", str(path), flag, value]) == EXIT_ERROR
        name, rule = flag[2:].replace("-", "_"), {"nan": ">= 0", "inf": "finite"}[value]
        assert capsys.readouterr().err == f"error: {name} must be {rule}, got {value}\n"

    def test_out_with_one_run_file_exits_one(self, data_dir, capsys):
        # refused before the input is read: the input here does not exist
        out = data_dir / "points.csv"
        assert main(["steady", str(data_dir / "absent_N4.csv"), "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: --out applies to a directory of runs, not to one run file\n")
        assert not out.exists()

    def test_directory_aggregation_to_csv(self, data_dir, capsys):
        runs = data_dir / "runs"
        runs.mkdir()
        for n, x in [(1, 100.0), (2, 190.0), (4, 350.0)]:
            write_series(runs / f"load_N{n}.csv", plateau(n, x))
        out = data_dir / "points.csv"
        assert main(["steady", str(runs), "--out", str(out)]) == EXIT_OK
        d = read_points_csv(str(out))
        assert list(d.ns) == [1.0, 2.0, 4.0]
        assert list(d.xs) == [100.0, 190.0, 350.0]
        assert "# steady-state means per load level" in out.read_text()

    def test_manifest_names_runs(self, data_dir, capsys):
        runs = data_dir / "runs"
        runs.mkdir()
        write_series(runs / "one.csv", plateau(1, 100.0))
        write_series(runs / "two.csv", plateau(2, 180.0))
        (runs / "manifest.csv").write_text("file,n\none.csv,1\ntwo.csv,2\n")
        out = data_dir / "agg.csv"
        assert main(["steady", str(runs), "--out", str(out)]) == EXIT_OK
        d = read_points_csv(str(out))
        assert list(d.xs) == [100.0, 180.0]

    def test_unsuffixed_file_without_manifest_is_an_error(self, data_dir, capsys):
        runs = data_dir / "runs"
        runs.mkdir()
        write_series(runs / "mystery.csv", plateau(1, 100.0))
        assert main(["steady", str(runs)]) == EXIT_PARSE
        capsys.readouterr()


class TestConfigFile:
    def test_config_sets_defaults(self, data_dir, suspect_csv, monkeypatch, capsys):
        cfg = data_dir / "cfg.json"
        cfg.write_text(json.dumps({"format": "json", "tolerance": 0.2}))
        monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
        # 20% slack lets the suspect table through; format comes from config
        assert main(["validate", suspect_csv]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["verdict"] == "clean"

    def test_flags_override_config(self, data_dir, suspect_csv, monkeypatch, capsys):
        cfg = data_dir / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 0.2}))
        monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
        assert main(["validate", suspect_csv, "--tolerance", "0.005"]) == EXIT_INVALID
        capsys.readouterr()

    def test_compare_fits_points_with_the_configured_options(self, data_dir, monkeypatch, capsys):
        # noisy enough that raw3 and normalized fits differ
        pairs = [(1, 100.0), (2, 190.0), (4, 330.0), (8, 560.0), (16, 700.0), (32, 720.0)]
        points = write_points(data_dir / "p.csv", pairs)
        cfg = data_dir / "cfg.json"
        cfg.write_text(json.dumps({"mode": "raw3"}))
        monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
        assert main(["fit", points, "--format", "json"]) == EXIT_OK
        fit = json.loads(capsys.readouterr().out)["fit"]
        assert fit["mode"] == "raw-throughput-3param"
        assert main(["compare", points, points, "--format", "json"]) == EXIT_OK
        cmp = json.loads(capsys.readouterr().out)
        assert (cmp["a"]["alpha"], cmp["a"]["beta"]) == (fit["alpha"], fit["beta"])

    def test_unknown_key_exits_two(self, data_dir, clean_csv, monkeypatch, capsys):
        cfg = data_dir / "cfg.json"
        cfg.write_text(json.dumps({"tollerance": 0.2}))
        monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
        assert main(["validate", clean_csv]) == EXIT_PARSE
        assert "unknown config keys" in capsys.readouterr().err

    def test_invalid_json_exits_two(self, data_dir, clean_csv, monkeypatch, capsys):
        cfg = data_dir / "cfg.json"
        cfg.write_text("{not json")
        monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
        assert main(["validate", clean_csv]) == EXIT_PARSE
        capsys.readouterr()

    @pytest.mark.parametrize("text,message", [
        ("5", "config must be a JSON object, got 5"),
        ("null", "config must be a JSON object, got null"),
        ('{"refine_tol": "1e-3"}', "config key 'refine_tol' must be a number, got \"1e-3\""),
        ('{"tolerance": null}', "config key 'tolerance' must be a number, got null"),
        ('{"seed": 1.5}', "config key 'seed' must be an integer, got 1.5"),
        ('{"seed": true}', "config key 'seed' must be an integer, got true"),
        ('{"beta_max": true}', "config key 'beta_max' must be a number, got true"),
        ('{"mode": 3}', "config key 'mode' must be a string, got 3"),
        ('{"unit": 3}', "config key 'unit' must be a string or null, got 3"),
        ('{"trim_up": "5"}', "config key 'trim_up' must be a number or null, got \"5\""),
    ], ids=["number", "null", "string-for-float", "null-for-float", "float-for-seed",
            "bool-for-seed", "bool-for-float", "number-for-string", "number-for-unit",
            "string-for-trim"])
    def test_mistyped_config_exits_two(self, data_dir, clean_csv, monkeypatch, capsys,
                                       text, message):
        cfg = data_dir / "cfg.json"
        cfg.write_text(text)
        monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
        assert main(["validate", clean_csv]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    @pytest.mark.parametrize("text,message", [
        ('{"tolerance": 0}', "tolerance must be positive, got 0"),
        ('{"refine_tol": -1e-3}', "refine_tol must be in (0, 1), got -0.001"),
        ('{"format": "yaml"}', "config key 'format' must be one of ['json', 'markdown'], "
                               "got \"yaml\""),
        ('{"mode": "lsq"}', "config key 'mode' must be one of ['auto', 'normalized', 'raw3'], "
                            "got \"lsq\""),
    ], ids=["zero-tolerance", "negative-refine-tol", "unknown-format", "unknown-mode"])
    def test_out_of_range_config_exits_two(self, data_dir, clean_csv, monkeypatch, capsys,
                                           text, message):
        cfg = data_dir / "cfg.json"
        cfg.write_text(text)
        monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
        assert main(["validate", clean_csv]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    @pytest.mark.parametrize("name", [k for k, s in cli._SETTINGS.items() if s[3]])
    def test_a_value_outside_the_choices_exits_two(self, data_dir, clean_csv, monkeypatch,
                                                   capsys, name):
        cfg = data_dir / "cfg.json"
        cfg.write_text(json.dumps({name: "no such choice"}))
        monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
        assert main(["validate", clean_csv]) == EXIT_PARSE
        choices = list(cli._SETTINGS[name][3])
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key {name!r} must be one of {choices}, got \"no such choice\"\n")

    def test_mistyped_seed_exits_two_before_simulating(self, data_dir, monkeypatch, capsys):
        cfg = data_dir / "cfg.json"
        cfg.write_text('{"seed": 1.5}')
        monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
        out = data_dir / "sim.csv"
        rc = main(["simulate", "--alpha", "0.05", "--beta", "0.001", "--x1", "100",
                   "--levels", "1,2,4,8", "--out", str(out)])
        assert rc == EXIT_PARSE
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {cfg}: config key 'seed'")

    def test_config_accepts_ints_for_floats_and_nulls_for_optionals(
            self, data_dir, suspect_csv, monkeypatch, capsys):
        cfg = data_dir / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 1, "seed": 3, "trim_up": None, "unit": None,
                                   "format": "json"}))
        monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
        assert main(["validate", suspect_csv]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"] == "clean"

    def test_missing_config_file_exits_two(self, data_dir, clean_csv, monkeypatch, capsys):
        monkeypatch.setenv("USLKIT_CONFIG", str(data_dir / "absent.json"))
        assert main(["validate", clean_csv]) == EXIT_PARSE
        capsys.readouterr()


def _drifting(step=0.02, wobble=0.2):
    """120 samples climbing by step per second about a mean of 100, with a fixed wobble."""
    return [(float(i), 100.0 + step * i + ((i * 37) % 11 - 5) * wobble) for i in range(120)]


def _ramped(mean=300.0):
    """120 samples, ramping up over the first 20, then wobbling by 1% about mean."""
    return [(float(i), (mean * (0.2 + 0.04 * i) if i < 20 else mean)
             + ((i * 37) % 11 - 5) * 0.002 * mean) for i in range(120)]


def bad_trims(name):
    return [(-1.0, f"{name} must be >= 0, got -1.0"), (math.nan, f"{name} must be >= 0, got nan"),
            (math.inf, f"{name} must be finite, got inf")]

# setting -> (command line, config value, flag that overrides it or None,
# out-of-range values with the message of the check that refuses them);
# {name} stands for the input file of that name
SETTINGS = {
    "tolerance": (["validate", "{suspect}"], 0.2, ["--tolerance", "0.005"],
                  [(-1.0, "tolerance must be positive, got -1.0"),
                   (math.nan, "tolerance must be positive, got nan"),
                   (math.inf, "tolerance must be finite, got inf")]),
    "mode": (["fit", "{noisy}", "--format", "json"], "raw3", ["--mode", "normalized"], []),
    "beta_max": (["fit", "{clean}", "--format", "json"], 0.001, ["--beta-max", "1"],
                 [(0.0, "beta_max must be positive, got 0.0")]),
    "refine_tol": (["fit", "{noisy}", "--format", "json"], 0.5, None,
                   [(math.nan, "refine_tol must be in (0, 1), got nan"),
                    (1.0, "refine_tol must be in (0, 1), got 1.0"),
                    (math.inf, "refine_tol must be in (0, 1), got inf")]),
    "slope_tol": (["steady", "{drift}"], 0.05, ["--slope-tol", "0.001"],
                  [(-0.1, "slope_tol must be positive, got -0.1")]),
    "cv_max": (["steady", "{ramped}"], 0.001, ["--cv-max", "0.5"],
               [(0.0, "cv_max must be positive, got 0.0")]),
    "min_fraction": (["steady", "{ramped}"], 0.95, ["--min-fraction", "0.5"],
                     [(2.0, "min_fraction must be in (0, 1], got 2.0")]),
    "trim_up": (["steady", "{ramped}", "--format", "json"], 25, ["--trim-up", "10"],
                bad_trims("trim_up")),
    "trim_down": (["steady", "{ramped}", "--format", "json"], 10, ["--trim-down", "5"],
                  bad_trims("trim_down")),
    "seed": (["simulate", "--alpha", "0.05", "--beta", "0.001", "--levels", "1,2,4",
              "--noise", "0.05"], 3, ["--seed", "7"], [(-1, "seed must be an integer >= 0, got -1")]),
    "unit": (["fit", "{clean}"], "req/s", ["--unit", "ops"], []),
}
OUT_OF_RANGE = [(field, value, message) for field, (*_, bad) in sorted(SETTINGS.items())
                for value, message in bad]


class TestSettings:
    """Each setting comes from its flag when one is given, else from the config."""

    def test_every_setting_is_covered(self):
        # format has no row: TestConfigFile and the golden files cover it
        assert set(SETTINGS) | {"format"} == set(cli._SETTINGS)

    @pytest.mark.parametrize("field", sorted(SETTINGS))
    def test_config_sets_it_and_the_flag_overrides(self, data_dir, clean_csv, suspect_csv,
                                                   monkeypatch, capsys, field):
        argv, value, flag, _ = SETTINGS[field]
        files = {
            "clean": clean_csv,
            "suspect": suspect_csv,
            "noisy": write_points(data_dir / "noisy.csv", [
                (1, 100.0), (2, 190.0), (4, 330.0), (8, 560.0), (16, 700.0), (32, 720.0)]),
            "drift": write_series(data_dir / "drift_N2.csv", _drifting()),
            "ramped": write_series(data_dir / "ramped_N4.csv", _ramped()),
        }
        argv = [a.format(**files) for a in argv]
        cfg = data_dir / "cfg.json"
        cfg.write_text(json.dumps({field: value}))

        def run(extra, configured):
            if configured:
                monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
            else:
                monkeypatch.delenv("USLKIT_CONFIG", raising=False)
            rc = main(argv + extra)
            out = capsys.readouterr()
            return rc, out.out, out.err

        from_config = run([], True)
        assert from_config != run([], False)
        if flag is not None:
            from_flag = run(flag, False)
            assert from_flag != from_config
            assert run(flag, True) == from_flag

    @pytest.mark.parametrize("field,value,message", OUT_OF_RANGE,
                             ids=[f"{f}={v}" for f, v, _ in OUT_OF_RANGE])
    def test_out_of_range_flag_and_config_get_the_same_check(self, data_dir, clean_csv,
                                                             monkeypatch, capsys, field,
                                                             value, message):
        argv, _, flag, _ = SETTINGS[field]
        if flag is not None:
            # checked before the input is read: the input here does not exist
            absent = str(data_dir / "absent_N4.csv")
            cmd = [absent if a.startswith("{") else a for a in argv]
            assert main(cmd + [flag[0], str(value)]) == EXIT_ERROR
            assert capsys.readouterr().err == f"error: {message}\n"
        cfg = data_dir / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        monkeypatch.setenv("USLKIT_CONFIG", str(cfg))
        ramped = write_series(data_dir / "ramped_N4.csv", _ramped())
        for cmd in (["validate", clean_csv], ["peak", "--alpha", "0.0255", "--beta", "0.021"],
                    ["steady", ramped]):
            assert main(cmd) == EXIT_PARSE
            assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


class TestPipelines:
    def test_simulate_fit_round_trip(self, data_dir, capsys):
        sim = data_dir / "sim.csv"
        rc = main(["simulate", "--alpha", "0.08", "--beta", "0.003", "--x1", "250",
                   "--levels", "1,2,4,8,16,32", "--out", str(sim)])
        assert rc == EXIT_OK
        assert main(["fit", str(sim), "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["fit"]["alpha"] == pytest.approx(0.08, abs=1e-8)
        assert d["fit"]["beta"] == pytest.approx(0.003, abs=1e-8)

    def test_steady_then_fit(self, data_dir, capsys):
        runs = data_dir / "runs"
        runs.mkdir()
        p = UslParams(0.06, 0.0015)
        for n in (1, 2, 4, 8, 16):
            write_series(runs / f"svc_N{n}.csv", plateau(n, 400.0 * usl_capacity(n, p)))
        agg = data_dir / "agg.csv"
        assert main(["steady", str(runs), "--out", str(agg)]) == EXIT_OK
        assert main(["fit", str(agg), "--format", "json"]) == EXIT_OK
        d = json.loads(capsys.readouterr().out)
        assert d["fit"]["alpha"] == pytest.approx(0.06, abs=1e-8)
        assert d["fit"]["beta"] == pytest.approx(0.0015, abs=1e-8)
        assert d["fit"]["x1"] == pytest.approx(400.0, rel=1e-12)
