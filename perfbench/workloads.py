"""The three workloads: inputs, one operation, output checks and metrics.

The benchmark calls each layer through the module that defines it
(``fitting.fit_usl``, not a name bound at import), so the run-time span
wrappers see every call.  A workload keeps only what its checks, metrics
and digest need, so its memory does not grow with the number of
operations a run completes.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys

import numpy as np

import uslkit.cli
from uslkit import fitting, model, queueing, timeseries, validation

import inputs
from reference import reference_optimum

BETA_MAX = fitting.FitOptions().beta_max


class OperationFailed(Exception):
    """An operation exited non-zero."""


def _finite(*vs) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in vs)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(xs) -> float:
    return float(statistics.median(xs))


# ------------------------------------------------------------------ runs-to-fit

class RunsToFit:
    """``uslkit fit <dir> --format json`` on 16 ramped time-series runs.

    The timed operation is a fresh process, as a user runs it.  The traced
    run calls ``uslkit.cli.main`` in-process instead, so the wrappers see it.
    """

    name = "runs-to-fit"
    min_ops = 3
    cycle = 1

    def __init__(self, seed: int, workdir: str, src: str) -> None:
        self.runs = inputs.run_series(seed)
        self.workdir = workdir
        self.rundir = os.path.join(workdir, "runs")
        os.makedirs(self.rundir)
        inputs.write_runs(self.rundir, self.runs)
        self.argv = ["fit", self.rundir, "--format", "json"]
        self.env = dict(os.environ, PYTHONPATH=src)
        self.report_json = None
        self.child_rss_mb = []

    def op(self, i: int):
        """One fresh process; returns (stdout, child peak RSS in MB)."""
        out_path = os.path.join(self.workdir, "stdout.json")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "uslkit", *self.argv],
                                    stdout=out, stderr=err, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        rc = os.waitstatus_to_exitcode(status)
        if rc != 0:
            with open(err_path) as fh:
                raise OperationFailed(f"uslkit fit exited {rc}: {fh.read().strip()}")
        with open(out_path) as fh:
            return fh.read(), usage.ru_maxrss / 1024.0

    def op_in_process(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = uslkit.cli.main(self.argv)
        if rc != 0:
            raise OperationFailed(f"uslkit.cli.main returned {rc}")
        return buf.getvalue(), None

    def check(self, i: int, out) -> list[str]:
        text, rss = out
        if rss is not None:
            self.child_rss_mb.append(rss)
        try:
            report = json.loads(text)
            fit = report["fit"]
            alpha, beta, x1 = fit["alpha"], fit["beta"], fit["x1"]
            levels = [r["n"] for r in report["residuals"]]
        except (ValueError, KeyError, TypeError) as e:
            return [f"report is not the expected JSON: {e}"]
        errors = []
        if not _finite(alpha, beta, x1):
            errors.append(f"non-finite fit {alpha!r}, {beta!r}, {x1!r}")
        if levels != [float(n) for n in inputs.RUN_LEVELS]:
            errors.append(f"report covers levels {levels}")
        if self.report_json is None:
            self.report_json = report
        elif (report["fit"], report["residuals"]) != (self.report_json["fit"], self.report_json["residuals"]):
            errors.append("report differs from the first invocation")
        return errors

    def _measured(self) -> dict:
        return {r["n"]: r["measured"] for r in self.report_json["residuals"]}

    def finish(self, traced_windows):
        """Output digest, and the windows check, outside the timed region.

        Untraced, the windows come from running the detection in-process on
        the same samples, which must reproduce the reported means exactly.
        """
        if self.report_json is None:
            return None, ["no invocation printed a parsable report"]
        errors = []
        windows = traced_windows[:len(self.runs)]
        if not windows:
            measured = self._measured()
            for load, _, times, values in self.runs:
                run = timeseries.RunSeries(load, tuple(zip(times.tolist(), values.tolist())))
                w = timeseries.extract_steady_state(run)
                windows.append([load, w.start, w.end])
                if w.mean_throughput != measured.get(load):
                    errors.append(f"N={load:g}: in-process mean {w.mean_throughput!r} "
                                  f"!= reported {measured.get(load)!r}")
        f = self.report_json["fit"]
        return {"fit": [f["alpha"], f["beta"], f["x1"]], "windows": sorted(windows)}, errors

    def peak_rss_mb(self) -> float:
        return median(self.child_rss_mb)

    def report(self, times) -> dict:
        if self.report_json is None:
            return {}
        measured = self._measured()
        bias = float(np.mean([abs(measured[load] - plateau) / plateau
                              for load, plateau, _, _ in self.runs]))
        return {
            "pipeline_s": (median(times), "s", f"median of {len(times)} invocations"),
            "steady_bias_pct": (100.0 * bias, "%",
                                "mean |measured - plateau| / plateau over the 16 levels"),
        }


# ------------------------------------------------------------------ fit-corpus

class FitCorpus:
    """The analysis a user runs on one point dataset, over a seeded corpus."""

    name = "fit-corpus"
    cycle = 1

    def __init__(self, seed: int, workdir: str, src: str) -> None:
        self.items = inputs.corpus(seed)
        self.min_ops = len(self.items)
        self.first = [None] * len(self.items)   # (xs, fit) from the first pass

    def op(self, i: int):
        kind, ns, xs, queue = self.items[i % len(self.items)]
        raw = None
        if queue is not None:
            s, z, mult = queue
            raw = np.array([queueing.mva_solve(queueing.QueueParams(int(n), s, z)).x for n in ns])
            xs = raw * mult
        dataset = fitting.Dataset(inputs.to_points(ns, xs))
        if dataset.has_baseline and dataset.baseline.x > 0.0:
            validation.validate_dataset(dataset)
        fit = fitting.fit_usl(dataset)       # fits whatever the verdict, as --force does
        diag = fitting.evaluate_fit(fit, dataset)
        validation.monotonicity_profile(dataset)
        model.scalability_curve(fit.params, float(ns.max()), 50)
        model.peak_concurrency(fit.params)
        model.practical_peak(fit.params)
        model.classify_regime(fit.params)
        return xs, raw, fit, diag

    def check(self, i: int, out) -> list[str]:
        k = i % len(self.items)
        kind, ns, _, queue = self.items[k]
        xs, raw, fit, diag = out
        p = fit.params
        errors = []
        if abs(diag.sse - fit.sse) > 1e-9 * max(diag.sse, fit.sse) + 1e-15 * float(np.dot(xs, xs)):
            errors.append(f"stored sse {fit.sse!r} != plain-loop sse {diag.sse!r}")
        if not (0.0 <= p.alpha < 1.0 and 0.0 <= p.beta <= BETA_MAX):
            errors.append(f"(alpha, beta) = ({p.alpha!r}, {p.beta!r}) outside the box")
        if not (_finite(p.x1) and p.x1 > 0.0):
            errors.append(f"x1 = {p.x1!r}")
        if queue is not None:
            s, z, _ = queue
            for n, x in zip(ns, raw):
                # the exact solution lies between the synchronous bound and
                # the asymptotic bounds n / (s + z) and 1 / s
                lo, hi = n / (n * s + z), min(n / (s + z), 1.0 / s)
                if not (lo * (1 - 1e-12) <= x <= hi * (1 + 1e-12)):
                    errors.append(f"queue N={n:g}: X={x!r} outside [{lo!r}, {hi!r}]")
        if self.first[k] is None:
            self.first[k] = (xs, fit)
        elif self.first[k][1] != fit:
            errors.append("fit differs from the first pass")
        return [f"dataset {k} ({kind}): {e}" for e in errors]

    def finish(self, traced_windows):
        return {"fits": [[f.params.alpha, f.params.beta, f.params.x1] for _, f in self.first]}, []

    def suboptimal(self) -> list:
        """Fits whose sse exceeds the reference optimum by more than a relative 1e-6.

        The reference sse is floored at 1e-12 of sum(x^2), so that exact fits
        of noiseless data compare on a meaningful scale.
        """
        bad = []
        for k, (kind, ns, _, _) in enumerate(self.items):
            xs, fit = self.first[k]
            pin = fit.params.x1 if fit.mode == fitting.MODE_NORMALIZED else None
            ref = reference_optimum(ns, xs, pin, BETA_MAX)[3]
            if fit.sse - ref > 1e-6 * max(ref, 1e-12 * float(np.dot(xs, xs))):
                bad.append(k)
        return bad

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def report(self, times) -> dict:
        bad = self.suboptimal()
        by_kind = collections.Counter(self.items[k][0] for k in bad)
        ms = np.array(times) * 1e3
        p99 = float(np.percentile(ms, 99))
        return {
            "datasets_per_s": (ms.size / (ms.sum() / 1e3), "1/s", "analyses over their summed wall time"),
            "analysis_p50_ms": (float(np.median(ms)), "ms", f"median of {ms.size} analyses"),
            # a run analyses the whole 1000-dataset corpus at least once, so
            # p99 always has at least 10 samples beyond it
            "analysis_tail_ms": (p99, "ms", f"p99 of {ms.size} analyses, {int((ms > p99).sum())} beyond"),
            "fit_suboptimal_frac": (len(bad) / len(self.items), "ratio",
                                    f"{len(bad)} of {len(self.items)} fits above the reference optimum; "
                                    + ", ".join(f"{k} {n}" for k, n in sorted(by_kind.items()))),
        }


# ------------------------------------------------------------------- bootstrap

class Bootstrap:
    """200-replicate bootstrap on a normalized and a raw3 dataset, alternately."""

    name = "bootstrap"
    min_ops = 2
    cycle = 2     # one call on each dataset

    def __init__(self, seed: int, workdir: str, src: str) -> None:
        self.seed = seed
        self.datasets = [(name, fitting.Dataset(inputs.to_points(ns, xs)))
                         for name, ns, xs in inputs.bootstrap_datasets(seed)]
        self.first = {}

    def op(self, i: int):
        _, dataset = self.datasets[i % len(self.datasets)]
        return fitting.bootstrap_confidence(dataset, replicates=inputs.BOOT_REPLICATES,
                                            seed=self.seed)

    def check(self, i: int, out) -> list[str]:
        name, _ = self.datasets[i % len(self.datasets)]
        box = {"alpha": (0.0, 1.0), "beta": (0.0, BETA_MAX), "x1": (0.0, math.inf)}
        errors = []
        for q, (lo_box, hi_box) in box.items():
            lo, hi = getattr(out, f"{q}_interval")
            if not (_finite(lo, hi) and lo <= hi):
                errors.append(f"{q} interval ({lo!r}, {hi!r}) is not ordered")
            elif not (lo_box <= lo and hi <= hi_box) or (q == "x1" and lo <= 0.0):
                errors.append(f"{q} interval ({lo!r}, {hi!r}) leaves the box")
        if out.replicates != inputs.BOOT_REPLICATES:
            errors.append(f"{out.replicates} replicates")
        if name not in self.first:
            self.first[name] = out
        elif self.first[name] != out:
            errors.append("intervals differ from the first call on this dataset")
        return [f"{name}: {e}" for e in errors]

    def finish(self, traced_windows):
        return {name: [list(r.alpha_interval), list(r.beta_interval), list(r.x1_interval)]
                for name, r in self.first.items()}, []

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def report(self, times) -> dict:
        per = [median(times[j::self.cycle]) for j in range(self.cycle)]
        return {"bootstrap_s": (float(np.mean(per)), "s",
                                f"mean of per-dataset medians over {len(times)} calls: "
                                + ", ".join(f"{n} {t:.4f} s" for (n, _), t in zip(self.datasets, per)))}


WORKLOADS = {w.name: w for w in (RunsToFit, FitCorpus, Bootstrap)}
