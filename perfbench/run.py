"""Seeded benchmark for uslkit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fit-corpus --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn, each in its own process.

Workloads (see BENCHMARK.json for why each was chosen):

* runs-to-fit  ``uslkit fit <dir> --format json`` as a fresh process on 16
               ramped time-series runs;
* fit-corpus   validate, fit, evaluate, profile and sample the curve of each
               dataset in a seeded corpus of 1000 point datasets;
* bootstrap    200-replicate ``bootstrap_confidence`` on a normalized and a
               raw3 dataset, alternately.

Each is a closed loop with one caller in one process.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` installs span wrappers around every
layer's public functions, alternates untraced and traced operations, and
prints the per-layer metrics.  Outputs are checked in both modes; the exit
code is 1 when a check fails and 2 when the checkout has no uslkit sources.
The last line of stdout is the result as one JSON object.  Raw samples,
the environment and, when traced, the spans go to perfbench/out/.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads; children inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("USLKIT_CONFIG", None)   # the package defaults, always

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7


def measure_setup() -> list[float]:
    """Fresh-interpreter wall times of ``import uslkit, uslkit.cli``.

    One unmeasured import goes first, so that every measured one finds the
    same bytecode caches (written unless PYTHONDONTWRITEBYTECODE is set).
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import uslkit, uslkit.cli"]
    subprocess.run(cmd, env=env, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


class Loop:
    """Closed loop with one caller: the next operation starts when one returns.

    It stops at the first cycle boundary after the deadline (a bootstrap
    cycle is one call per dataset), and not before the workload's minimum
    number of operations.
    """

    def __init__(self, workload, seconds: float) -> None:
        self.w = workload
        self.seconds = seconds
        self.times: list[float] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _one(self, op, i):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op(i)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        t = time.perf_counter() - t0
        self.errors += self.w.check(i, out)
        return t

    def _more(self, i: int, deadline: float) -> bool:
        return i < self.w.min_ops or i % self.w.cycle != 0 or time.perf_counter() < deadline

    def run(self, op) -> None:
        deadline = time.perf_counter() + self.seconds
        i = 0
        while self._more(i, deadline):
            t = self._one(op, i)
            if t is not None:
                self.times.append(t)
            i += 1

    def run_traced(self, op, tracer) -> list[float]:
        """Each operation untraced, then traced; returns traced/untraced ratios."""
        deadline = time.perf_counter() + self.seconds
        ratios = []
        i = 0
        while self._more(i, deadline):
            t_u = self._one(op, i)
            t_t = self._one(lambda k: tracer.run_op(k, op, k), i)
            if t_u is not None and t_t is not None:
                self.times.append(t_u)
                ratios.append(t_t / t_u)
            i += 1
        return ratios


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
        "seed": seed,
    }


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


WORKLOAD_NAMES = ("runs-to-fit", "fit-corpus", "bootstrap")


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter.

    Prints each run's output, then one JSON line with each run's result.
    """
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark for uslkit.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    if not os.path.isfile(os.path.join(SRC, "uslkit", "__init__.py")):
        sys.stderr.write(f"perfbench: no uslkit sources under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    sys.path[:0] = [SRC, HERE]
    import uslkit

    if os.path.dirname(os.path.abspath(uslkit.__file__)) != os.path.join(SRC, "uslkit"):
        sys.stderr.write(f"perfbench: imported uslkit from {uslkit.__file__}, not {SRC}\n")
        return 2
    import spans
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = environment(args.seed)
    seed = args.seed % 2**64   # the generators take non-negative seeds
    setup = measure_setup()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tracer = None
    try:
        w = workloads.WORKLOADS[args.workload](seed, workdir, SRC)
        loop = Loop(w, args.seconds)
        if args.trace:
            tracer = spans.Tracer()
            ratios = loop.run_traced(getattr(w, "op_in_process", w.op), tracer)
        else:
            loop.run(w.op)
            rss = w.peak_rss_mb()   # before the reference work in w.report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not loop.times:
        sys.stderr.write("perfbench: every operation failed\n")
        return 1

    # outside the timed region
    out_digest, errors = w.finish(spans.windows(tracer) if tracer else [])
    out_digest = digest(out_digest)
    loop.errors += errors
    if args.trace:
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        notes = {"trace.overhead_frac": f"median traced/untraced ratio over {len(ratios)} pairs, minus 1"}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(loop.times) / sum(loop.times),
            "peak_rss_mb": rss,
        }
        notes = {"setup_s": f"median of {len(setup)} fresh imports",
                 "ops_per_s": f"{len(loop.times)} operations over their summed wall time"}
    if set(metrics) != set(declared):
        sys.stderr.write(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
                         "do not match BENCHMARK.json\n")
        return 1
    correct = not loop.errors and loop.failed == 0

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# output digest sha256:{out_digest}")
    for e in loop.errors[:20]:
        print(f"# CHECK FAILED: {e}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "digest": out_digest,
              "setup_samples_s": setup, "op_samples_s": loop.times,
              "attempted": loop.attempted, "failed": loop.failed, "errors": loop.errors[:50],
              "metrics": metrics}
    if args.trace:
        record["spans"] = tracer.to_records()
        print(f"# per-layer metrics, per operation, over {len(ratios)} traced operations:")
    else:
        report = {"error_frac": (loop.failed / loop.attempted, "ratio",
                                 f"{loop.failed} of {loop.attempted} operations failed"),
                  **w.report(loop.times)}
        record["report"] = report
        print("# workload metrics:")
        for name, (v, unit, note) in report.items():
            print(f"#   {name} = {v:.6g} {unit}, {'higher' if name.endswith('_per_s') else 'lower'}"
                  f" is better ({note})")
        print("# end-to-end metrics:")
    for name, v in metrics.items():
        m = declared[name]
        note = f" ({notes[name]})" if name in notes else ""
        print(f"#   {name} = {v:.6g} {m['unit']}, {m['better']} is better{note}")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(OUT, f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(f"# raw samples: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": declared[k]["unit"]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
