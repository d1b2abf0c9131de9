"""
From raw time series to fittable points
=======================================

Load-test runs are trapezoids: ramp up, plateau, ramp down.  Feeding
whole-run averages into a fit drags every point down by the ramps.
This script detects the plateau automatically on one run, then reduces
a batch of runs (one per load level) to a dataset and fits it.  Detection
cuts the ramps off both ends by MSER truncation (the cut that minimizes
the kept samples' squared deviations over their count squared), then
checks the kept window against the cv, drift and duration bounds.
"""

import numpy as np

from uslkit import (
    RunSeries,
    SteadyStateConfig,
    UslParams,
    aggregate_runs,
    extract_steady_state,
    fit_usl,
    usl_capacity,
)

rng = np.random.default_rng(42)


def record_run(load, mean, ramp=30.0, plateau=300.0, step=5.0, noise=0.03):
    # what a metrics scraper would hand back for one run
    samples = []
    t = 0.0
    total = 2 * ramp + plateau
    while t <= total:
        if t < ramp:
            x = mean * t / ramp
        elif t <= ramp + plateau:
            x = mean * (1.0 + rng.normal(0.0, noise))
        else:
            x = mean * max(0.0, (total - t) / ramp)
        samples.append((t, max(x, 0.0)))
        t += step
    return RunSeries(load=load, samples=tuple(samples))


# one run, inspected closely
run = record_run(load=16, mean=5000.0)
whole_run_mean = float(np.mean([x for _, x in run.samples]))
window = extract_steady_state(run, SteadyStateConfig(cv_max=0.05))
print(f"whole-run mean: {whole_run_mean:.0f} ops/s (ramps included)")
print(f"detected window: [{window.start:.0f}s, {window.end:.0f}s], "
      f"{window.sample_count} samples")
print(f"steady mean: {window.mean_throughput:.0f} ops/s (cv {window.cv:.3f})")
print(f"the ramps were costing {1 - whole_run_mean / window.mean_throughput:.1%}")

# a full sweep: one run per load level, all reduced at once
truth = UslParams(0.04, 0.0008, x1=980.0)
levels = [1, 2, 4, 8, 16, 32, 64]
runs = [record_run(n, 980.0 * usl_capacity(n, truth)) for n in levels]
dataset = aggregate_runs(runs, SteadyStateConfig(cv_max=0.05))

print("\n   N  steady mean      cv")
for p in dataset.points:
    print(f"{p.n:4.0f}  {p.x:11.1f}  {p.meta['cv']:.4f}")

fit = fit_usl(dataset)
print(f"\nfit: alpha {fit.params.alpha:.5f} (true {truth.alpha}), "
      f"beta {fit.params.beta:.6f} (true {truth.beta})")
print(f"peak at N = {fit.peak:.0f}")

# explicit trims are there for runs whose shape the detector cannot see
w2 = extract_steady_state(run, SteadyStateConfig(trim=(45.0, 45.0)))
print(f"\nsame run with fixed 45s trims: mean {w2.mean_throughput:.0f} ops/s "
      f"(detector said {window.mean_throughput:.0f})")
