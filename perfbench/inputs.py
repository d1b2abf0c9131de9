"""Seeded inputs for the three workloads.

Every generator takes the workload seed and returns the same inputs for
the same seed.  Sizes are fixed and only the values are drawn, so the work
per operation is alike across seeds: run lengths are a seeded permutation
of a fixed set, and corpus level counts cycle through a fixed range.
"""

from __future__ import annotations

import os

import numpy as np

from uslkit import MeasuredPoint, UslParams, usl_capacity

# ---------------------------------------------------------------- runs-to-fit

RUN_LEVELS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40, 48, 64, 80, 96, 128)
RUN_SAMPLES = tuple(int(k) for k in np.linspace(1000, 4000, len(RUN_LEVELS)))
RUN_NOISE = 0.03
RAMP_UP = 0.10
RAMP_DOWN = 0.05


def run_series(seed: int):
    """16 ramped time-series runs from a seeded (alpha, beta, x1).

    Returns [(load, plateau, times, values), ...].  Each run has
    a linear ramp from 0 over its first 10% of samples, a plateau at
    x1 * C(load) with 3% Gaussian noise, and a linear ramp down to 0 over
    its last 5%.  Samples are one second apart.
    """
    rng = np.random.default_rng([seed, 1])
    params = UslParams(
        alpha=float(rng.uniform(0.05, 0.15)),
        beta=float(10 ** rng.uniform(-5.0, -3.5)),
        x1=float(rng.uniform(50.0, 500.0)),
    )
    lengths = rng.permutation(RUN_SAMPLES)
    runs = []
    for load, k in zip(RUN_LEVELS, lengths):
        k = int(k)
        plateau = float(params.x1 * usl_capacity(float(load), params))
        shape = np.ones(k)
        up = int(RAMP_UP * k)
        down = int(RAMP_DOWN * k)
        shape[:up] = np.arange(up) / up
        shape[k - down:] = np.arange(down, 0, -1) / (down + 1)
        values = plateau * shape * (1.0 + rng.normal(0.0, RUN_NOISE, size=k))
        values = np.maximum(values, 0.0)
        times = np.arange(k, dtype=float)
        runs.append((float(load), plateau, times, values))
    return runs


def write_runs(dirpath: str, runs) -> None:
    """Write runs as run_N<load>.csv files, floats in repr form."""
    for load, _, times, values in runs:
        with open(os.path.join(dirpath, f"run_N{int(load)}.csv"), "w") as fh:
            fh.write("t,x\n")
            fh.writelines(f"{t!r},{x!r}\n" for t, x in zip(times.tolist(), values.tolist()))


# ----------------------------------------------------------------- fit-corpus

CORPUS_SIZE = 1000
AMDAHL_LEVELS = (1, 2, 4, 8, 16, 32, 64, 128, 192)
OFF_GRID_ALPHAS = (0.005, 0.013, 0.037)

# Round-robin slots, so that any prefix of the corpus has the same mix.
# A quarter of the slots are closed-queue datasets.
_SLOTS = ("random", "queue", "off-grid", "alpha0-face", "random", "queue",
          "beta0-face", "amdahl-192")


def _levels(rng, count: int, baseline: bool) -> np.ndarray:
    """count distinct integer levels, geometric up to a seeded top level."""
    top = float(rng.uniform(2.0 * count, 256.0))
    lv = np.round(np.geomspace(1.0 if baseline else 2.0, top, count))
    for i in range(1, count):
        lv[i] = max(lv[i], lv[i - 1] + 1.0)
    return lv


def _noisy(rng, xs: np.ndarray, noise: float) -> np.ndarray:
    if noise == 0.0:
        return xs
    return np.maximum(xs * (1.0 + rng.normal(0.0, noise, size=xs.size)), 1e-9)


def corpus(seed: int):
    """Point datasets covering both modes, 6-24 levels and the known hard cases.

    Returns a list of (kind, ns, xs, queue).  For closed-queue datasets xs
    is None and queue is (s, z, noise multipliers): the throughputs come
    from solving the queue at each level, which the workload does as part
    of each analysis.  Each slot alternates between datasets with an n = 1
    baseline (normalized mode) and without one (raw3 mode).
    """
    rng = np.random.default_rng([seed, 2])
    out = []
    for i in range(CORPUS_SIZE):
        kind = _SLOTS[i % len(_SLOTS)]
        baseline = (i + i // len(_SLOTS)) % 2 == 1   # alternates per slot
        count = 6 + (i * 7) % 19                # cycles through 6..24
        noise = 0.0 if i % 16 == 3 else float(rng.uniform(0.0, 0.05))
        x1 = float(rng.uniform(10.0, 1000.0))
        if kind == "queue":
            s = float(rng.uniform(0.5, 2.0))
            z = s * float(rng.uniform(5.0, 200.0))
            ns = _levels(rng, count, baseline)
            mult = 1.0 + rng.normal(0.0, 0.6 * noise, size=ns.size)
            out.append((kind, ns, None, (s, z, mult)))
            continue
        if kind == "amdahl-192":
            ns = np.array(AMDAHL_LEVELS, dtype=float)
            alpha, beta = 0.005, 0.0
            if i == 7:                          # the noiseless reproduction
                noise, x1 = 0.0, 100.0
            else:
                noise *= 0.2
            if not baseline:
                ns = ns[1:]
        elif kind == "off-grid":
            ns = _levels(rng, count, baseline)
            alpha = OFF_GRID_ALPHAS[(i // len(_SLOTS)) % len(OFF_GRID_ALPHAS)]
            beta = 0.0 if rng.random() < 0.3 else float(10 ** rng.uniform(-7.0, -3.0))
        elif kind == "alpha0-face":
            ns = _levels(rng, count, baseline)
            alpha, beta = 0.0, float(10 ** rng.uniform(-6.0, -3.0))
        elif kind == "beta0-face":
            ns = _levels(rng, count, baseline)
            alpha, beta = float(rng.uniform(0.0, 0.3)), 0.0
        else:
            ns = _levels(rng, count, baseline)
            alpha = float(rng.uniform(0.0, 0.3))
            beta = float(10 ** rng.uniform(-7.0, -2.0))
        xs = x1 * np.asarray(usl_capacity(ns, UslParams(alpha, beta)))
        out.append((kind, ns, _noisy(rng, xs, noise), None))
    return out


def to_points(ns, xs):
    return tuple(MeasuredPoint(float(n), float(x)) for n, x in zip(ns, xs))


# ------------------------------------------------------------------ bootstrap

BOOT_REPLICATES = 200


def bootstrap_datasets(seed: int):
    """An 8-level normalized and a 14-level raw3 dataset.

    The coefficients are fixed and the seed draws the 3% noise, so the
    cost of a call varies little from seed to seed.
    """
    rng = np.random.default_rng([seed, 3])
    out = []
    for name, levels, params in (
        ("normalized-8", (1, 2, 4, 8, 12, 16, 24, 32), UslParams(0.08, 2e-4, 200.0)),
        ("raw3-14", (2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64), UslParams(0.05, 1e-4, 120.0)),
    ):
        ns = np.array(levels, dtype=float)
        xs = _noisy(rng, params.x1 * np.asarray(usl_capacity(ns, params)), 0.03)
        out.append((name, ns, xs))
    return out
