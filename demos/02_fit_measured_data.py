"""
Fitting measured throughput
===========================

A benchmark measured at seven load levels, fitted two ways: with the
single-user baseline pinning x1 (the usual case) and with x1 treated as
a third free parameter (what you are stuck with when nobody ran N=1).
Ends with a before/after comparison of two builds.
"""

from uslkit import (
    Dataset,
    FitOptions,
    bootstrap_confidence,
    compare_fits,
    evaluate_fit,
    fit_usl,
)

# ops/s from a message-broker benchmark, one row per worker count
measured = Dataset.from_pairs([
    (1, 955.2),
    (2, 1878.9),
    (4, 3548.7),
    (8, 6531.1),
    (16, 10798.4),
    (32, 14213.5),
    (48, 14992.8),
])

fit = fit_usl(measured)
p = fit.params
print(f"mode: {fit.mode}")
print(f"alpha = {p.alpha:.5f}, beta = {p.beta:.6f}, x1 = {p.x1:.1f}")
print(f"r_squared = {fit.r_squared:.6f}")
print(f"peak at N = {fit.peak:.1f} (practical: {fit.practical_peak:.0f})")

print("\nresiduals:")
for r in fit.residuals:
    print(f"  N={r.n:4.0f}  measured {r.measured:8.1f}  modeled {r.modeled:8.1f}  "
          f"off by {r.residual / r.measured:+.2%}")

# how tight are those coefficients? resample and look at the spread
ci = bootstrap_confidence(measured, replicates=200, seed=1)
print(f"\n95% intervals: alpha [{ci.alpha_interval[0]:.4f}, {ci.alpha_interval[1]:.4f}], "
      f"beta [{ci.beta_interval[0]:.6f}, {ci.beta_interval[1]:.6f}]")

# same data without its baseline: x1 becomes a fitted quantity
headless = Dataset.from_pairs([(p.n, p.x) for p in measured if p.n > 1])
fit3 = fit_usl(headless, FitOptions(mode="raw-throughput-3param"))
print(f"\nwithout the N=1 row: alpha = {fit3.params.alpha:.5f}, "
      f"beta = {fit3.params.beta:.6f}, fitted x1 = {fit3.params.x1:.1f}")
print(f"(measured x1 was {measured.baseline.x})")

# a later build of the same service, measured the same way
after = Dataset.from_pairs([
    (1, 948.1),
    (2, 1871.3),
    (4, 3589.6),
    (8, 6744.8),
    (16, 11512.9),
    (32, 16531.2),
    (48, 18248.3),
])
fit_after = fit_usl(after)
diff = compare_fits(fit.params, fit_after.params)
print(f"\nbuild comparison: alpha {diff.alpha_delta:+.5f}, beta {diff.beta_delta:+.6f}")
print(f"peak moves {diff.peak_a:.1f} -> {diff.peak_b:.1f}")
print(f"scales further: {diff.scales_further}")

diag = evaluate_fit(fit_after, after)
print(f"after-build worst residual: {diag.max_relative_residual:.2%}")
