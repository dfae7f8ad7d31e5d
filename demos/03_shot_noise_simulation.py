"""Shot-noise simulation: one field realization, then Monte Carlo checks.

Draws a single jump cloud and walks through the exact evaluations it
supports (field values, window integrals, limit sums), then runs a small
Monte Carlo and compares moments and the empirical CF with the analytic
engine.
"""

import math

import numpy as np

from idma import analytic, kernels, levy, simulate

k = kernels.signed_ou()
tp = levy.two_point(1.0)

cfg = simulate.SimConfig(measure=tp, kernel=k, T=5.0, ls=[0.0], eps=0.5,
                         n_replicates=5000, seed=42)
print("=== One replicate ===")
jumps = simulate.sample_jumps(cfg, simulate.stream_for(cfg.seed, 0))
print(f"  window [{cfg.window_lo[0]:.2f}, {cfg.window_hi[0]:.2f}], "
      f"{jumps.n} jumps (mean {tp.tail_mass(cfg.eps) * cfg.window_volume:.1f})")

a = analytic.shift_constant(k, tp)
print(f"  field at t = 0, 1, 2.5: "
      + ", ".join(f"{simulate.eval_field(jumps, k, a, [t]): .4f}"
                  for t in (0.0, 1.0, 2.5)))

s_exact = simulate.window_integral(jumps, k, cfg.T, [0.0])
s_grid, s_err = simulate.window_integral_grid(jumps, k, cfg.T, [0.0], n=256)
print(f"  window integral S_5: exact {s_exact:.8f}, grid {s_grid:.8f} "
      f"(step error estimate {s_err:.1e})")
print(f"  limit sum Y: {simulate.limit_sum(jumps, k, [0.0]): .8f}, "
      f"mirrored: {simulate.mirrored_limit_sum(jumps, k, [0.0]): .8f}")

print("\n=== Monte Carlo, N = 5000 ===")
res = simulate.monte_carlo(cfg)
var_s = float(np.var(res.S[:, 0]))
var_want = analytic.variance_window(k, tp, cfg.T)
print(f"  var S_5: empirical {var_s:.4f} vs analytic {var_want:.4f}")
print(f"  mean S_5: {float(np.mean(res.S[:, 0])):+.4f} "
      f"(zero up to ~{4 * math.sqrt(var_want / cfg.n_replicates):.4f})")

zs = np.array([0.5, 1.0, 2.0])
hat = simulate.empirical_cf(res.S[:, 0], zs)
print("  empirical CF vs exact window CF:")
for z, h in zip(zs, hat.values):
    w = np.exp(analytic.log_cf_window(k, tp, analytic.fdd_spec([0.0], [z],
                                                               cfg.T)))
    print(f"    z = {z:<4} |phi_hat - phi| = {abs(h - w):.4f} "
          f"(band {hat.band:.4f})")

print("\n=== Determinism ===")
r1 = simulate.monte_carlo(cfg)
print(f"  two runs with the same seed bit-identical: "
      f"{np.array_equal(r1.S, res.S) and np.array_equal(r1.Y, res.Y)}")
