"""Characteristic functions: marginal, window integrals, and the two limits.

For the signed exponential kernel with unit two-point jumps the marginal
log-CF at z = 1 has the closed form -2 Cin(1); the window-integral CF
converges, as T grows, to the boundary_augmented limit and visibly not to
the claimed one. Both limits and the finite-T values are printed side by
side so the gap is plain to see.
"""

import numpy as np

from idma import analytic, kernels, levy

k = kernels.signed_ou()
tp = levy.two_point(1.0)

print("=== Marginal log-CF, signed_ou + two_point(1) ===")
CIN1 = 0.23981174200056472594
for z in (0.5, 1.0, 2.0):
    v = analytic.log_cf_stationary(k, tp, z)
    note = f"   (closed form -2 Cin(1) = {-2 * CIN1:.12f})" if z == 1.0 else ""
    print(f"  z = {z:<4} log phi = {v.real: .12f}{note}")

print("\n=== Marginal log-CF across measures at z = 1 ===")
for name, m in [("dickman", levy.dickman()),
                ("truncated_stable(0.5, 1)", levy.truncated_stable(0.5, 1.0)),
                ("inner_truncated_stable(1.5, 1, 0.01)",
                 levy.inner_truncated_stable(1.5, 1.0, 0.01))]:
    v = analytic.log_cf_stationary(k, m, 1.0)
    print(f"  {name:<38} {v.real: .9f} {v.imag:+.2e}j")

print("\n=== Window-integral CF against both candidate limits (z = 1) ===")
spec0 = analytic.fdd_spec([0.0], [1.0], 0.0)
lim_claimed, lim_boundary = analytic.log_cf_limits(k, tp, spec0)
print(f"  claimed limit            {lim_claimed.real: .12f}")
print(f"  boundary_augmented limit {lim_boundary.real: .12f}")
for T in (2.0, 5.0, 10.0, 20.0, 40.0):
    w = analytic.log_cf_window(k, tp, analytic.fdd_spec([0.0], [1.0], T))
    print(f"  T = {T:<5} log phi_T = {w.real: .12f}   "
          f"|to claimed| = {abs(np.exp(w) - np.exp(lim_claimed)):.3e}   "
          f"|to boundary| = {abs(np.exp(w) - np.exp(lim_boundary)):.3e}")

print("\n=== Joint CF of two overlapping windows (T = 5) ===")
spec = analytic.fdd_spec([0.0, 2.0], [1.0, -0.5], 5.0)
print(f"  l = (0, 2), z = (1, -0.5): {analytic.log_cf_window(k, tp, spec):.10f}")

print("\n=== Integrability diagnostics ===")
for name, m in [("dickman", levy.dickman()), ("two_point(1)", tp)]:
    rep = analytic.check_conditions(k, m)
    print(f"  signed_ou + {name:<14} c1 = {rep.c1:.3g}  c2 = {rep.c2:.3g}  "
          f"c3 = {rep.c3:.6g}  all pass: {rep.all_pass}")
