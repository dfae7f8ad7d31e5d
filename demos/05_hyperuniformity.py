"""Variance growth of window integrals: suppressed vs linear.

A kernel with a vanishing integral (here the signed exponential) keeps the
variance of S_T bounded as the window grows; a positive-integral control
kernel of the same shape grows linearly. The report prints both curves,
with an empirical check per window size and a least-squares slope for the
control.
"""

from idma import kernels, levy, verify

rep = verify.hyperuniformity(
    kernels.signed_ou(), levy.two_point(1.0),
    T_grid=[1.0, 2.0, 5.0, 10.0, 20.0], N=20_000, seed=0)

print("=== Window-integral variance, signed_ou vs persistent control ===")
print(f"{'T':>6}  {'Var (analytic)':>15}  {'Var (empirical)':>16}  "
      f"{'SE':>8}  {'control Var':>12}")
for row in zip(rep.T_grid, rep.var_analytic, rep.var_empirical, rep.var_se,
               rep.control_var):
    print(f"{row[0]:6.1f}  {row[1]:15.6f}  {row[2]:16.6f}  "
          f"{row[3]:8.4f}  {row[4]:12.4f}")

print(f"\ncontrol slope (least squares): {rep.control_slope:.4f}")
print(f"classification: {rep.classification}")

print("""
The signed kernel's curve saturates at 2 (its closed form is
2 - 2 e^{-T}(1 + T) for unit two-point jumps) while the control grows with
slope about 1: same exponential profile, entirely different large-window
behavior, driven only by whether the kernel integrates to zero.""")
