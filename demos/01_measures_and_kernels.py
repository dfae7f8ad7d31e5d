"""Tour of the jump-measure families and the kernel zoo.

Prints the moment table for each built-in Levy measure, then for each
kernel, a hand-made table kernel included, the squared L2 norms of f and g
(||f||_2^2 sets the bias budget of the jump truncation), its integrals and
the consistency of g with f.
"""

import numpy as np

from idma import kernels, levy

MEASURES = [
    ("dickman", levy.dickman()),
    ("truncated_stable(0.5, 1)", levy.truncated_stable(0.5, 1.0)),
    ("two_point(1)", levy.two_point(1.0)),
    ("inner_truncated_stable(1.5, 1, 0.01)",
     levy.inner_truncated_stable(1.5, 1.0, 0.01)),
]


def describe_measure(name, m):
    print(f"\n{name}")
    print(f"  symmetric        {m.symmetric}")
    print(f"  abs moment       {m.abs_moment():.6g}")
    try:
        print(f"  second moment    {m.second_moment():.6g}")
    except Exception as exc:
        print(f"  second moment    divergent ({type(exc).__name__})")
    print(f"  compensator      {m.compensator_integral():.6g}")
    for eps in (0.01, 0.1, 0.5):
        print(f"  tail mass  |y| >= {eps:<5} {m.tail_mass(eps):12.6g}   "
              f"small-jump var below: {m.small_jump_variance(eps):.6g}")


def describe_kernel(name, k):
    print(f"\n{name}")
    print(f"  ||f||_2^2        {k.l2sq_f:.6g}")
    print(f"  integral of f    {k.integral_f:.6g}")
    if k.has_g:
        grid = np.linspace(-3.0, 3.0, 61)
        print(f"  ||g||_2^2        {k.l2sq_g:.6g}")
        print(f"  integral of g    {k.integral_g:.6g}")
        print(f"  max |g' - f|     {kernels.check_derivative(k, grid):.3e}")
    else:
        print("  no antiderivative: window integrals fall back to grids")
    print(f"  decay radius     {k.decay_radius(1e-8):.4g} at tol 1e-8")


print("=== Levy measures ===")
for name, m in MEASURES:
    describe_measure(name, m)

print("\n\n=== Kernels ===")
for name, k in [("signed_ou", kernels.signed_ou()),
                ("gauss_deriv", kernels.gauss_deriv()),
                ("persistent_control", kernels.persistent_control())]:
    describe_kernel(name, k)

# a triangular bump table: linear interpolation gives a two-step f
tri = kernels.user_table([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
describe_kernel("user_table (triangle)", tri)

print("\nJump sampling (dickman, eps = 0.01, 5 draws):")
rng = np.random.default_rng(0)
print(" ", np.array2string(levy.dickman().sample_jump_sizes(0.01, 5, rng),
                           precision=4))
