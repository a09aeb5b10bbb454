"""Bracketing walkthrough: rigorous enclosures of int t^(-theta) dS_t.

The kernel is monotone and the path nondecreasing, so endpoint sums enclose
the true pathwise integral between them; no jump needs to be located.

Run with:  python3 demos/bracketing_singular_integrals.py
"""

import math

from stablesub import (
    ExpKernel,
    SeedSpec,
    SingularKernel,
    StableParams,
    TimeGrid,
    abel_identity_check,
    deterministic_path,
    ibp_estimate,
    sample_path,
    stieltjes_bracket,
)

grid = TimeGrid.geometric(T=1.0, levels=40, q=0.5)

print("Classical anchor: on the identity path S_t = t the estimator must")
print("reproduce int_0^1 t^(-1/2) dt = 2 (up to the epsilon truncation).")
det = deterministic_path(grid)
kernel = SingularKernel(theta=0.5, T=1.0)
for factor in (1, 2, 4, 8, 16):
    bracket = stieltjes_bracket(deterministic_path(grid.refined(factor)), kernel)
    print(f"  {factor:>2}x midpoint refinement: [{bracket.lower:.5f}, {bracket.upper:.5f}]"
          f"  gap {bracket.gap:.5f}")
print("  the gap halves per refinement while always containing the truth")

print("\nSame call for the increasing kernel e^(-(1-t)): target 1 - 1/e")
ugrid = TimeGrid.uniform(T=1.0, levels=64)
bracket = stieltjes_bracket(deterministic_path(ugrid), ExpKernel(lam=1.0, T=1.0))
print(f"  [{bracket.lower:.6f}, {bracket.upper:.6f}] contains {1 - math.exp(-1):.6f}")

print("\nTwo independent routes on random paths (theta = 1):")
params = StableParams(0.5)
kernel = SingularKernel(theta=1.0, T=1.0)
for i in range(5):
    path = sample_path(params, grid, SeedSpec(31415, i))
    direct = stieltjes_bracket(path, kernel)
    via_parts = ibp_estimate(path, kernel)
    print(f"  path {i}: endpoint sums [{direct.lower:9.4f}, {direct.upper:9.4f}]   "
          f"boundary+time-integral [{via_parts.lower:9.4f}, {via_parts.upper:9.4f}]   "
          f"intersect: {direct.intersects(via_parts)}")

print("\nDiscrete summation by parts is exact; the residual is pure rounding:")
path = sample_path(params, grid, SeedSpec(31415, 99))
for theta in (0.3, 1.0, 2.5):
    defect = abel_identity_check(path, SingularKernel(theta=theta, T=1.0))
    print(f"  theta={theta}: relative defect {defect:.2e}")
