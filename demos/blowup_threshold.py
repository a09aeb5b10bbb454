"""Finiteness threshold walkthrough: int_0^T t^(-theta) dS_t flips at theta = 1/alpha.

Below the threshold the truncated sums stabilize as the truncation deepens;
at or above it the near-origin contribution alone blows up, with a clean
power law for its median.

Run with:  python3 demos/blowup_threshold.py
"""

import math

from stablesub import StableParams, classify_power_kernel, run_blowup_diagnostics

params = StableParams(alpha=0.5)  # threshold at theta = 1/alpha = 2

print("Analytic classification of S_t against powers t^c near t = 0:")
for c in (1.5, 1.9, 2.0, 2.5):
    print(f"  c={c}: {classify_power_kernel(0.5, c)}")

# One pass: the supercritical exponents and the boundary share their paths.
thetas = (2.5, 3.0, 4.0, 2.0)
*supercritical, boundary = run_blowup_diagnostics(params, thetas, n_replicates=4000, master_seed=7)

print("\nSupercritical exponents: median of eps^(-theta) S_eps grows like")
print("eps^-(theta - 1/alpha); the fitted log-log slope recovers the rate.")
for theta, rep in zip(thetas, supercritical):
    print(f"  theta={theta}: fitted slope {rep.fitted_slope:+.3f}  "
          f"expected {rep.expected_slope:+.1f}  residual {rep.residual:.3f}")

print("\nBoundary theta = 1/alpha: the slope statistic is flat and therefore")
print("uninformative; the divergence there is along random subsequences, so")
print("the report flags the case instead of asserting a rate.")
print(f"  fitted slope {boundary.fitted_slope:+.4f}, inconclusive: {boundary.boundary_inconclusive}")

print("\nSubcritical theta = 1: deepening the truncation from 2^-10 to 2^-40")
print("adds vanishing mass and the truncated lower sums stabilize:")
[rep] = run_blowup_diagnostics(params, (1.0,), max_level=40, n_replicates=4000, master_seed=7)
for eps, median in list(zip(rep.epsilons, rep.lower_sum_medians))[::6]:
    print(f"  eps = 2^-{int(round(-math.log2(eps))):>2}: median lower sum {median:.6f}")
print(f"  slope of the total: {rep.lower_sum_slope:+.4f} (zero means finite)")
