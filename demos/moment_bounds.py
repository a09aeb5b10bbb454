"""Moment-bound walkthrough: closed-form majorants vs Monte Carlo estimates.

For p < alpha the p-th moment of the singular integral is finite below the
threshold, with an explicit constant; the Monte Carlo estimate of the upper
bracket sits far inside it.

Run with:  python3 demos/moment_bounds.py
"""

from stablesub import (
    ExpKernel,
    FracMomentQuery,
    SingularKernel,
    StableParams,
    frac_moment_closed_form,
    frac_moment_quadrature,
    run_moment_checks,
)

print("The oracle chain: the gamma closed form for E S_1^p is only trusted")
print("after the Laplace-transform quadrature reproduces it.")
q = FracMomentQuery(alpha=0.5, p=0.25, t=1.0)
closed = frac_moment_closed_form(q)
quad = frac_moment_quadrature(q)
print(f"  closed form {closed:.10f}   quadrature {quad:.10f}   "
      f"rel diff {abs(closed - quad) / closed:.1e}")

params = StableParams(0.5)
print("\nPower kernel t^-1 on (0, 1], p = 1/4 (threshold at theta = 2):")
kernel = SingularKernel(theta=1.0, T=1.0)
bound = kernel.moment_bound(alpha=0.5, p=0.25)
[report] = run_moment_checks([(params, kernel, 0.25, None)],
                             n_replicates=50_000, master_seed=99)
print(f"  closed-form bound  {bound:.4f}")
print(f"  MC upper bracket   {report.estimate.mean:.4f} +- {report.estimate.std_error:.4f}")
print(f"  MC lower bracket   {report.lower_estimate.mean:.4f}")
print(f"  verdict: {'pass' if report.passed else 'fail'} (margin {report.margin:.3f})")

print("\nThe bound scales as T^((1/alpha - theta) p):")
for T in (1.0, 4.0):
    print(f"  T={T}: bound {SingularKernel(1.0, T).moment_bound(0.5, 0.25):.4f}")

print("\nExponential kernel e^(-lam (T-t)): the bound is horizon-free.")
lams = (0.5, 1.0, 2.0)
# One pass: the three cells share their paths.
reports = run_moment_checks([(params, ExpKernel(lam=lam, T=5.0), 0.25, None) for lam in lams],
                            n_replicates=50_000, master_seed=99)
for lam, report in zip(lams, reports):
    bound = ExpKernel(lam=lam).moment_bound(alpha=0.5, p=0.25)
    print(f"  lam={lam}: bound {bound:.4f}   MC upper {report.estimate.mean:.4f}"
          f"   verdict {'pass' if report.passed else 'fail'}")
