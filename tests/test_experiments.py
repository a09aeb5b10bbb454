"""Monte Carlo experiment drivers: bounds, diagnostics, classification."""

import math

import numpy as np
import pytest

from click.testing import CliRunner

import stablesub.experiments as experiments
import stablesub.reporting as reporting
from stablesub import (
    ExpKernel,
    MomentEstimate,
    SeedSpec,
    SingularKernel,
    StableParams,
    TimeGrid,
    classify_power_kernel,
    exp_kernel_moment_bound,
    power_kernel_moment_bound,
    run_blowup_diagnostic,
    run_cdf_check,
    run_ibp_consistency,
    run_laplace_check,
    run_moment_check,
    run_moment_checks,
    run_scaling_check,
    sample_path_values,
)
from stablesub.cli import main
from stablesub.experiments import BATCH_SIZE, default_grid, power_integral_diverges
from stablesub.integrals import power_bracket_sums

# Frozen with mpmath from E S_1^0.25 = Gamma(0.5)/Gamma(0.75) at alpha = 1/2.
BOUND_THETA_REF = 11.811069891303610336  # (alpha, theta, p, T) = (0.5, 1, 0.25, 1)
BOUND_EXP_REF = 6.5389430609918908993  # (alpha, p, lam) = (0.5, 0.25, 1)


class TestClosedFormBounds:
    def test_power_kernel_reference_cell(self):
        value = power_kernel_moment_bound(0.5, 1.0, 0.25, 1.0)
        assert value == pytest.approx(BOUND_THETA_REF, rel=1e-12)

    def test_power_kernel_horizon_factor(self):
        # horizon enters only through T^((1/alpha - theta) p)
        base = power_kernel_moment_bound(0.5, 1.0, 0.25, 1.0)
        value = power_kernel_moment_bound(0.5, 1.0, 0.25, 4.0)
        assert value == pytest.approx(base * 4.0 ** ((2.0 - 1.0) * 0.25), rel=1e-12)
        assert value == pytest.approx(base * math.sqrt(2.0), rel=1e-12)

    def test_power_kernel_explodes_at_threshold(self):
        previous = power_kernel_moment_bound(0.5, 1.0, 0.25, 1.0)
        for theta in (1.9, 1.99, 1.999):
            current = power_kernel_moment_bound(0.5, theta, 0.25, 1.0)
            assert current > previous
            previous = current
        assert power_kernel_moment_bound(0.5, 1.999999, 0.25, 1.0) > 1e5

    def test_power_kernel_domain(self):
        with pytest.raises(ValueError):
            power_kernel_moment_bound(0.5, 2.0, 0.25, 1.0)  # theta == 1/alpha
        with pytest.raises(ValueError):
            power_kernel_moment_bound(0.5, 2.5, 0.25, 1.0)
        with pytest.raises(ValueError):
            power_kernel_moment_bound(0.5, 1.0, 0.5, 1.0)  # p == alpha
        with pytest.raises(ValueError):
            power_kernel_moment_bound(1.5, 1.0, 0.25, 1.0)

    def test_exp_kernel_reference_cell(self):
        assert exp_kernel_moment_bound(0.5, 0.25, 1.0) == pytest.approx(BOUND_EXP_REF, rel=1e-12)

    def test_exp_kernel_limits(self):
        moment = 1.4464090846320771425
        assert exp_kernel_moment_bound(0.5, 0.25, 300.0) == pytest.approx(moment, rel=1e-12)
        assert exp_kernel_moment_bound(0.5, 0.25, 1e-8) > 1e7

    def test_exp_kernel_domain(self):
        with pytest.raises(ValueError):
            exp_kernel_moment_bound(0.5, 0.25, 0.0)
        with pytest.raises(ValueError):
            exp_kernel_moment_bound(0.5, 0.6, 1.0)


class TestClassifier:
    def test_reference_cases(self):
        assert classify_power_kernel(0.5, 2.0) == "limsup_infinite"  # product exactly 1
        assert classify_power_kernel(0.5, 1.9) == "ratio_vanishes"
        assert classify_power_kernel(1.0, 1.0) == "limsup_infinite"  # boundary analogue

    def test_domain(self):
        with pytest.raises(ValueError):
            classify_power_kernel(0.0, 1.0)
        with pytest.raises(ValueError):
            classify_power_kernel(0.5, 0.0)

    def test_agrees_with_numeric_convergence(self):
        # 50 random pairs; the exponent product stays 0.05 away from 1 so the
        # finite-depth quadrature oracle can actually resolve the verdict.
        rng = np.random.default_rng(404)
        count = 0
        while count < 50:
            alpha = 0.1 + 0.85 * rng.random()
            product = 0.2 + 1.6 * rng.random()
            if 0.95 < product < 1.05:
                continue
            c = product / alpha
            analytic = classify_power_kernel(alpha, c) == "limsup_infinite"
            numeric = power_integral_diverges(alpha, c)
            assert analytic == numeric, (alpha, c, product)
            count += 1

    def test_numeric_oracle_at_exact_boundary(self):
        # c alpha = 1: shell contributions are flat (log divergence).
        assert power_integral_diverges(0.5, 2.0)
        assert classify_power_kernel(0.5, 2.0) == "limsup_infinite"


class TestMomentEstimate:
    def test_from_samples(self):
        est = MomentEstimate.from_samples(np.array([1.0, 2.0, 3.0, 4.0]), "upper")
        assert est.mean == pytest.approx(2.5)
        assert est.std_error == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
        assert est.n_replicates == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            MomentEstimate.from_samples(np.array([1.0]), "upper")
        with pytest.raises(ValueError):
            MomentEstimate(mean=1.0, std_error=0.1, n_replicates=10, estimator_side="middle")


class TestMomentChecks:
    def test_power_kernel_verdict_and_sides(self):
        report = run_moment_check(
            StableParams(0.5), SingularKernel(theta=1.0, T=1.0), 0.25,
            n_replicates=20_000, master_seed=501,
        )
        assert report.verdict == "pass"
        assert report.bound_value == pytest.approx(BOUND_THETA_REF, rel=1e-12)
        # x^p is monotone, so the bracket sides stay ordered in the mean
        assert report.lower_estimate.mean <= report.estimate.mean
        assert report.estimate.estimator_side == "upper"
        assert report.lower_estimate.estimator_side == "lower"
        # bracket tightness: side difference well inside the bound margin
        assert report.estimate.mean - report.lower_estimate.mean < report.margin

    def test_exp_kernel_verdict(self):
        report = run_moment_check(
            StableParams(0.5), ExpKernel(lam=1.0, T=1.0), 0.25,
            n_replicates=20_000, master_seed=502,
        )
        assert report.verdict == "pass"
        assert report.bound_value == pytest.approx(BOUND_EXP_REF, rel=1e-12)

    def test_worker_count_does_not_change_numbers(self):
        kwargs = dict(p=0.25, n_replicates=12_000, master_seed=503)
        one = run_moment_check(StableParams(0.5), SingularKernel(theta=1.0, T=1.0), **kwargs, workers=1)
        many = run_moment_check(StableParams(0.5), SingularKernel(theta=1.0, T=1.0), **kwargs, workers=4)
        assert one.estimate.mean == many.estimate.mean
        assert one.estimate.std_error == many.estimate.std_error

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            run_moment_check(StableParams(0.5), SingularKernel(theta=1.0), 0.7, n_replicates=100)


class TestGroupedMomentChecks:
    # Mixed kernels: two alphas, a repeated power kernel at two orders, and
    # exponential kernels on two horizons; 5000 replicates span two batches.
    CELLS = [
        (StableParams(0.5), SingularKernel(theta=1.0), 0.25, None),
        (StableParams(0.5), ExpKernel(lam=1.0, T=1.0), 0.25, None),
        (StableParams(0.3), SingularKernel(theta=0.5 / 0.3), 0.075, None),
        (StableParams(0.5), SingularKernel(theta=1.0), 0.125, None),
        (StableParams(0.5), ExpKernel(lam=2.0, T=5.0), 0.25, None),
        (StableParams(0.5), SingularKernel(theta=1.6), 0.25, None),
        (StableParams(0.5), ExpKernel(lam=0.5, T=1.0), 0.1, None),
    ]
    N = 5000
    SEED = 504

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grouped_reports_equal_per_cell_reports(self, workers):
        grouped = run_moment_checks(self.CELLS, self.N, self.SEED, workers)
        assert len(grouped) == len(self.CELLS)
        for (params, kernel, p, grid), report in zip(self.CELLS, grouped):
            single = run_moment_check(
                params, kernel, p, n_replicates=self.N, master_seed=self.SEED, grid=grid
            )
            assert report.estimate.mean == single.estimate.mean
            assert report.estimate.std_error == single.estimate.std_error
            assert report.lower_estimate.mean == single.lower_estimate.mean
            assert report.margin == single.margin
            assert report.bound_value == single.bound_value

    def test_matches_direct_per_batch_evaluation(self):
        # Independent of the driver: sample each batch stream, bracket, reduce.
        params, kernel, p, _ = self.CELLS[0]
        grid = default_grid(kernel)
        lower, upper = [], []
        for batch, start in enumerate(range(0, self.N, BATCH_SIZE)):
            count = min(BATCH_SIZE, self.N - start)
            values = sample_path_values(params, grid, SeedSpec(self.SEED, batch), count)
            lo, up = power_bracket_sums(grid.points, values, kernel.theta)
            lower.append(lo)
            upper.append(up)
        report = run_moment_checks(self.CELLS, self.N, self.SEED)[0]
        expected = MomentEstimate.from_samples(np.concatenate(upper) ** p, "upper")
        assert report.estimate == expected
        assert report.lower_estimate.mean == np.mean(np.concatenate(lower) ** p)

    def test_grid_argument_joins_default_group(self):
        explicit = TimeGrid.geometric(1.0, levels=40, q=0.5)
        cells = [self.CELLS[0], (StableParams(0.5), SingularKernel(theta=1.0), 0.25, explicit)]
        first, second = run_moment_checks(cells, n_replicates=200, master_seed=self.SEED)
        assert first == second

    def test_validates_every_cell_before_sampling(self, monkeypatch):
        def never(*args):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(experiments, "sample_path_values", never)
        cells = [self.CELLS[0], (StableParams(0.5), SingularKernel(theta=1.0), 0.7, None)]
        with pytest.raises(ValueError):
            run_moment_checks(cells, n_replicates=200)

    def test_verify_all_samples_each_group_once_per_batch(self, monkeypatch):
        # 18 moment-bound cells share 5 (alpha, grid) path streams.
        calls = []
        inside = []
        real_sample = experiments.sample_path_values
        real_checks = reporting.run_moment_checks

        def counting_sample(params, grid, seed, n_paths):
            if inside:
                calls.append((params.alpha, grid.kind, grid.T, seed.replicate_index))
            return real_sample(params, grid, seed, n_paths)

        def moment_section(*args, **kwargs):
            inside.append(True)
            try:
                return real_checks(*args, **kwargs)
            finally:
                inside.clear()

        monkeypatch.setattr(experiments, "sample_path_values", counting_sample)
        monkeypatch.setattr(reporting, "run_moment_checks", moment_section)
        result = CliRunner().invoke(main, ["verify-all", "--replicates", "5000", "--seed", "12345"])
        assert result.exit_code == 0, result.output
        groups = {
            (0.3, "geometric", 1.0),
            (0.5, "geometric", 1.0),
            (0.7, "geometric", 1.0),
            (0.5, "uniform", 1.0),
            (0.5, "uniform", 5.0),
        }
        assert len(calls) == 5 * 2
        for batch in (0, 1):
            assert {call[:3] for call in calls if call[3] == batch} == groups


class TestBlowupDiagnostic:
    def test_supercritical_slope(self):
        report = run_blowup_diagnostic(
            StableParams(0.5), theta=3.0, n_replicates=2000, master_seed=601
        )
        assert report.expected_slope == pytest.approx(1.0)
        assert abs(report.fitted_slope - 1.0) <= 0.1
        assert not report.boundary_inconclusive
        assert len(report.epsilons) == 21
        assert report.epsilons[0] == pytest.approx(2.0**-10)
        assert report.epsilons[-1] == pytest.approx(2.0**-30)

    def test_boundary_flagged_inconclusive(self):
        report = run_blowup_diagnostic(
            StableParams(0.5), theta=2.0, n_replicates=500, master_seed=602
        )
        assert report.boundary_inconclusive
        assert report.expected_slope == pytest.approx(0.0)

    def test_subcritical_lower_sums_stabilize(self):
        report = run_blowup_diagnostic(
            StableParams(0.5), theta=1.0, min_level=10, max_level=40,
            n_replicates=2000, master_seed=603,
        )
        assert abs(report.lower_sum_slope) <= 0.02
        med = dict(zip(report.epsilons, report.lower_sum_medians))
        change = abs(med[2.0**-40] - med[2.0**-35]) / med[2.0**-35]
        assert change < 0.01
        # medians nondecreasing in depth: deeper truncation only adds terms
        assert med[2.0**-40] >= med[2.0**-35]

    def test_median_replicate_floor(self):
        with pytest.raises(ValueError):
            run_blowup_diagnostic(StableParams(0.5), theta=3.0, n_replicates=50)


class TestDistributionChecks:
    def test_laplace_grid(self):
        report = run_laplace_check(n_replicates=20_000, master_seed=12345)
        assert len(report.cells) == 9
        assert report.passed
        assert report.n_within >= 8

    def test_cdf_check(self):
        report = run_cdf_check(n_replicates=20_000, master_seed=12345)
        assert report.passed
        assert report.critical_value == pytest.approx(1.63 / math.sqrt(20_000))

    def test_scaling_check(self):
        report = run_scaling_check(
            StableParams(0.5), 0.25, n_replicates=20_000, master_seed=12345
        )
        assert report.passed
        assert report.times == (0.25, 1.0, 4.0)
        assert report.reference == pytest.approx(1.4464090846320771425, rel=1e-12)
        for mean in report.normalized_means:
            assert mean == pytest.approx(report.reference, rel=0.03)


class TestIbpConsistency:
    def test_report(self):
        report = run_ibp_consistency(
            StableParams(0.5), theta=1.0, n_paths=300, master_seed=12345
        )
        assert report.passed
        assert report.all_brackets_intersect
        assert report.max_abel_discrepancy <= 1e-10
        lower, upper = report.det_power_bracket
        assert lower <= report.det_power_target <= upper
        lower, upper = report.det_exp_bracket
        assert lower <= report.det_exp_target <= upper
        gaps = [row[3] for row in report.convergence_rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_nan_abel_discrepancy_fails(self):
        # On 300 dyadic levels t^-theta overflows for probe exponents above
        # about 3.4, so some Abel discrepancies are NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_ibp_consistency(
                StableParams(0.5), theta=1.0, n_paths=50, master_seed=12345,
                grid=TimeGrid.geometric(1.0, levels=300, q=0.5),
            )
        assert math.isnan(report.max_abel_discrepancy)
        assert not report.passed
