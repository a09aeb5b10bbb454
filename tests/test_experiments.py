"""Monte Carlo experiment drivers: bounds, diagnostics, classification."""

import dataclasses
import inspect
import json
import math
import multiprocessing

import numpy as np
import pytest
from scipy import integrate

from click.testing import CliRunner

import stablesub.experiments as experiments
import stablesub.reporting as reporting
import stablesub.subordinator as subordinator
from stablesub import (
    ExpKernel,
    MomentEstimate,
    SeedSpec,
    SingularKernel,
    StableParams,
    SubordinatorPath,
    TimeGrid,
    abel_identity_check,
    classify_power_kernel,
    exp_kernel_moment_bound,
    ibp_estimate,
    power_kernel_moment_bound,
    run_blowup_diagnostic,
    run_cdf_check,
    run_ibp_consistency,
    run_laplace_check,
    run_moment_check,
    run_moment_checks,
    run_scaling_check,
    sample_path_values,
    sample_standard_stable_batch,
    stieltjes_bracket,
)
from stablesub.cli import main
from stablesub.experiments import BATCH_SIZE, default_grid
from stablesub.integrals import _brackets_meet, ibp_bracket_sums, power_bracket_sums

# Frozen with mpmath from E S_1^0.25 = Gamma(0.5)/Gamma(0.75) at alpha = 1/2.
BOUND_THETA_REF = 11.811069891303610336  # (alpha, theta, p, T) = (0.5, 1, 0.25, 1)
BOUND_EXP_REF = 6.5389430609918908993  # (alpha, p, lam) = (0.5, 0.25, 1)


def power_integral_diverges(alpha: float, c: float, shells: int = 12, shell_factor: float = 2.0**-8) -> bool:
    """Numeric convergence classification of int_delta^1 t^(-c*alpha) dt as delta -> 0.

    Integrates shell by shell over [f^(k+1), f^k] with adaptive quadrature and
    declares divergence when the shell contributions fail to decay.  This is
    the independent check that classify_power_kernel is wired the right way
    around.
    """
    exponent = c * alpha
    contributions = []
    hi = 1.0
    for _ in range(shells):
        lo = hi * shell_factor
        value = integrate.quad(lambda t: t**-exponent, lo, hi, limit=200)[0]
        contributions.append(value)
        hi = lo
    # Convergent integrals have geometrically decaying shells; divergent ones
    # have flat (exponent 1) or growing shells.
    return contributions[-1] > 0.5 * contributions[0]


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
        # alpha = 0 is rejected before theta is compared with 1/alpha.
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            power_kernel_moment_bound(0.0, 1.0, 0.25, 1.0)

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
        est = MomentEstimate.from_samples(np.array([1.0, 2.0, 3.0, 4.0]))
        assert est.mean == pytest.approx(2.5)
        assert est.std_error == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
        assert est.n_replicates == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            MomentEstimate.from_samples(np.array([1.0]))


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
        one = run_moment_check(StableParams(0.5), SingularKernel(theta=1.0, T=1.0), **kwargs)
        with experiments._worker_pool(4):
            many = run_moment_check(StableParams(0.5), SingularKernel(theta=1.0, T=1.0), **kwargs)
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
        with experiments._worker_pool(workers):
            grouped = run_moment_checks(self.CELLS, self.N, self.SEED)
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
            lo, up = power_bracket_sums(grid.points, np.diff(values, axis=-1), kernel.theta)
            lower.append(lo)
            upper.append(up)
        report = run_moment_checks(self.CELLS, self.N, self.SEED)[0]
        expected = MomentEstimate.from_samples(np.concatenate(upper) ** p)
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

        monkeypatch.setattr(experiments, "kanter_inputs", never)
        cells = [self.CELLS[0], (StableParams(0.5), SingularKernel(theta=1.0), 0.7, None)]
        with pytest.raises(ValueError):
            run_moment_checks(cells, n_replicates=200)

    # Two grid lengths, 41 and 21 points; alpha 0.3 and 0.5, geometric and
    # uniform grids, both kernel types.
    MIXED_CELLS = [
        (StableParams(0.3), SingularKernel(theta=1.5), 0.075, None),
        (StableParams(0.5), SingularKernel(theta=1.0), 0.25, TimeGrid.geometric(1.0, levels=20)),
        (StableParams(0.5), ExpKernel(lam=1.0, T=1.0), 0.25, None),
        (StableParams(0.5), SingularKernel(theta=1.6), 0.125, None),
        (StableParams(0.3), ExpKernel(lam=2.0, T=5.0), 0.1, None),
        (StableParams(0.5), ExpKernel(lam=0.5, T=1.0), 0.1, TimeGrid.uniform(1.0, levels=20)),
        (StableParams(0.5), SingularKernel(theta=1.0), 0.25, None),
    ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_passes_equal_per_cell_reports(self, monkeypatch, workers):
        calls = []
        real_batches = experiments._sample_batches

        def counting_batches(*args):
            calls.append(args)
            return real_batches(*args)

        monkeypatch.setattr(experiments, "_sample_batches", counting_batches)
        with experiments._worker_pool(workers):
            grouped = run_moment_checks(self.MIXED_CELLS, self.N, self.SEED)
        # One sampling pass per grid length, for every alpha of that length.
        plans = [call[0].args[0] for call in calls]
        assert sorted(len(plan[0][1][0][0]) for plan in plans) == [21, 41]
        assert sorted(tuple(alpha for alpha, _ in plan) for plan in plans) == [(0.3, 0.5), (0.5,)]
        monkeypatch.setattr(experiments, "_sample_batches", real_batches)
        for (params, kernel, p, grid), report in zip(self.MIXED_CELLS, grouped, strict=True):
            single = run_moment_check(
                params, kernel, p, n_replicates=self.N, master_seed=self.SEED, grid=grid
            )
            assert report == single

    def test_verify_all_samples_each_group_once_per_batch(self, monkeypatch):
        # 18 moment-bound cells on 41 points: 1 pass, whose batches each draw
        # (U, W) once and make the standard draws of alpha = 0.3, 0.5 and 0.7
        # from it, which the 5 (alpha, grid) path groups share.
        plans, inputs, draws = [], [], []
        inside = []
        real_batches = experiments._sample_batches
        real_inputs = experiments.kanter_inputs
        real_draws = experiments.kanter_draws
        real_checks = reporting.run_moment_checks

        def batches(task, *args):
            if inside:
                plans.append(task.args[0])
            return real_batches(task, *args)

        def counting_inputs(seed, shape):
            u, w = real_inputs(seed, shape)
            if inside:
                inputs.append((seed.replicate_index, shape, u))
            return u, w

        def counting_draws(alphas, u, w):
            if inside:
                draws.append((tuple(alphas), inputs[-1][0], len(u), np.shares_memory(u, inputs[-1][2])))
            return real_draws(alphas, u, w)

        def moment_section(*args, **kwargs):
            inside.append(True)
            try:
                return real_checks(*args, **kwargs)
            finally:
                inside.clear()

        monkeypatch.setattr(experiments, "_sample_batches", batches)
        monkeypatch.setattr(experiments, "kanter_inputs", counting_inputs)
        monkeypatch.setattr(experiments, "kanter_draws", counting_draws)
        monkeypatch.setattr(reporting, "run_moment_checks", moment_section)
        common = ["--replicates", "5000", "--seed", "12345"]
        result = CliRunner().invoke(main, ["verify-all", *common])
        assert result.exit_code == 0, result.output
        assert len(plans) == 1
        groups = {
            (alpha, "geometric" if grid.points[1] == 2.0 * grid.epsilon else "uniform", grid.T)
            for alpha, grids in plans[0]
            for grid, _ in grids
        }
        assert groups == {
            (0.3, "geometric", 1.0),
            (0.5, "geometric", 1.0),
            (0.7, "geometric", 1.0),
            (0.5, "uniform", 1.0),
            (0.5, "uniform", 5.0),
        }
        assert [(index, shape) for index, shape, _ in inputs] == [(0, (4096, 41)), (1, (904, 41))]
        assert {alphas for alphas, *_ in draws} == {(0.3, 0.5, 0.7)}
        assert all(shared for *_, shared in draws)
        for index, count in ((0, 4096), (1, 904)):
            assert sum(rows for _, batch, rows, _ in draws if batch == index) == count

        # The same builders write these sections and the single records: the
        # laplace, cdf and scaling sections equal their single records, and
        # the ibp section is its record's rendered subset.
        record = json.loads(result.output)
        singles = {
            "laplace": ["laplace", *common],
            "cdf": ["cdf", *common],
            "scaling": ["scaling", "--alpha", "0.5", "--p", "0.25", *common],
            # verify-all checks min(1000, replicates) paths.
            "ibp": ["ibp", "--alpha", "0.5", "--theta", "1", "--replicates", "1000",
                    "--seed", "12345"],
        }
        for prefix, args in singles.items():
            single = json.loads(CliRunner().invoke(main, args).output)
            section = record["results"][prefix]
            if prefix == "ibp":
                assert {key: single["results"][key] for key in section} == section
            else:
                assert section == single["results"]
            section_verdicts = {
                key[len(prefix) + 1 :]: verdict
                for key, verdict in record["verdicts"].items()
                if key.startswith(f"{prefix}.")
            }
            assert section_verdicts == single["verdicts"]
            section_series = {
                key[len(prefix) + 1 :]: block
                for key, block in record["series"].items()
                if key.startswith(f"{prefix}_")
            }
            assert section_series == single["series"]


class TestMomentBatch:
    # Two alphas, two grids of one length, both kernel types.
    PLAN = (
        (0.3, ((default_grid(SingularKernel(theta=1.5)), (SingularKernel(theta=1.5),)),)),
        (0.5, (
            (default_grid(SingularKernel(theta=1.0)), (SingularKernel(theta=1.0), SingularKernel(theta=1.6))),
            (default_grid(ExpKernel(lam=1.0, T=1.0)), (ExpKernel(lam=1.0, T=1.0),)),
        )),
    )

    @pytest.mark.parametrize("count", [904, 4096])
    def test_row_chunks_do_not_change_a_bit(self, monkeypatch, count):
        # Chunk sizes are multiples of 4, as CHUNK_ROWS is: a BLAS
        # matrix-vector product rounds a row by its place in a 4-row block, so
        # 1- or 7-row chunks move the sums by rounding.  Both counts leave a
        # ragged last chunk at 12 rows.
        seed = SeedSpec(505, 3)
        monkeypatch.setattr(experiments, "CHUNK_ROWS", count)
        whole = experiments._moment_sums(self.PLAN, seed, count)
        for rows in (4, 12, 512):
            monkeypatch.setattr(experiments, "CHUNK_ROWS", rows)
            assert np.array_equal(experiments._moment_sums(self.PLAN, seed, count), whole)
        # Kernel 1 is alpha = 0.5, theta = 1 on its geometric grid.
        grid = self.PLAN[1][1][0][0]
        values = sample_path_values(StableParams(0.5), grid, seed, count)
        lower, upper = power_bracket_sums(grid.points, np.diff(values, axis=1), 1.0)
        assert whole.shape == (4, 2, count)
        assert np.array_equal(whole[1, 0], lower) and np.array_equal(whole[1, 1], upper)


@pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1)])
def test_one_process_pool_per_run(monkeypatch, workers, pools):
    started, joined = [], []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            joined.append(wait)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    args = ["verify-all", "--replicates", "5000", "--workers", str(workers)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert started == [workers] * pools
    assert joined == [True] * pools
    assert multiprocessing.active_children() == []


def test_the_run_owns_the_worker_count():
    # No driver or verify-all section takes a worker count: reporting.run
    # enters _worker_pool, and _sample_batches maps onto the pool it holds.
    drivers = [getattr(experiments, name) for name in experiments.__all__]
    drivers = [fn for fn in drivers if inspect.isfunction(fn)]
    assert "run_moment_checks" in {fn.__name__ for fn in drivers}
    for fn in drivers:
        assert "workers" not in inspect.signature(fn).parameters, fn.__name__
    assert list(inspect.signature(experiments._sample_batches).parameters) == [
        "task", "n_replicates", "master_seed", "cell"
    ]
    for _, section in reporting._VERIFY_ALL_SECTIONS:
        assert list(inspect.signature(section).parameters) == ["cap", "seed"]


class TestBlowupDiagnostic:
    def test_supercritical_slope(self):
        report = run_blowup_diagnostic(
            StableParams(0.5), theta=3.0, n_replicates=2000, master_seed=601
        )
        assert report.expected_slope == pytest.approx(1.0)
        assert abs(report.fitted_slope - 1.0) <= 0.1
        assert report.slope_matches
        missed = dataclasses.replace(report, fitted_slope=report.expected_slope + 0.11)
        assert not missed.slope_matches
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
            StableParams(0.5), theta=1.0, max_level=40,
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

    def test_scaling_rejects_bad_order_before_sampling(self, monkeypatch):
        def never(*args):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(experiments, "sample_standard_stable_batch", never)
        with pytest.raises(ValueError, match="p must lie in"):
            run_scaling_check(StableParams(0.5), 0.6, n_replicates=100)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: run_laplace_check(alphas=(0.5, 1.5), n_replicates=1000),
             r"alpha must lie in \(0, 1\), got 1\.5"),
            # Zero cells would otherwise pass the laplace verdict on nothing.
            (lambda: run_laplace_check(alphas=(), n_replicates=1000),
             r"alpha must list at least one stability index"),
            (lambda: run_scaling_check(StableParams(0.5), 0.25, times=(1.0, -1.0),
                                       n_replicates=1000),
             r"times must be positive, got -1\.0"),
            # Below three draws 1.63/sqrt(n) >= 1 would pass the KS test on anything.
            (lambda: run_cdf_check(n_replicates=2), r"n_replicates must be >= 3"),
            (lambda: experiments.draw_standard_samples(0.5, 0),
             r"n_replicates must be >= 1, got 0"),
        ],
        ids=["laplace", "laplace_empty", "scaling", "cdf_two_draws", "no_draws"],
    )
    def test_every_argument_checked_before_the_first_draw(self, monkeypatch, call, message):
        calls = []

        def counted(*args):
            calls.append(args)
            return sample_standard_stable_batch(*args)

        monkeypatch.setattr(experiments, "sample_standard_stable_batch", counted)
        with pytest.raises(ValueError, match=message):
            call()
        assert calls == []


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

    @pytest.mark.parametrize("n_paths", [1, 4095, 4097, 9000])
    def test_chunked_driver_matches_per_path_reference(self, n_paths):
        seed, theta, tolerance = 4242, 1.0, 1e-10
        report = run_ibp_consistency(
            StableParams(0.5), theta=theta, n_paths=n_paths, master_seed=seed
        )
        # The per-path loop the batched driver replaces, on the same streams:
        # batch b samples from SeedSpec(seed, b), its probes from (seed, 1<<32 | b).
        grid = TimeGrid.geometric(1.0, levels=40, q=0.5)
        kernel = SingularKernel(theta=theta, T=1.0)
        counts = [min(BATCH_SIZE, n_paths - start) for start in range(0, n_paths, BATCH_SIZE)]
        values = np.concatenate([
            sample_path_values(StableParams(0.5), grid, SeedSpec(seed, b), count)
            for b, count in enumerate(counts)
        ])
        probes = np.concatenate([
            0.05 + SeedSpec(seed, 1 << 32 | b).generator().random(count) * 4.0
            for b, count in enumerate(counts)
        ])
        intersect, abel = True, []
        for row, probe in zip(values, probes):
            path = SubordinatorPath(grid=grid, values=row)
            direct, via_parts = stieltjes_bracket(path, kernel), ibp_estimate(path, kernel)
            meet = _brackets_meet(
                direct.lower, direct.upper, via_parts.lower, via_parts.upper, tolerance
            )
            intersect &= bool(meet)
            abel.append(abel_identity_check(path, SingularKernel(theta=float(probe), T=1.0)))
        max_abel = float(np.max(abel))
        expected = dataclasses.replace(
            report,
            all_brackets_intersect=intersect,
            max_abel_discrepancy=max_abel,
            abel_identity=max_abel <= tolerance,
        )
        assert report == expected
        assert report.n_paths == n_paths and report.passed

    def test_theta_zero_passes(self):
        # Both brackets shrink to the point S_T - S_eps, rounded two ways, so
        # an exact intersection test misses on some paths; the slack absorbs it.
        report = run_ibp_consistency(StableParams(0.5), theta=0.0, n_paths=3000, master_seed=3)
        assert report.all_brackets_intersect
        assert report.passed
        grid = TimeGrid.geometric(1.0, levels=40, q=0.5)
        values = sample_path_values(StableParams(0.5), grid, SeedSpec(3, 0), 3000)
        direct = power_bracket_sums(grid.points, np.diff(values, axis=-1), 0.0)
        via_parts = ibp_bracket_sums(grid.points, values, 0.0)
        assert not np.all(_brackets_meet(*direct, *via_parts))

    @pytest.mark.parametrize(
        "row, column, value, message",
        [
            (5999, 7, -1.0, "nondecreasing"),  # last row of the last batch
            (4100, 0, -1.0, "nonnegative"),
            (3, 20, math.nan, "nondecreasing"),
        ],
    )
    def test_invalid_path_values_raise(self, monkeypatch, row, column, value, message):
        def corrupted(params, grid, seed, count):
            # Global row `row` sits in the batch whose stream index is row // BATCH_SIZE.
            values = sample_path_values(params, grid, seed, count)
            local = row - seed.replicate_index * BATCH_SIZE
            if 0 <= local < count:
                values[local, column] = value
            return values

        monkeypatch.setattr(experiments, "sample_path_values", corrupted)
        with pytest.raises(ValueError, match=f"process values must be {message}"):
            run_ibp_consistency(StableParams(0.5), theta=1.0, n_paths=6000, master_seed=1)

    def test_horizon_mismatch_raises(self):
        with pytest.raises(ValueError, match="horizon"):
            run_ibp_consistency(
                StableParams(0.5), theta=1.0, T=1.0, n_paths=10,
                grid=TimeGrid.geometric(2.0, levels=40, q=0.5),
            )


class TestOverflowRegime:
    def test_moment_check_rejects_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled a cell that cannot be evaluated")

        monkeypatch.setattr(experiments, "kanter_inputs", no_sampling)
        # theta * |ln 2^-40| = 831.8 > 700: epsilon^-theta leaves double range.
        with pytest.raises(ValueError, match=r"theta \* \|ln\(grid epsilon\)\| must be <= 700"):
            run_moment_check(StableParams(0.03), SingularKernel(theta=30.0), 0.01, n_replicates=100)


@pytest.mark.parametrize(
    "args",
    [
        "laplace --replicates 300",
        "cdf --replicates 300",
        "scaling --alpha 0.5 --replicates 300",
        "bound-theta --alpha 0.5 --theta 1 --replicates 300",
        "bound-exp --alpha 0.5 --replicates 300",
        "blowup --alpha 0.5 --theta 3 --replicates 200 --levels 20",
        "ibp --alpha 0.5 --theta 1 --replicates 300",
        "verify-all --replicates 5000",
    ],
)
def test_every_draw_happens_inside_the_batch_loop(monkeypatch, args):
    """Every stable draw of a run is made by a task of _sample_batches."""
    depth, draws = [0], []
    real_batches = experiments._sample_batches
    real_inputs = subordinator.kanter_inputs

    def batches(*a):
        depth[0] += 1
        try:
            return real_batches(*a)
        finally:
            depth[0] -= 1

    def inputs(*a):
        draws.append(depth[0])
        return real_inputs(*a)

    monkeypatch.setattr(experiments, "_sample_batches", batches)
    # kanter_inputs is the one function that draws from a stream for the sampler.
    monkeypatch.setattr(subordinator, "kanter_inputs", inputs)
    monkeypatch.setattr(experiments, "kanter_inputs", inputs)
    result = CliRunner().invoke(main, args.split() + ["--workers", "1"])
    assert result.exit_code in (0, 1), result.output
    assert draws, "the run drew nothing"
    assert all(draws), f"{draws.count(0)} of {len(draws)} draws outside _sample_batches"
