"""Monte Carlo experiment drivers: bounds, diagnostics, classification."""

import dataclasses
import importlib.util
import inspect
import json
import math
import multiprocessing
import os
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from click.testing import CliRunner

import stablesub.experiments as experiments
import stablesub.integrals as integrals
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
    ibp_estimate,
    run_blowup_diagnostics,
    run_cdf_check,
    run_ibp_consistency,
    run_laplace_check,
    run_moment_checks,
    run_scaling_check,
    sample_path_values,
    sample_standard_stable_batch,
    stieltjes_bracket,
)
from stablesub.cli import main
from stablesub.experiments import BATCH_SIZE, BLOWUP_MIN_REPLICATES, KS_MIN_REPLICATES
from stablesub.integrals import _brackets_meet, ibp_bracket_sums, power_bracket_sums
from stablesub.reporting import comparable_record_json

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
        value = SingularKernel(1.0).moment_bound(0.5, 0.25)
        assert value == pytest.approx(BOUND_THETA_REF, rel=1e-12)

    def test_power_kernel_horizon_factor(self):
        # horizon enters only through T^((1/alpha - theta) p)
        base = SingularKernel(1.0).moment_bound(0.5, 0.25)
        value = SingularKernel(1.0, T=4.0).moment_bound(0.5, 0.25)
        assert value == pytest.approx(base * 4.0 ** ((2.0 - 1.0) * 0.25), rel=1e-12)
        assert value == pytest.approx(base * math.sqrt(2.0), rel=1e-12)

    def test_power_kernel_explodes_at_threshold(self):
        previous = SingularKernel(1.0).moment_bound(0.5, 0.25)
        for theta in (1.9, 1.99, 1.999):
            current = SingularKernel(theta).moment_bound(0.5, 0.25)
            assert current > previous
            previous = current
        assert SingularKernel(1.999999).moment_bound(0.5, 0.25) > 1e5

    def test_power_kernel_domain(self):
        with pytest.raises(ValueError):
            SingularKernel(2.0).moment_bound(0.5, 0.25)  # theta == 1/alpha
        with pytest.raises(ValueError):
            SingularKernel(2.5).moment_bound(0.5, 0.25)
        with pytest.raises(ValueError):
            SingularKernel(1.0).moment_bound(0.5, 0.5)  # p == alpha
        with pytest.raises(ValueError):
            SingularKernel(1.0).moment_bound(1.5, 0.25)
        # alpha = 0 is rejected before theta is compared with 1/alpha.
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            SingularKernel(1.0).moment_bound(0.0, 0.25)
        # The constant kernel theta = 0 has no bound of this form.
        with pytest.raises(ValueError, match=r"theta must lie in \(0, 1/alpha\)"):
            SingularKernel(0.0).moment_bound(0.5, 0.25)

    def test_power_kernel_bound_overflow_names_T(self):
        # T^((1/alpha - theta) p) = e^709.6 fits, but the constant factor ~5 does not.
        with pytest.raises(ValueError, match=r"^T = 1\.6e\+308 at alpha = 0\.9999, p = 0\.9998: .*"):
            SingularKernel(0.001, T=1.6e308).moment_bound(0.9999, 0.9998)

    def test_exp_kernel_reference_cell(self):
        assert ExpKernel(1.0).moment_bound(0.5, 0.25) == pytest.approx(BOUND_EXP_REF, rel=1e-12)

    def test_exp_kernel_limits(self):
        moment = 1.4464090846320771425
        assert ExpKernel(300.0).moment_bound(0.5, 0.25) == pytest.approx(moment, rel=1e-12)
        assert ExpKernel(1e-8).moment_bound(0.5, 0.25) > 1e7

    def test_exp_kernel_domain(self):
        with pytest.raises(ValueError, match="lambda must be > 0"):
            ExpKernel(0.0)
        with pytest.raises(ValueError):
            ExpKernel(1.0).moment_bound(0.5, 0.6)
        # E S_1^p / (p lambda) overflows once p lambda is subnormal.
        with pytest.raises(ValueError, match=r"^lambda = 1e-320 is too small at p = 0\.25: .* overflows$"):
            ExpKernel(1e-320).moment_bound(0.5, 0.25)


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
        for std_error in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="std_error must be finite and >= 0"):
                MomentEstimate(mean=1.0, std_error=std_error, n_replicates=10)

    def test_plain_reduction_where_it_fits(self):
        samples = np.random.default_rng(7).pareto(0.6, 1000)
        est = MomentEstimate.from_samples(samples)
        assert est.mean == samples.mean()
        assert est.std_error == samples.std(ddof=1) / math.sqrt(samples.size)

    def test_squares_past_double_range_are_scaled_first(self):
        # Squares of 1e160 overflow: the reduction falls back to the samples
        # divided by their largest magnitude, with no RuntimeWarning.
        base = np.linspace(1.0, 3.0, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = MomentEstimate.from_samples(1e160 * base)
        assert est.mean == pytest.approx(1e160 * base.mean(), rel=1e-14)
        assert est.std_error == pytest.approx(1e160 * base.std(ddof=1) / 10.0, rel=1e-14)


class TestMomentChecks:
    def test_power_kernel_verdict_and_sides(self):
        [report] = run_moment_checks(
            [(StableParams(0.5), SingularKernel(theta=1.0, T=1.0), 0.25, None)],
            n_replicates=20_000, master_seed=501,
        )
        assert report.passed
        assert report.bound_value == pytest.approx(BOUND_THETA_REF, rel=1e-12)
        # x^p is monotone, so the bracket sides stay ordered in the mean
        assert report.lower_estimate.mean <= report.estimate.mean
        # bracket tightness: side difference well inside the bound margin
        assert report.estimate.mean - report.lower_estimate.mean < report.margin

    def test_exp_kernel_verdict(self):
        [report] = run_moment_checks(
            [(StableParams(0.5), ExpKernel(lam=1.0, T=1.0), 0.25, None)],
            n_replicates=20_000, master_seed=502,
        )
        assert report.passed
        assert report.bound_value == pytest.approx(BOUND_EXP_REF, rel=1e-12)

    def test_worker_count_does_not_change_numbers(self):
        cells = [(StableParams(0.5), SingularKernel(theta=1.0, T=1.0), 0.25, None)]
        [one] = run_moment_checks(cells, n_replicates=12_000, master_seed=503)
        with experiments._worker_pool(4):
            [many] = run_moment_checks(cells, n_replicates=12_000, master_seed=503)
        assert one.estimate.mean == many.estimate.mean
        assert one.estimate.std_error == many.estimate.std_error

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            run_moment_checks([(StableParams(0.5), SingularKernel(theta=1.0), 0.7, None)], n_replicates=100)

    def test_swapped_bracket_sides_end_the_run(self, monkeypatch):
        # Swapped sides put lower > upper on every path, which the upper-side
        # verdict alone would pass; the pass refuses them as ibp does.  The
        # kernel reads its batch sums as an integrals global.
        real = integrals.power_bracket_sums
        monkeypatch.setattr(integrals, "power_bracket_sums", lambda *args: real(*args)[::-1])
        with pytest.raises(ValueError, match="invalid bracket"):
            run_moment_checks([(StableParams(0.5), SingularKernel(theta=1.0), 0.25, None)], n_replicates=500)


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
        for cell, report in zip(self.CELLS, grouped):
            [single] = run_moment_checks([cell], self.N, self.SEED)
            assert report.estimate.mean == single.estimate.mean
            assert report.estimate.std_error == single.estimate.std_error
            assert report.lower_estimate.mean == single.lower_estimate.mean
            assert report.margin == single.margin
            assert report.bound_value == single.bound_value

    def test_matches_direct_per_batch_evaluation(self):
        # Independent of the driver: sample each batch stream, bracket, reduce.
        params, kernel, p, _ = self.CELLS[0]
        grid = kernel.default_grid()
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

    def test_refuses_a_grid_whose_largest_term_reaches_the_bound(self, monkeypatch):
        # 40 uniform cells: at T = 5000 the last cell's term alone has p-th
        # moment 16.17 against the bound 6.539; at T = 500, 5.11 stays below.
        def never(*args):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(experiments, "kanter_inputs", never)
        coarse = [self.CELLS[0], (StableParams(0.5), ExpKernel(lam=1.0, T=5000.0), 0.25, None)]
        with pytest.raises(ValueError, match=r"^grid\.levels = 40 is too coarse: .* 16\.17, .* 6\.539$"):
            run_moment_checks(coarse, n_replicates=200)
        experiments._moment_cell(StableParams(0.5), ExpKernel(lam=1.0, T=500.0), 0.25, None)

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
        passes = [call[0].args[0] for call in calls]
        assert sorted(len(jobs[0][1]) for jobs in passes) == [21, 41]
        assert sorted(tuple(dict.fromkeys(alpha for alpha, _, _ in jobs)) for jobs in passes) == [
            (0.3, 0.5), (0.5,)
        ]
        monkeypatch.setattr(experiments, "_sample_batches", real_batches)
        for cell, report in zip(self.MIXED_CELLS, grouped, strict=True):
            [single] = run_moment_checks([cell], self.N, self.SEED)
            assert report == single

    def test_verify_all_samples_each_group_once_per_batch(self, monkeypatch):
        # 18 moment-bound cells on 41 points: 1 pass of 12 jobs, whose batches
        # each draw (U, W) once and make the standard draws of alpha = 0.3, 0.5
        # and 0.7 from it, and assemble the paths of each of the 5 (alpha,
        # grid) groups once per chunk, for all of the group's jobs.
        passes, inputs, draws, paths = [], [], [], []
        inside = []
        real_batches = experiments._sample_batches
        real_inputs = experiments.kanter_inputs
        real_draws = experiments.kanter_draws
        real_paths = experiments._assemble_paths
        real_checks = reporting.run_moment_checks

        def batches(task, *args):
            if inside:
                passes.append(task.args[0])
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

        def counting_paths(chunk, grid, alpha):
            if inside:
                paths.append((len(draws), alpha, grid))
            return real_paths(chunk, grid, alpha)

        def moment_section(*args, **kwargs):
            inside.append(True)
            try:
                return real_checks(*args, **kwargs)
            finally:
                inside.clear()

        monkeypatch.setattr(experiments, "_sample_batches", batches)
        monkeypatch.setattr(experiments, "kanter_inputs", counting_inputs)
        monkeypatch.setattr(experiments, "kanter_draws", counting_draws)
        monkeypatch.setattr(experiments, "_assemble_paths", counting_paths)
        monkeypatch.setattr(reporting, "run_moment_checks", moment_section)
        common = ["--replicates", "5000", "--seed", "12345"]
        result = CliRunner().invoke(main, ["verify-all", *common])
        assert result.exit_code == 0, result.output
        assert len(passes) == 1 and len(passes[0]) == 12

        def group(alpha, grid):
            return alpha, "geometric" if grid.points[1] == 2.0 * grid.epsilon else "uniform", grid.T

        groups = [group(alpha, grid) for alpha, grid, _ in passes[0]]
        expected = [
            (0.3, "geometric", 1.0),
            (0.5, "geometric", 1.0),
            (0.7, "geometric", 1.0),
            (0.5, "uniform", 1.0),
            (0.5, "uniform", 5.0),
        ]
        # The jobs keep the cells' order, so the groups come in first-appearance order.
        assert list(dict.fromkeys(groups)) == expected
        assert [(index, shape) for index, shape, _ in inputs] == [(0, (4096, 41)), (1, (904, 41))]
        assert {alphas for alphas, *_ in draws} == {(0.3, 0.5, 0.7)}
        assert all(shared for *_, shared in draws)
        for index, count in ((0, 4096), (1, 904)):
            assert sum(rows for _, batch, rows, _ in draws if batch == index) == count
        # Each chunk assembles each group's paths once: 5 per chunk.
        for chunk in range(1, len(draws) + 1):
            assert [group(alpha, grid) for c, alpha, grid in paths if c == chunk] == expected

        # The same builders write these sections and the single records, so
        # each section equals its single record.
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
            assert record["results"][prefix] == single["results"]
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
    # Two alphas, two grids of one length, both kernel types; the two alpha =
    # 0.5 jobs on the geometric grid share its paths.
    GEOMETRIC = SingularKernel(theta=1.0).default_grid()
    UNIFORM = ExpKernel(lam=1.0, T=1.0).default_grid()
    JOBS = (
        (0.3, GEOMETRIC, SingularKernel(theta=1.5)),
        (0.5, GEOMETRIC, SingularKernel(theta=1.0)),
        (0.5, GEOMETRIC, SingularKernel(theta=1.6)),
        (0.5, UNIFORM, ExpKernel(lam=1.0, T=1.0)),
    )

    @pytest.mark.parametrize("count", [904, 4096])
    def test_row_chunks_do_not_change_a_bit(self, monkeypatch, count):
        # Chunk sizes are multiples of 4, as CHUNK_ROWS is: a BLAS
        # matrix-vector product rounds a row by its place in a 4-row block, so
        # 1- or 7-row chunks move the sums by rounding.  Both counts leave a
        # ragged last chunk at 12 rows.
        seed = SeedSpec(505, 3)
        monkeypatch.setattr(subordinator, "CHUNK_ROWS", count)
        whole = experiments._moment_sums(self.JOBS, seed, count)
        for rows in (4, 12, 512):
            monkeypatch.setattr(subordinator, "CHUNK_ROWS", rows)
            assert np.array_equal(experiments._moment_sums(self.JOBS, seed, count), whole)
        # Every job equals its own cell's paths, bracketed on their own.
        assert whole.shape == (len(self.JOBS), 2, count)
        for k, (alpha, grid, kernel) in enumerate(self.JOBS):
            increments = np.diff(sample_path_values(StableParams(alpha), grid, seed, count), axis=1)
            lower, upper = kernel.bracket_sums(grid.points, increments)
            assert np.array_equal(whole[k, 0], lower) and np.array_equal(whole[k, 1], upper), k

    def test_the_pass_sums_every_chunk_through_integrals(self, monkeypatch):
        # The benchmark tracer and the planted defects reach the batch sums at
        # their integrals bindings, so every job of every chunk must call them there.
        calls = {"power_bracket_sums": 0, "exp_bracket_sums": 0}
        for name in calls:
            real = getattr(integrals, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(integrals, name, counted)
        count, rows = 1000, 512
        monkeypatch.setattr(subordinator, "CHUNK_ROWS", rows)
        experiments._moment_sums(self.JOBS, SeedSpec(505, 4), count)
        chunks = math.ceil(count / rows)
        power_jobs = sum(isinstance(kernel, SingularKernel) for _, _, kernel in self.JOBS)
        assert calls == {"power_bracket_sums": chunks * power_jobs,
                         "exp_bracket_sums": chunks * (len(self.JOBS) - power_jobs)}


class TestPathBlocks:
    # sample_path_values and _ibp_sums work CHUNK_ROWS rows at a time.  Each
    # block must give the rows of the whole-batch evaluation, bit for bit.
    # Count 1 is one short block; 904 ends in a ragged block at 12 and 512 rows.
    KERNEL = SingularKernel(theta=1.0)
    GRID = KERNEL.default_grid()
    SEED = SeedSpec(505, 3)

    @staticmethod
    def chunk_rows(monkeypatch, rows):
        monkeypatch.setattr(subordinator, "CHUNK_ROWS", rows)

    def whole_values(self, alpha, count):
        """The batch's paths, transformed and assembled in one piece."""
        u, w = subordinator.kanter_inputs(self.SEED, (count, len(self.GRID)))
        [draws] = subordinator.kanter_draws((alpha,), u, w)
        return np.cumsum(draws * np.diff(self.GRID.points, prepend=0.0) ** (1.0 / alpha), axis=1)

    @pytest.mark.parametrize("count", [1, 904, 4096])
    def test_path_blocks_do_not_change_a_bit(self, monkeypatch, count):
        whole = self.whole_values(0.3, count)
        for rows in (4, 12, 512, count):
            self.chunk_rows(monkeypatch, rows)
            assert np.array_equal(sample_path_values(StableParams(0.3), self.GRID, self.SEED, count), whole), rows

    @pytest.mark.parametrize("count", [1, 904, 4096])
    def test_ibp_blocks_do_not_change_a_bit(self, monkeypatch, count):
        points = self.GRID.points
        values = self.whole_values(0.5, count)
        direct = self.KERNEL.bracket_sums(points, np.diff(values, axis=1))
        via_parts = ibp_bracket_sums(points, values, self.KERNEL.theta)
        probes = experiments._stream(self.SEED.master_seed, 1, self.SEED.replicate_index).generator().random(count)
        low, high = experiments.ABEL_PROBE_THETAS
        abel = integrals._abel_discrepancies(points, values, low + probes * (high - low))
        # Both routes' sums reach the meet test: record them there, block by block.
        sides = []

        def meet(*args):
            sides.append(args[:4])
            return _brackets_meet(*args)

        monkeypatch.setattr(experiments, "_brackets_meet", meet)
        for rows in (4, 12, 512, count):
            self.chunk_rows(monkeypatch, rows)
            sides.clear()
            met, discrepancies = experiments._ibp_sums(0.5, self.GRID, self.KERNEL, self.SEED, count)
            assert met and np.array_equal(discrepancies, abel), rows
            assert len(sides) == math.ceil(count / rows)
            for got, expected in zip(np.concatenate(sides, axis=1), (*direct, *via_parts), strict=True):
                assert np.array_equal(got, expected), rows

    @pytest.mark.parametrize("run", [
        lambda seed: sample_path_values(StableParams(0.3), TestPathBlocks.GRID, seed, BATCH_SIZE),
        lambda seed: experiments._ibp_sums(0.5, TestPathBlocks.GRID, TestPathBlocks.KERNEL, seed, BATCH_SIZE),
    ], ids=["sample_path_values", "_ibp_sums"])
    def test_a_path_batch_peaks_below_4_mib(self, run):
        # U and W of 4096 x 41 take 2.6 MiB; the blocks' temporaries add about
        # 0.8 MiB.  A batch transformed and assembled whole peaks at 6.4 MiB.
        run(self.SEED)
        tracemalloc.start()
        try:
            run(self.SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak / 2**20

    def test_a_non_finite_draw_counts_its_block(self):
        # At alpha = 0.01 a few Kanter draws in a thousand are not finite: the
        # first block of paths holding one names its own draws.
        grid = TimeGrid.geometric(1.0, levels=20)
        draws = subordinator.CHUNK_ROWS * len(grid)
        pattern = rf"^alpha = 0\.01 leaves the sampler's double range: \d+ of {draws} stable draws"
        with pytest.raises(subordinator.NonFiniteDrawError, match=pattern):
            sample_path_values(StableParams(0.01), grid, self.SEED, 2000)


@pytest.mark.parametrize("kernel, grid", [
    (SingularKernel(theta=1.0, T=2.0), TimeGrid.geometric(2.0, 40, 0.5)),
    (ExpKernel(lam=1.0, T=2.0), TimeGrid.uniform(2.0, 40)),
])
def test_kernel_protocol(monkeypatch, kernel, grid):
    assert np.array_equal(kernel.default_grid().points, grid.points)
    lower, upper = kernel.weights(grid.points)
    assert lower.shape == upper.shape == (len(grid) - 1,)
    assert np.all(lower <= upper)
    # A look-alike that is not a kernel is refused by its type, before any draw.
    monkeypatch.setattr(experiments, "kanter_inputs", lambda *args: pytest.fail("drew"))
    lookalike = types.SimpleNamespace(**dataclasses.asdict(kernel))
    with pytest.raises(TypeError, match="SimpleNamespace"):
        run_moment_checks([(StableParams(0.5), lookalike, 0.25, None)], n_replicates=500)


@pytest.mark.parametrize("workers", [1, 2])
def test_one_process_pool_per_run(monkeypatch, workers):
    # A pool where two tasks can run at once: more than one worker and CPU.
    size = min(workers, experiments._usable_cpus())
    pools = 1 if size > 1 else 0
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
    assert started == [size] * pools
    assert joined == [True] * pools
    assert multiprocessing.active_children() == []


def test_no_pool_on_one_cpu(monkeypatch):
    # On one usable CPU a pool of one process would only queue the tasks that
    # this process runs serially anyway: --workers 2 runs as --workers 1.
    def refuse(*args, **kwargs):
        raise AssertionError("a pool started on one CPU")

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", refuse)
    runs = {}
    for workers in ("1", "2"):
        result = CliRunner().invoke(main, ["verify-all", "--replicates", "5000", "--workers", workers])
        assert result.exit_code == 0, result.output
        runs[workers] = comparable_record_json(result.output)
    assert runs["2"] == runs["1"]


def test_workers_stop_at_the_cpus(monkeypatch):
    # A forked pool starts all its processes at the first task, so a pool
    # sized by --workers alone would fork 100 000.  The spy refuses such a
    # pool before it starts a process.
    cpus = experiments._usable_cpus()
    sizes = []

    class CpuBoundPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, max_workers=None, **kwargs):
            if max_workers > cpus:
                raise AssertionError(f"a pool of {max_workers} processes on {cpus} CPUs")
            sizes.append(max_workers)
            super().__init__(*args, max_workers=max_workers, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CpuBoundPool)
    result = CliRunner().invoke(main, ["verify-all", "--replicates", "5000", "--workers", "100000"])
    assert result.exit_code == 0, result.output
    assert sizes == [cpus] * (cpus > 1)
    assert json.loads(result.output)["config"]["workers"] == 100_000


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the spy reaches pool workers only through fork")
def test_verify_all_sections_run_serially_in_pool_workers(monkeypatch, tmp_path):
    # At 2 workers each section but the moment grid is one pool task: it runs
    # in a worker, where no pool is open, so its batches run serially there.
    # The grid's pass runs in this process and spreads its batches over the pool.
    log = tmp_path / "batches.log"
    real_batches = experiments._sample_batches
    here = str(os.getpid())

    def batches(task, *args):
        serial = experiments._RUN_POOL is None
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {task.func.__name__} {serial}\n")
        if str(os.getpid()) != here and not serial:
            # A worker mapping onto the pool handle it inherited would hang.
            raise RuntimeError("a pool worker holds its parent's pool")
        return real_batches(task, *args)

    monkeypatch.setattr(experiments, "_sample_batches", batches)
    result = CliRunner().invoke(main, ["verify-all", "--replicates", "5000", "--workers", "2"])
    calls = [tuple(line.split()) for line in log.read_text().splitlines()]
    sections = [call for call in calls if call[1] != "_moment_sums"]
    assert all(pid != here and serial == "True" for pid, _, serial in sections), sections
    assert {name for _, name, _ in sections} == {"sample_standard_stable_batch", "_blowup_sums", "_ibp_sums"}
    assert [call for call in calls if call[1] == "_moment_sums"] == [(here, "_moment_sums", "False")]
    assert result.exit_code == 0, result.output


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


def test_the_benchmark_tracer_finds_what_it_names():
    # perfbench/tracing.py wraps only the functions in a module's __all__ and
    # counts some of them by name; a renamed one would zero its metric silently.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    functions = tracing.BATCH_SUMS | tracing.SERIALIZERS | {"experiments.ks_distance"}
    for name in sorted(functions):
        module_name, attr = name.split(".")
        module = importlib.import_module(f"stablesub.{module_name}")
        assert attr in module.__all__ and inspect.isfunction(getattr(module, attr)), name
    module_name, attr = tracing.POOL_SPAN.split(".")
    assert hasattr(importlib.import_module(f"stablesub.{module_name}"), attr)


# verify-all at a small count: each table row must be the record of its own
# subcommand at the same keys, count and seed, bit for bit.
SMALL_RUN = ["--replicates", "1000", "--seed", "5"]


def _record(*args) -> dict:
    result = CliRunner().invoke(main, [str(arg) for arg in args])
    assert result.exit_code in (0, 1), result.output  # a failed verdict changes no number
    return json.loads(result.output)


@pytest.fixture(scope="module")
def small_verify_all():
    return _record("verify-all", *SMALL_RUN)


@pytest.mark.parametrize("table, command, keys", [
    ("bound_theta_grid", ["bound-theta"], ["--alpha", "--theta", "--p"]),
    ("bound_exp_grid", ["bound-exp", "--alpha", 0.5, "--p", 0.25], ["--lambda", "--T"]),
])
def test_verify_all_bound_rows_are_their_subcommands(small_verify_all, table, command, keys):
    rows = small_verify_all["series"][f"{table}_cells"]["rows"]
    assert len(rows) == small_verify_all["results"][table]["n_cells"]
    verdicts = []
    for row in rows:
        record = _record(*command, *[item for pair in zip(keys, row) for item in pair], *SMALL_RUN)
        results = record["results"]
        assert row[len(keys):] == [results[name] for name in ("bound_value", "upper_mean", "upper_std_error",
                                                              "margin")], row
        verdicts.append(record["verdicts"]["moment_bound"])
    assert small_verify_all["verdicts"][f"{table}.all_cells_pass"] == ("pass" if set(verdicts) == {"pass"}
                                                                       else "fail")


def test_verify_all_blowup_rows_are_their_subcommands(small_verify_all):
    series, verdicts = small_verify_all["series"], []
    for theta, *numbers in series["blowup_slopes_slopes"]["rows"]:
        record = _record("blowup", "--alpha", 0.5, "--theta", theta, *SMALL_RUN)
        results = record["results"]
        assert numbers == [results["fitted_slope"], results["expected_slope"], results["residual"]], theta
        verdicts.append(record["verdicts"]["blowup_slope"])
    assert small_verify_all["verdicts"]["blowup_slopes.slopes_match"] == ("pass" if set(verdicts) == {"pass"}
                                                                          else "fail")
    record = _record("blowup", "--alpha", 0.5, "--theta", 1.0, "--grid-levels", 40, *SMALL_RUN)
    medians = [row[:2] for row in record["series"]["truncated_lower_sum"]["rows"]]
    assert series["finiteness_stabilization_lower_sum_medians"]["rows"] == medians
    assert small_verify_all["results"]["finiteness_stabilization"]["median_at_2^-40"] == dict(medians)[2.0**-40]


def test_verify_all_raises_a_cap_below_a_floor_to_the_floor(monkeypatch):
    # At 3 replicates, KS_MIN_REPLICATES, the cdf cell and the ibp cell run the
    # cap itself, every blowup cell runs blowup's floor of paths, and the oracle
    # chain draws ten per replicate.
    real, counts = reporting.run_blowup_diagnostics, []

    def blowup(params, thetas, **kwargs):
        counts.append((thetas, kwargs["n_replicates"]))
        return real(params, thetas, **kwargs)

    monkeypatch.setattr(reporting, "run_blowup_diagnostics", blowup)
    results = _record("verify-all", "--replicates", KS_MIN_REPLICATES, "--seed", 1)["results"]
    assert counts == [((2.5, 3.0, 4.0), BLOWUP_MIN_REPLICATES), ((1.0,), BLOWUP_MIN_REPLICATES)]
    assert results["cdf"]["n_replicates"] == 3
    assert results["ibp"]["n_paths"] == 3
    assert results["frac_moment_chain"]["n_replicates"] == 30


class TestBlowupDiagnostic:
    def test_supercritical_slope(self):
        [report] = run_blowup_diagnostics(StableParams(0.5), (3.0,), n_replicates=2000, master_seed=601)
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
        [report] = run_blowup_diagnostics(StableParams(0.5), (2.0,), n_replicates=500, master_seed=602)
        assert report.boundary_inconclusive
        assert report.expected_slope == pytest.approx(0.0)

    def test_subcritical_lower_sums_stabilize(self):
        [report] = run_blowup_diagnostics(
            StableParams(0.5), (1.0,), max_level=40, n_replicates=2000, master_seed=603,
        )
        assert abs(report.lower_sum_slope) <= 0.02
        med = dict(zip(report.epsilons, report.lower_sum_medians))
        change = abs(med[2.0**-40] - med[2.0**-35]) / med[2.0**-35]
        assert change < 0.01
        # medians nondecreasing in depth: deeper truncation only adds terms
        assert med[2.0**-40] >= med[2.0**-35]

    def test_median_replicate_floor(self):
        with pytest.raises(ValueError):
            run_blowup_diagnostics(StableParams(0.5), (3.0,), n_replicates=50)

    @pytest.mark.parametrize("n", [101, 100])
    def test_medians_equal_numpy_median(self, n):
        # The middle of the sorted column (the mean of the two middles for even
        # n), NaN where the column holds one, as np.median gives them.
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((n, 7))
        matrix[:, 1] = rng.uniform(0.6, 1.0, n) * 1.7e308  # two middles' sum overflows, as in np.median
        matrix[3, 2] = np.nan
        matrix[:2, 3] = np.inf
        matrix[-5:, 4] = -np.inf
        matrix[: n // 2, 5], matrix[n // 2 :, 5] = np.inf, -np.inf  # even n: -inf and inf in the middle
        matrix[:, 6] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            medians, lower, upper = experiments._median_with_ci(matrix)
            expected = np.median(matrix, axis=0)
        np.testing.assert_array_equal(medians, expected)
        assert all(isinstance(value, float) for value in medians + lower + upper)


class TestGroupedBlowupDiagnostics:
    # Three supercritical exponents on one set of paths; 5000 replicates span two batches.
    THETAS = (2.5, 3.0, 4.0)
    N = 5000
    SEED = 604

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grouped_reports_equal_one_theta_reports(self, monkeypatch, workers):
        grids = []
        real_geometric = TimeGrid.geometric
        monkeypatch.setattr(TimeGrid, "geometric",
                            lambda *args, **kw: grids.append(args) or real_geometric(*args, **kw))
        with experiments._worker_pool(workers):
            grouped = run_blowup_diagnostics(StableParams(0.5), self.THETAS, n_replicates=self.N,
                                             master_seed=self.SEED)
        assert len(grids) == 1  # the arguments are checked, and the grid built, once per call
        for theta, report in zip(self.THETAS, grouped, strict=True):
            [single] = run_blowup_diagnostics(StableParams(0.5), (theta,), n_replicates=self.N,
                                              master_seed=self.SEED)
            for field in dataclasses.fields(report):
                assert getattr(report, field.name) == getattr(single, field.name), (theta, field.name)


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

    def test_zero_standard_errors_fail_scaling(self, monkeypatch):
        # Constant draws give every horizon a zero standard error: a pair of
        # them has no combined error to measure against, so it fails.
        monkeypatch.setattr(experiments, "draw_standard_samples", lambda alpha, n, *args: np.ones(n))
        report = run_scaling_check(StableParams(0.5), 0.25, n_replicates=1000)
        assert report.std_errors == (0.0, 0.0, 0.0)
        assert not report.max_deviation_sigmas <= 3.0
        assert not report.passed

    def test_nan_mean_at_one_horizon_fails_scaling(self, monkeypatch):
        real = MomentEstimate.from_samples.__func__
        calls = []

        def from_samples(cls, samples):
            calls.append(None)
            est = real(cls, samples)
            return dataclasses.replace(est, mean=math.nan) if len(calls) == 2 else est

        monkeypatch.setattr(MomentEstimate, "from_samples", classmethod(from_samples))
        report = run_scaling_check(StableParams(0.5), 0.25, n_replicates=1000)
        assert math.isnan(report.normalized_means[1])
        assert math.isnan(report.max_deviation_sigmas)
        assert not report.passed

    def test_nan_quadrature_cell_fails_oracle_chain(self, monkeypatch):
        real = reporting.frac_moment_quadrature
        monkeypatch.setattr(reporting, "frac_moment_quadrature",
                            lambda q: math.nan if (q.alpha, q.t) == (0.3, 0.25) else real(q))
        [(verdicts, results, _)] = reporting._oracle_chain_section(1000, 12345)
        assert math.isnan(results["max_relative_difference"])
        assert verdicts["quadrature_agrees_closed_form"] == "fail"

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

    def test_nan_abel_discrepancy_fails(self, monkeypatch):
        # The probe fence refuses every grid whose probes overflow, so a NaN
        # discrepancy is planted: one row of one batch.
        real = experiments._abel_discrepancies

        def one_nan(*args):
            discrepancies = real(*args)
            discrepancies[7] = math.nan
            return discrepancies

        monkeypatch.setattr(experiments, "_abel_discrepancies", one_nan)
        report = run_ibp_consistency(StableParams(0.5), theta=1.0, n_paths=50, master_seed=12345)
        assert math.isnan(report.max_abel_discrepancy)
        assert not report.abel_identity and not report.passed
        assert report.all_brackets_intersect and report.classical_integrals

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
            run_moment_checks([(StableParams(0.03), SingularKernel(theta=30.0), 0.01, None)],
                              n_replicates=100)

    def test_blowup_rejects_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled a diagnostic that cannot be evaluated")

        monkeypatch.setattr(subordinator, "kanter_inputs", no_sampling)
        # theta * |ln 2^-30| = 1247.7 > 700, next to an exponent that fits.
        with pytest.raises(ValueError, match=r"theta \* \|ln\(grid epsilon\)\| must be <= 700"):
            run_blowup_diagnostics(StableParams(0.5), (3.0, 60.0), n_replicates=200)
        # epsilon = T * 2^-max_level = 2^-60: theta * |ln epsilon| = 831.8.
        with pytest.raises(ValueError, match="must be <= 700"):
            run_blowup_diagnostics(StableParams(0.5), (20.0,), T=2.0**-20, max_level=40,
                                   n_replicates=200)

    @pytest.mark.parametrize("T, levels", [(1e-70, 40), (1e-100, 40), (1.0, 300), (1e154, 40)])
    def test_ibp_rejects_abel_probe_overflow_before_sampling(self, monkeypatch, T, levels):
        monkeypatch.setattr(subordinator, "kanter_inputs", lambda *args: pytest.fail("drew"))
        # theta = 1/2 fits, but the probes' 4.05 * |ln epsilon| exceeds 700.
        grid = TimeGrid.geometric(T, levels=levels, q=0.5)
        with pytest.raises(ValueError, match=r"Abel probes' .* for theta up to 4\.05 at grid epsilon"):
            run_ibp_consistency(StableParams(0.5), T=T, n_paths=100, grid=grid)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_ibp_consistency(StableParams(0.5), T=1e-300, n_paths=100,
                                        grid=TimeGrid.geometric(1e-300, levels=40, q=0.5)),
            lambda: run_moment_checks([(StableParams(0.5), SingularKernel(0.1, T=1e-300), 0.25, None)],
                                      n_replicates=100),
            lambda: run_moment_checks([(StableParams(0.5), ExpKernel(1.0, T=1e-300), 0.25, None)],
                                      n_replicates=100),
            lambda: run_blowup_diagnostics(StableParams(0.5), (3.0,), T=1e-300, n_replicates=200),
            lambda: run_scaling_check(StableParams(0.5), 0.25, times=(1e-300, 1.0), n_replicates=100),
        ],
        ids=["ibp", "power moment cell", "exp moment cell", "blowup", "scaling"],
    )
    def test_underflowing_path_scale_is_refused_before_sampling(self, monkeypatch, run):
        # 1e-300^(1/alpha) = 1e-600 underflows: every increment would be 0.
        monkeypatch.setattr(subordinator, "kanter_inputs", lambda *args: pytest.fail("drew"))
        monkeypatch.setattr(experiments, "kanter_inputs", lambda *args: pytest.fail("drew"))
        with pytest.raises(ValueError, match=r"= 1e-300 leaves double range at alpha = 0\.5: .* underflows$"):
            run()


@pytest.mark.parametrize(
    "args",
    [
        "laplace --replicates 300",
        "cdf --replicates 300",
        "scaling --alpha 0.5 --replicates 300",
        "bound-theta --alpha 0.5 --theta 1 --replicates 300",
        "bound-exp --alpha 0.5 --replicates 300",
        "blowup --alpha 0.5 --theta 3 --replicates 200 --grid-levels 20",
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
    workers = [] if args.startswith("ibp") else ["--workers", "1"]  # ibp reads no workers
    result = CliRunner().invoke(main, args.split() + workers)
    assert result.exit_code in (0, 1), result.output
    assert draws, "the run drew nothing"
    assert all(draws), f"{draws.count(0)} of {len(draws)} draws outside _sample_batches"
