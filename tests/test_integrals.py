"""Bracket estimators: classical anchors, exact identities, dual-route checks."""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablesub import (
    ExpKernel,
    FracMomentQuery,
    SeedSpec,
    SingularKernel,
    StableParams,
    SubordinatorPath,
    TimeGrid,
    abel_identity_check,
    deterministic_path,
    frac_moment_closed_form,
    ibp_estimate,
    sample_path,
    sample_path_values,
    stieltjes_bracket,
)
from stablesub.integrals import (
    LOG_SPACE_THRESHOLD,
    IntegralBracket,
    _abel_discrepancies,
    _brackets_meet,
    _log_power_sums,
    _logsumexp,
    _time_integral_sums,
    ibp_bracket_sums,
)

GRID = TimeGrid.geometric(1.0, levels=40, q=0.5)
PARAMS = StableParams(0.5)


def random_paths(n, grid=GRID, alpha=0.5, master=1001):
    values = sample_path_values(StableParams(alpha), grid, SeedSpec(master, 0), n)
    return [SubordinatorPath(grid=grid, values=row) for row in values]


class TestKernels:
    def test_domains(self):
        with pytest.raises(ValueError):
            SingularKernel(theta=-0.1)
        with pytest.raises(ValueError):
            SingularKernel(theta=1.0, T=0.0)
        with pytest.raises(ValueError):
            ExpKernel(lam=0.0)
        SingularKernel(theta=0.0)  # degenerate constant kernel is allowed

    @pytest.mark.parametrize("build, message", [
        (lambda: SingularKernel(theta=math.inf), "theta must be >= 0 and finite, got inf"),
        (lambda: SingularKernel(theta=1.0, T=math.inf), "T must be > 0 and finite, got inf"),
        (lambda: ExpKernel(lam=math.inf), "lambda must be > 0 and finite, got inf"),
        (lambda: ExpKernel(lam=1.0, T=math.nan), "T must be > 0 and finite, got nan"),
    ])
    def test_non_finite_parameters_refused(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("kernel", [SingularKernel(theta=0.5, T=2.0), ExpKernel(lam=1.0, T=2.0)],
                             ids=["power", "exp"])
    def test_horizon_mismatch_rejected(self, kernel):
        with pytest.raises(ValueError):
            stieltjes_bracket(deterministic_path(GRID), kernel)


class TestClassicalAnchors:
    def test_power_integral_on_identity_path(self):
        # int_eps^1 t^(-1/2) dt = 2 (1 - sqrt(eps)) ~ 2 must sit inside the bracket.
        det = deterministic_path(GRID)
        bracket = stieltjes_bracket(det, SingularKernel(theta=0.5, T=1.0))
        target = 2.0 * (1.0 - math.sqrt(GRID.epsilon))
        assert bracket.contains(target)
        assert bracket.contains(2.0 - 1e-5)

    def test_gap_shrinks_under_midpoint_refinement(self):
        kernel = SingularKernel(theta=0.5, T=1.0)
        gaps = []
        for factor in (1, 2, 4, 8):
            det = deterministic_path(GRID.refined(factor))
            bracket = stieltjes_bracket(det, kernel)
            gaps.append(bracket.gap)
            assert bracket.contains(2.0 * (1.0 - math.sqrt(GRID.epsilon)))
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1] and gaps[3] < gaps[2]
        # halving cells halves the kernel variation per cell
        assert gaps[1] == pytest.approx(gaps[0] / 2.0, rel=0.1)

    def test_exp_integral_on_identity_path(self):
        grid = TimeGrid.uniform(1.0, levels=64)
        bracket = stieltjes_bracket(deterministic_path(grid), ExpKernel(lam=1.0, T=1.0))
        assert bracket.contains(1.0 - math.exp(-(1.0 - grid.epsilon)))
        assert bracket.gap < 0.02

    def test_exp_kernel_vanishing_rate_collapses(self):
        path = sample_path(PARAMS, GRID, SeedSpec(5, 1))
        bracket = stieltjes_bracket(path, ExpKernel(lam=1e-12, T=1.0))
        total = path.values[-1] - path.values[0]
        assert bracket.lower == pytest.approx(total, rel=1e-9)
        assert bracket.upper == pytest.approx(total, rel=1e-9)

    def test_constant_kernel_telescopes(self):
        path = sample_path(PARAMS, GRID, SeedSpec(5, 2))
        bracket = stieltjes_bracket(path, SingularKernel(theta=0.0, T=1.0))
        total = path.values[-1] - path.values[0]
        assert bracket.lower == bracket.upper == pytest.approx(total, rel=1e-12)

    def test_ibp_constant_kernel_is_boundary_terms(self):
        path = sample_path(PARAMS, GRID, SeedSpec(5, 3))
        bracket = ibp_estimate(path, SingularKernel(theta=0.0, T=1.0))
        total = path.values[-1] - path.values[0]
        assert bracket.lower == pytest.approx(total, rel=1e-12)
        assert bracket.upper == pytest.approx(total, rel=1e-12)

    def test_ibp_identity_path_matches_classical(self):
        det = deterministic_path(GRID.refined(8))
        bracket = ibp_estimate(det, SingularKernel(theta=0.5, T=1.0))
        assert bracket.contains(2.0 * (1.0 - math.sqrt(GRID.epsilon)))


class TestBracketValidity:
    def test_lower_le_upper_everywhere(self):
        rng = np.random.default_rng(7)
        for path in random_paths(200):
            theta = 0.05 + 4.0 * rng.random()
            lam = 0.1 + 3.0 * rng.random()
            for kernel in (SingularKernel(theta=theta, T=1.0), ExpKernel(lam=lam, T=1.0)):
                b = stieltjes_bracket(path, kernel)
                assert b.lower <= b.upper
            t_lower, t_upper = _time_integral_sums(path.grid.points, path.values, theta)
            assert t_lower <= t_upper

    def test_brackets_enclose_fine_resolution_value(self):
        # The bracket from the coarse view of a path must contain the sums
        # computed at full resolution (coupled subsampling).
        kernel = SingularKernel(theta=1.0, T=1.0)
        fine_grid = GRID.refined(4)
        for seed in range(50):
            fine = sample_path(PARAMS, fine_grid, SeedSpec(31, seed))
            coarse = SubordinatorPath(grid=GRID, values=fine.values[::4])
            fine_bracket = stieltjes_bracket(fine, kernel)
            coarse_bracket = stieltjes_bracket(coarse, kernel)
            assert coarse_bracket.lower <= fine_bracket.lower
            assert fine_bracket.upper <= coarse_bracket.upper

    def test_refinement_shrinks_gap_pathwise_and_in_mean(self):
        kernel = SingularKernel(theta=1.0, T=1.0)
        fine_grid = GRID.refined(2)
        coarse_gaps, fine_gaps = [], []
        for seed in range(1000):
            fine = sample_path(PARAMS, fine_grid, SeedSpec(33, seed))
            coarse = SubordinatorPath(grid=GRID, values=fine.values[::2])
            gap_fine = stieltjes_bracket(fine, kernel).gap
            gap_coarse = stieltjes_bracket(coarse, kernel).gap
            assert gap_fine <= gap_coarse
            fine_gaps.append(gap_fine)
            coarse_gaps.append(gap_coarse)
        assert np.mean(fine_gaps) < np.mean(coarse_gaps)
        # distributional version on independent replicates: medians halve
        ind_fine = [
            stieltjes_bracket(sample_path(PARAMS, fine_grid, SeedSpec(34, s)), kernel).gap
            for s in range(1000)
        ]
        assert np.median(ind_fine) < np.median(coarse_gaps)

    def test_lower_sum_stabilizes_for_subcritical_exponent(self):
        # Monotone in the truncation: deepening epsilon only adds terms, and
        # the additions become negligible for theta < 1/alpha.
        kernel_theta = 1.0
        deep = TimeGrid.geometric(1.0, levels=40)
        values = sample_path_values(PARAMS, deep, SeedSpec(35, 0), 400)
        tail_terms = np.diff(values, axis=1) * deep.points[1:] ** -kernel_theta
        suffix = np.cumsum(tail_terms[:, ::-1], axis=1)[:, ::-1]
        med_20 = np.median(suffix[:, 20])  # truncation at 2^-20
        med_40 = np.median(suffix[:, 0])  # truncation at 2^-40
        assert med_40 >= med_20
        assert (med_40 - med_20) / med_20 < 0.01


class TestAbelIdentity:
    def test_discrepancy_tiny_on_random_pairs(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for path in random_paths(300, master=1003):
            theta = 0.05 + 4.0 * rng.random()
            worst = max(worst, abel_identity_check(path, SingularKernel(theta=theta, T=1.0)))
        assert worst <= 1e-10

    def test_identity_path(self):
        det = deterministic_path(GRID)
        assert abel_identity_check(det, SingularKernel(theta=0.5, T=1.0)) <= 1e-10

    def test_single_interval_grid(self):
        grid = TimeGrid(points=np.array([0.5, 1.0]))
        path = sample_path(PARAMS, grid, SeedSpec(4, 4))
        assert abel_identity_check(path, SingularKernel(theta=1.3, T=1.0)) <= 1e-10


class TestDualRoute:
    def test_ibp_and_stieltjes_intersect(self):
        kernel = SingularKernel(theta=1.0, T=1.0)
        for path in random_paths(1000, master=1005):
            assert stieltjes_bracket(path, kernel).intersects(ibp_estimate(path, kernel))

    def test_intersection_across_exponents(self):
        rng = np.random.default_rng(23)
        for path in random_paths(200, master=1007):
            kernel = SingularKernel(theta=0.05 + 4.0 * rng.random(), T=1.0)
            assert stieltjes_bracket(path, kernel).intersects(ibp_estimate(path, kernel))


def one_row_time_integral(pts, vals, theta):
    """Time-integral sums with 1-D dot products, as the per-path estimator computed them."""
    if theta == 0.0:
        cell = np.log(pts[1:] / pts[:-1])
    else:
        kernel_vals = pts**-theta
        cell = (kernel_vals[:-1] - kernel_vals[1:]) / theta
    return float(vals[:-1] @ cell), float(vals[1:] @ cell)


def one_row_abel(pts, vals, theta):
    """Abel discrepancy with 1-D dot products, as the per-path check computed it."""
    f = pts**-theta
    left_sum = float(f[:-1] @ np.diff(vals))
    right_sum = float(vals[1:] @ np.diff(f))
    boundary = f[-1] * vals[-1] - f[0] * vals[0]
    scale = abs(left_sum) + abs(right_sum) + abs(boundary)
    return 0.0 if scale == 0.0 else abs(left_sum + right_sum - boundary) / scale


class TestRowWiseCores:
    """Each row-wise core equals its per-path estimator bit for bit, and the
    per-path estimators equal the 1-D arithmetic they used before the cores."""

    VALUES = sample_path_values(PARAMS, GRID, SeedSpec(1017, 0), 500)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 2.5])
    def test_ibp_and_time_integral_rows(self, theta):
        kernel = SingularKernel(theta=theta, T=1.0)
        pts = GRID.points
        ibp_lower, ibp_upper = ibp_bracket_sums(pts, self.VALUES, theta)
        time_lower, time_upper = _time_integral_sums(pts, self.VALUES, theta)
        for i, row in enumerate(self.VALUES):
            path = SubordinatorPath(grid=GRID, values=row)
            one_lower, one_upper = one_row_time_integral(pts, row, theta)
            time_part = _time_integral_sums(pts, row, theta)
            assert time_part == (time_lower[i], time_upper[i])
            assert time_part == (one_lower, one_upper)
            ibp = ibp_estimate(path, kernel)
            assert (ibp.lower, ibp.upper) == (ibp_lower[i], ibp_upper[i])
            boundary = 1.0**-theta * row[-1] - GRID.epsilon**-theta * row[0]
            expected = (boundary + theta * one_lower, boundary + theta * one_upper)
            assert (ibp.lower, ibp.upper) == expected

    @pytest.mark.parametrize("theta", [0.0, 0.5, 2.5])
    def test_abel_rows(self, theta):
        # One probe exponent per row: the fixed theta on even rows, random ones on odd rows.
        n = len(self.VALUES)
        random = 0.05 + 4.0 * np.random.default_rng(19).random(n)
        thetas = np.where(np.arange(n) % 2 == 0, theta, random)
        rows = _abel_discrepancies(GRID.points, self.VALUES, thetas)
        for row, probe, discrepancy in zip(self.VALUES, thetas, rows):
            path = SubordinatorPath(grid=GRID, values=row)
            assert abel_identity_check(path, SingularKernel(theta=probe, T=1.0)) == discrepancy
            assert one_row_abel(GRID.points, row, probe) == discrepancy

    def test_log_space_rows(self):
        kernel = SingularKernel(theta=30.0, T=1.0)  # theta |ln eps| ~ 832 > 700
        lower, upper = _log_power_sums(GRID.points, self.VALUES, kernel.theta)
        for i, row in enumerate(self.VALUES):
            path = SubordinatorPath(grid=GRID, values=row)
            bracket = stieltjes_bracket(path, kernel)
            assert bracket.log_scale
            assert (bracket.lower, bracket.upper) == (lower[i], upper[i])
            # Summation by parts has no log-space form: it is refused by name.
            with pytest.raises(ValueError, match=r"theta \* \|ln\(grid epsilon\)\| must be <= 700"):
                ibp_estimate(path, kernel)

    def test_log_space_zero_increments_add_nothing(self):
        values = np.array([[0.0, 0.0, 1.0, 1.0, 3.0], [2.0, 2.0, 2.0, 2.0, 2.0]])
        points = np.array([0.125, 0.25, 0.5, 0.75, 1.0])
        lower, upper = _log_power_sums(points, values, 2.0)
        assert lower[0] == pytest.approx(math.log(0.5**-2 * 1.0 + 1.0 * 2.0), rel=1e-15)
        assert upper[0] == pytest.approx(math.log(0.25**-2 * 1.0 + 0.75**-2 * 2.0), rel=1e-15)
        assert lower[1] == upper[1] == -math.inf


class TestIntersectionSlack:
    def test_rounding_level_miss_meets_with_slack(self):
        one, next_up = np.array([1.0]), np.array([1.0 + 2.0**-52])
        assert not IntegralBracket(1.0, 1.0).intersects(IntegralBracket(next_up[0], next_up[0]))
        assert not _brackets_meet(one, one, next_up, next_up)[0]
        assert _brackets_meet(one, one, next_up, next_up, 1e-10)[0]

    def test_relative_gap_above_tolerance_still_fails(self):
        shifted = 5.0 * (1.0 + 1e-9)
        five = np.array([5.0, 5.0])
        rows = _brackets_meet(five, five, np.array([shifted, 5.0]), np.array([shifted, 6.0]), 1e-10)
        assert rows.tolist() == [False, True]
        rows = _brackets_meet(np.array([shifted]), np.array([shifted]), five[:1], five[:1], 1e-10)
        assert rows.tolist() == [False]

    def test_nan_never_meets_and_equal_infinite_ends_do(self):
        nan = np.array([math.nan])
        assert not _brackets_meet(nan, nan, np.array([1.0]), np.array([2.0]), 1e-10)[0]
        minus_inf = np.array([-math.inf])
        assert _brackets_meet(minus_inf, minus_inf, minus_inf, minus_inf, 1e-10)[0]

    def test_invalid_rows_raise(self):
        with pytest.raises(ValueError, match="invalid bracket: lower=3.0 > upper=2.0"):
            IntegralBracket.check_rows(np.array([1.0, 3.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="invalid bracket"):
            IntegralBracket(math.nan, 1.0)


class TestLogSpaceGuard:
    def test_flag_and_values(self):
        path = sample_path(PARAMS, GRID, SeedSpec(6, 6))
        kernel = SingularKernel(theta=30.0, T=1.0)  # theta |ln eps| ~ 832 > 700
        bracket = stieltjes_bracket(path, kernel)
        assert bracket.log_scale
        assert bracket.lower <= bracket.upper
        # cross-check the log-space sum against a high-headroom direct sum
        inc = np.diff(path.values).astype(np.longdouble)
        pts = path.grid.points.astype(np.longdouble)
        direct = np.log(np.sum(pts[1:] ** np.longdouble(-30.0) * inc))
        assert float(direct) == pytest.approx(bracket.lower, rel=1e-10)

    def test_linear_scale_below_threshold(self):
        path = sample_path(PARAMS, GRID, SeedSpec(6, 7))
        bracket = stieltjes_bracket(path, SingularKernel(theta=5.0, T=1.0))
        assert not bracket.log_scale


class TestLogSumExp:
    """_logsumexp against mpmath; scipy is no reference, its algorithm changed after 1.13."""

    @staticmethod
    def reference(row):
        with mp.workdps(40):
            return float(mp.log(mp.fsum(mp.exp(mp.mpf(float(v))) for v in row if v != -np.inf)))

    def test_against_mpmath(self):
        rng = np.random.default_rng(17)
        for scale in (1.0, 30.0, 700.0):
            rows = rng.normal(0.0, scale, (40, 25))
            rows[rng.random(rows.shape) < 0.2] = -np.inf
            rows[::4, :3] = rows[::4, :1]  # ties at the maximum, among others
            rows[1::4] = np.round(rows[1::4])
            rows[:, 0] = np.maximum(rows[:, 0], 0.0)  # a finite entry in every row
            for value, row in zip(_logsumexp(rows), rows):
                ref = self.reference(row)
                assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref)), (row, value, ref)

    def test_all_minus_inf_row(self):
        rows = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, -np.inf]])
        assert _logsumexp(rows).tolist() == [-np.inf, 0.0]

    def test_ties(self):
        assert _logsumexp(np.full((1, 3), 5.0))[0] == np.log(3.0) + 5.0
        value = _logsumexp(np.array([[2.0, 2.0, 1.0, 2.0]]))[0]
        assert value == pytest.approx(self.reference([2.0, 2.0, 1.0, 2.0]), rel=1e-15)

    def test_infinite_maximum(self):
        assert _logsumexp(np.array([[np.inf, 0.0, np.inf]]))[0] == np.inf


class TestDyadicBlocks:
    def test_mc_mean_matches_block_moment_series(self):
        # E sum_k (block majorant)^p equals the partial sum of the scaled
        # geometric series with ratio 2^(p (theta - 1/alpha)); p < alpha/2
        # keeps the variance finite so a 4-sigma band is meaningful.
        # Each cell [T/2^(k+1), T/2^k] majorizes its share of
        # int t^(-theta-1) S_t dt by (left-endpoint kernel) x (right-endpoint
        # value) x (cell length).
        theta, p, alpha = 1.0, 0.2, 0.5
        values = sample_path_values(StableParams(alpha), GRID, SeedSpec(1013, 0), 3000)
        pts = GRID.points
        blocks = pts[:-1] ** (-theta - 1.0) * values[:, 1:] * np.diff(pts)
        samples = np.sum(blocks**p, axis=1)
        mean = np.mean(samples)
        se = np.std(samples, ddof=1) / math.sqrt(len(samples))
        moment = frac_moment_closed_form(FracMomentQuery(alpha, p, 1.0))
        truncated = moment * 2.0 ** (theta * p) * sum(
            2.0 ** (k * p * (theta - 1.0 / alpha)) for k in range(len(GRID) - 1)
        )
        infinite = moment * 2.0 ** (theta * p) / (1.0 - 2.0 ** (p * (theta - 1.0 / alpha)))
        assert abs(mean - truncated) <= 4.0 * se
        assert mean - 3.0 * se <= infinite


# --------------------------------------------------------------------------
# The per-path estimators as a property: on every path the sampler builds,
# each one answers, or refuses by name where epsilon^(-theta) leaves double
# range (only stieltjes_bracket has a log-space form).  T spans 1e-3..1e3;
# far smaller horizons push path values into subnormals, where the 1e-10
# Abel tolerance is not pinned.

FENCE = re.escape(f"theta * |ln(grid epsilon)| must be <= {LOG_SPACE_THRESHOLD:g}")


@st.composite
def path_cases(draw):
    """(alpha, theta in [0, 1/alpha), lambda, grid, seed) of one path and its kernels."""
    alpha = draw(st.floats(0.05, 0.95))
    theta = draw(st.floats(0.0, 1.0, exclude_max=True)) / alpha
    lam = 10.0 ** draw(st.floats(-3.0, 3.0))
    T, levels = 10.0 ** draw(st.floats(-3.0, 3.0)), draw(st.integers(1, 1000))
    geometric = draw(st.booleans())
    grid = TimeGrid.geometric(T, levels) if geometric else TimeGrid.uniform(T, levels)
    return alpha, theta, lam, grid, SeedSpec(draw(st.integers(0, 2**32)), 0)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(path_cases())
# theta |ln epsilon| ~ 1040: abel_identity_check once returned nan here.
@example((0.5, 1.5, 1.0, TimeGrid.geometric(1.0, 1000), SeedSpec(7, 0)))
def test_per_path_estimators_answer_or_refuse_by_name(case):
    alpha, theta, lam, grid, seed = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = sample_path(StableParams(alpha), grid, seed)
        power = SingularKernel(theta, grid.T)
        for kernel in (power, ExpKernel(lam, grid.T)):
            bracket = stieltjes_bracket(path, kernel)
            assert bracket.log_scale == kernel.needs_log_space(grid.epsilon)
            assert math.isfinite(bracket.lower) and bracket.lower <= bracket.upper < math.inf
        if power.needs_log_space(grid.epsilon):
            for estimator in (ibp_estimate, abel_identity_check):
                with pytest.raises(ValueError, match=FENCE):
                    estimator(path, power)
        else:
            via_parts = ibp_estimate(path, power)
            assert math.isfinite(via_parts.lower) and via_parts.lower <= via_parts.upper < math.inf
            assert abel_identity_check(path, power) <= 1e-10


@pytest.mark.xfail(strict=True, reason="the discrepancy's scale counts the boundary term after its "
                   "cancellation, so rounding in f(T) S_T - f(epsilon) S_epsilon reads as a defect")
def test_abel_discrepancy_at_tiny_theta_is_rounding_noise():
    path = sample_path(StableParams(0.0625), TimeGrid.geometric(1.0, 1), SeedSpec(0, 0))
    assert abel_identity_check(path, SingularKernel(1.6e-8, 1.0)) <= 1e-10
