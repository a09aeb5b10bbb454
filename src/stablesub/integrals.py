"""Bracketing estimators for pathwise Stieltjes integrals with monotone kernels.

Every estimator returns a rigorous lower/upper enclosure of the truncated
integral over [epsilon, T]: the kernel is monotone on each grid cell and the
integrator is nondecreasing, so evaluating the kernel at the favorable cell
endpoint bounds the cell contribution from either side.  No jump interior to
a cell is ever located; the bracket absorbs that uncertainty instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .subordinator import SubordinatorPath, TimeGrid

__all__ = [
    "ExpKernel",
    "IntegralBracket",
    "LOG_SPACE_THRESHOLD",
    "SingularKernel",
    "abel_identity_check",
    "exp_bracket_sums",
    "exp_kernel_integral",
    "ibp_bracket_sums",
    "ibp_estimate",
    "power_bracket_sums",
    "stieltjes_bracket",
]

# Natural-log scale beyond which epsilon^(-theta) leaves double range and the
# endpoint sums switch to log-space evaluation.
LOG_SPACE_THRESHOLD = 700.0


@dataclass(frozen=True)
class SingularKernel:
    """Power kernel t^(-theta) on (0, T], decreasing in t.

    theta = 0 is admitted as the degenerate constant kernel, for which both
    endpoint sums telescope to the total increment.
    """

    theta: float
    T: float = 1.0

    def __post_init__(self) -> None:
        if not self.theta >= 0.0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if not self.T > 0.0:
            raise ValueError(f"T must be > 0, got {self.T}")


@dataclass(frozen=True)
class ExpKernel:
    """Exponential kernel e^(-lam (T - t)), increasing in t."""

    lam: float
    T: float = 1.0

    def __post_init__(self) -> None:
        if not self.lam > 0.0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if not self.T > 0.0:
            raise ValueError(f"T must be > 0, got {self.T}")


@dataclass(frozen=True)
class IntegralBracket:
    """Enclosure [lower, upper] of a pathwise integral.

    When log_scale is set, both fields hold natural logarithms of the sums
    (the kernel overflowed double range and everything was accumulated in
    log space).
    """

    lower: float
    upper: float
    log_scale: bool = False

    def __post_init__(self) -> None:
        self.check_rows(self.lower, self.upper)

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def intersects(self, other: "IntegralBracket") -> bool:
        if self.log_scale != other.log_scale:
            raise ValueError("cannot intersect brackets on different scales")
        return bool(_brackets_meet(self.lower, self.upper, other.lower, other.upper))

    @staticmethod
    def check_rows(lower, upper) -> None:
        """Raise the invalid-bracket error for the first row where not lower <= upper."""
        lower, upper = np.ravel(lower), np.ravel(upper)
        bad = ~(lower <= upper)
        if np.any(bad):
            row = int(np.argmax(bad))
            raise ValueError(f"invalid bracket: lower={lower[row]} > upper={upper[row]}")


def _brackets_meet(lower_a, upper_a, lower_b, upper_b, rel_tol: float = 0.0):
    """Row-wise intersection test of [lower_a, upper_a] and [lower_b, upper_b].

    The slack rel_tol * (largest magnitude) absorbs rounding where both
    brackets shrink to one point (theta = 0); a NaN never meets anything.
    """
    lo = np.maximum(lower_a, lower_b)
    hi = np.minimum(upper_a, upper_b)
    magnitude = np.maximum(
        np.maximum(np.abs(lower_a), np.abs(upper_a)), np.maximum(np.abs(lower_b), np.abs(upper_b))
    )
    # The exact test comes first so that equal infinite ends still meet.
    with np.errstate(invalid="ignore"):
        return (lo <= hi) | (lo - hi <= rel_tol * magnitude)


def _check_horizon(grid: TimeGrid, T: float) -> None:
    """A kernel on (0, T] needs a grid that ends at T."""
    if not math.isclose(grid.T, T, rel_tol=1e-12):
        raise ValueError(f"kernel horizon {T} does not match grid horizon {grid.T}")


def _bracket_sums(kernel_at_points: np.ndarray, increments: np.ndarray, *, decreasing: bool):
    """Endpoint sums for a monotone kernel against nonnegative increments.

    `kernel_at_points` holds the kernel at the n+1 grid points and
    `increments` the n cell increments (last axis).  A decreasing kernel is
    minorized by its right cell endpoint; an increasing kernel flips the
    roles.  This is the single audited code path for both orientations.
    """
    k_left = kernel_at_points[:-1]
    k_right = kernel_at_points[1:]
    lo_w, up_w = (k_right, k_left) if decreasing else (k_left, k_right)
    return increments @ lo_w, increments @ up_w


def power_bracket_sums(points: np.ndarray, values: np.ndarray, theta: float):
    """Vectorized lower/upper sums of int t^(-theta) dS over rows of `values`."""
    kernel = points**-theta
    return _bracket_sums(kernel, np.diff(values, axis=-1), decreasing=True)


def exp_bracket_sums(points: np.ndarray, values: np.ndarray, lam: float, T: float):
    """Vectorized lower/upper sums of int e^(-lam (T-t)) dS over rows of `values`."""
    kernel = np.exp(-lam * (T - points))
    return _bracket_sums(kernel, np.diff(values, axis=-1), decreasing=False)


def stieltjes_bracket(path: SubordinatorPath, kernel: SingularKernel) -> IntegralBracket:
    """Bracket of int_epsilon^T t^(-theta) dS_t from endpoint sums.

    Switches to log-space accumulation once epsilon^(-theta) leaves the
    double range; the returned bracket then carries log values and the
    log_scale flag.
    """
    _check_horizon(path.grid, kernel.T)
    if _needs_log_space(path.grid.epsilon, kernel.theta):
        lower, upper = _log_power_sums(path.grid.points, path.values, kernel.theta)
        return IntegralBracket(float(lower), float(upper), log_scale=True)
    lower, upper = power_bracket_sums(path.grid.points, path.values, kernel.theta)
    return IntegralBracket(float(lower), float(upper))


def exp_kernel_integral(path: SubordinatorPath, kernel: ExpKernel) -> IntegralBracket:
    """Bracket of int_epsilon^T e^(-lam (T-t)) dS_t.

    The integrand increases in t, so left endpoints give the lower sum --
    the opposite orientation to the singular kernel.
    """
    _check_horizon(path.grid, kernel.T)
    lower, upper = exp_bracket_sums(path.grid.points, path.values, kernel.lam, kernel.T)
    return IntegralBracket(float(lower), float(upper))


def _time_integral_sums(points: np.ndarray, values: np.ndarray, theta: float):
    """Lower/upper sums of int t^(-theta-1) S_t dt over rows of `values`.

    Row-wise dot products (np.vecdot) round exactly as the one-row case does.
    """
    if theta == 0.0:
        cell = np.log(points[1:] / points[:-1])
    else:
        kernel = points**-theta
        cell = (kernel[:-1] - kernel[1:]) / theta
    return np.vecdot(values[..., :-1], cell), np.vecdot(values[..., 1:], cell)


def ibp_bracket_sums(points: np.ndarray, values: np.ndarray, theta: float):
    """Vectorized lower/upper sums of the boundary-plus-time-integral route.

    T^(-theta) S_T - epsilon^(-theta) S_epsilon + theta * (sums of
    int t^(-theta-1) S_t dt), over rows of `values`; linear scale only.
    """
    lower, upper = _time_integral_sums(points, values, theta)
    eps, T = float(points[0]), float(points[-1])
    boundary = T**-theta * values[..., -1] - eps**-theta * values[..., 0]
    return boundary + theta * lower, boundary + theta * upper


def ibp_estimate(path: SubordinatorPath, kernel: SingularKernel) -> IntegralBracket:
    """Boundary-terms-plus-time-integral route to the same enclosure.

    T^(-theta) S_T - epsilon^(-theta) S_epsilon + theta * (bracket of
    int t^(-theta-1) S_t dt).  This rearranges the endpoint sums exactly, so
    it must intersect stieltjes_bracket on every path; computing it through
    different arithmetic makes the intersection a real consistency check.
    """
    _check_horizon(path.grid, kernel.T)
    if _needs_log_space(path.grid.epsilon, kernel.theta):
        # In the overflow regime the signed boundary term cancels
        # catastrophically in log space, so fall back on the exact
        # summation-by-parts rearrangement of the same quantity.
        lower, upper = _log_power_sums(path.grid.points, path.values, kernel.theta)
        return IntegralBracket(float(lower), float(upper), log_scale=True)
    lower, upper = ibp_bracket_sums(path.grid.points, path.values, kernel.theta)
    return IntegralBracket(float(lower), float(upper))


def _abel_discrepancies(points: np.ndarray, values: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Abel-identity discrepancy of each row of `values`, row i probed with thetas[i]."""
    f = points ** -thetas[:, None]
    left_sum = np.vecdot(f[:, :-1], np.diff(values, axis=1))
    right_sum = np.vecdot(values[:, 1:], np.diff(f, axis=1))
    boundary = f[:, -1] * values[:, -1] - f[:, 0] * values[:, 0]
    scale = np.abs(left_sum) + np.abs(right_sum) + np.abs(boundary)
    defect = np.abs(left_sum + right_sum - boundary)
    # A zero scale means every term vanished: no discrepancy.
    return np.divide(defect, scale, out=np.zeros_like(scale), where=scale != 0.0)


def abel_identity_check(path: SubordinatorPath, kernel: SingularKernel) -> float:
    """Relative discrepancy of discrete summation by parts for f(t) = t^(-theta).

    sum f(t_i) dS_i + sum S_{t_{i+1}} df_i telescopes to f(T) S_T -
    f(epsilon) S_epsilon exactly; anything beyond rounding noise indicates an
    indexing bug.  Returns |defect| / (sum of term magnitudes).
    """
    rows = _abel_discrepancies(path.grid.points, path.values[None, :], np.array([kernel.theta]))
    return float(rows[0])


def _needs_log_space(epsilon: float, theta: float) -> bool:
    return theta * abs(math.log(epsilon)) > LOG_SPACE_THRESHOLD


def _log_power_sums(points: np.ndarray, values: np.ndarray, theta: float):
    """Log of the lower/upper power-kernel sums over rows of `values`.

    A zero increment enters as log 0 = -inf and so adds nothing; a row
    without a positive increment gives -inf.
    """
    log_t = np.log(points)
    with np.errstate(divide="ignore"):
        log_inc = np.log(np.diff(values, axis=-1))
    lower = logsumexp(-theta * log_t[1:] + log_inc, axis=-1)
    upper = logsumexp(-theta * log_t[:-1] + log_inc, axis=-1)
    return lower, upper
