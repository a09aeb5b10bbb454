"""Bracketing estimators for pathwise Stieltjes integrals with monotone kernels.

Every estimator returns a rigorous lower/upper enclosure of the truncated
integral over [epsilon, T]: the kernel is monotone on each grid cell and the
integrator is nondecreasing, so evaluating the kernel at the favorable cell
endpoint bounds the cell contribution from either side.  No jump interior to
a cell is ever located; the bracket absorbs that uncertainty instead.

Both kernels answer the same five methods, and the drivers read a kernel
only through them: weights, bracket_sums, moment_bound, default_grid and
needs_log_space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import FracMomentQuery, frac_moment_closed_form
from .subordinator import DEFAULT_GRID_LEVELS, DEFAULT_GRID_Q, SubordinatorPath, TimeGrid

__all__ = [
    "ExpKernel",
    "IntegralBracket",
    "LOG_SPACE_THRESHOLD",
    "SingularKernel",
    "abel_identity_check",
    "exp_bracket_sums",
    "ibp_bracket_sums",
    "ibp_estimate",
    "power_bracket_sums",
    "stieltjes_bracket",
]

# Natural-log scale beyond which epsilon^(-theta) leaves double range and the
# endpoint sums switch to log-space evaluation.
LOG_SPACE_THRESHOLD = 700.0


def _check_double_range(kernel, epsilon: float) -> None:
    """Refuse a kernel whose value at epsilon leaves double range (only the
    power kernel's epsilon^-theta can): every route but the endpoint sums of
    stieltjes_bracket has no log-space form."""
    if kernel.needs_log_space(epsilon):
        raise ValueError(
            f"theta * |ln(grid epsilon)| must be <= {LOG_SPACE_THRESHOLD:g} "
            f"(epsilon^-theta leaves double range); "
            f"got {kernel.theta * abs(math.log(epsilon)):.6g}"
        )


@dataclass(frozen=True)
class SingularKernel:
    """Power kernel t^(-theta) on (0, T], decreasing in t.

    theta = 0 is admitted as the degenerate constant kernel, for which both
    endpoint sums telescope to the total increment.
    """

    theta: float
    T: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(f"theta must be >= 0 and finite, got {self.theta}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be > 0 and finite, got {self.T}")

    def weights(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A decreasing kernel is minorized on a cell by its right endpoint."""
        at_points = points**-self.theta
        return at_points[1:], at_points[:-1]

    def bracket_sums(self, points: np.ndarray, increments: np.ndarray):
        return power_bracket_sums(points, increments, self.theta)

    def moment_bound(self, alpha: float, p: float) -> float:
        """Closed-form majorant of E (int_0^T t^-theta dS)^p, valid for theta in (0, 1/alpha):

            (2^(p/alpha + p*theta) * E S_1^p / (2^(p/alpha) - 2^(p*theta)) + 1)
                * T^((1/alpha - theta) * p)

        with E S_1^p from the validated closed form.
        """
        moment = frac_moment_closed_form(FracMomentQuery(alpha, p, 1.0))  # checks alpha before 1/alpha
        if not 0.0 < self.theta < 1.0 / alpha:
            raise ValueError(f"theta must lie in (0, 1/alpha): got theta={self.theta}, alpha={alpha}")
        numerator = 2.0 ** (p / alpha + p * self.theta) * moment
        denominator = 2.0 ** (p / alpha) - 2.0 ** (p * self.theta)
        bound = (numerator / denominator + 1.0) * self.T ** ((1.0 / alpha - self.theta) * p)
        if not math.isfinite(bound):
            raise ValueError(f"T = {self.T:g} at alpha = {alpha:g}, p = {p:g}: the moment bound overflows")
        return bound

    def default_grid(self) -> TimeGrid:
        """Dyadic refinement toward the singularity at 0."""
        return TimeGrid.geometric(self.T, DEFAULT_GRID_LEVELS, DEFAULT_GRID_Q)

    def needs_log_space(self, epsilon: float) -> bool:
        return self.theta * abs(math.log(epsilon)) > LOG_SPACE_THRESHOLD


@dataclass(frozen=True)
class ExpKernel:
    """Exponential kernel e^(-lam (T - t)), increasing in t."""

    lam: float
    T: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be > 0 and finite, got {self.lam}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be > 0 and finite, got {self.T}")

    def weights(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """An increasing kernel is minorized on a cell by its left endpoint."""
        at_points = np.exp(-self.lam * (self.T - points))
        return at_points[:-1], at_points[1:]

    def bracket_sums(self, points: np.ndarray, increments: np.ndarray):
        return exp_bracket_sums(points, increments, self.lam, self.T)

    def moment_bound(self, alpha: float, p: float) -> float:
        """Horizon-independent majorant of E (int_0^T e^(-lam (T-t)) dS)^p.

        Equals e^(p*lam) / (e^(p*lam) - 1) * E S_1^p, evaluated in the
        overflow-safe form E S_1^p / (1 - e^(-p*lam)).
        """
        bound = frac_moment_closed_form(FracMomentQuery(alpha, p, 1.0)) / -math.expm1(-p * self.lam)
        if not math.isfinite(bound):
            raise ValueError(f"lambda = {self.lam} is too small at p = {p:g}: the moment bound overflows")
        return bound

    def default_grid(self) -> TimeGrid:
        """Uniform cells: the kernel is bounded."""
        return TimeGrid.uniform(self.T, DEFAULT_GRID_LEVELS)

    def needs_log_space(self, epsilon: float) -> bool:
        return False  # the kernel stays in [e^(-lam T), 1]


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


def power_bracket_sums(points: np.ndarray, increments: np.ndarray, theta: float):
    """Vectorized lower/upper sums of int t^(-theta) dS over rows of cell `increments`."""
    lower, upper = SingularKernel(theta).weights(points)
    return increments @ lower, increments @ upper


def exp_bracket_sums(points: np.ndarray, increments: np.ndarray, lam: float, T: float):
    """Vectorized lower/upper sums of int e^(-lam (T-t)) dS over rows of cell `increments`."""
    lower, upper = ExpKernel(lam, T).weights(points)
    return increments @ lower, increments @ upper


def stieltjes_bracket(path: SubordinatorPath, kernel: SingularKernel | ExpKernel) -> IntegralBracket:
    """Bracket of int_epsilon^T f(t) dS_t from endpoint sums, for either kernel.

    Switches to log-space accumulation once the power kernel's
    epsilon^(-theta) leaves the double range; the returned bracket then
    carries log values and the log_scale flag.  No other estimator has a
    log-space form.
    """
    _check_horizon(path.grid, kernel.T)
    if kernel.needs_log_space(path.grid.epsilon):
        lower, upper = _log_power_sums(path.grid.points, path.values, kernel.theta)
        return IntegralBracket(float(lower), float(upper), log_scale=True)
    lower, upper = kernel.bracket_sums(path.grid.points, np.diff(path.values))
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
    The signed boundary term has no log-space form, so a kernel whose
    epsilon^(-theta) leaves double range is refused by _check_double_range.
    """
    _check_horizon(path.grid, kernel.T)
    _check_double_range(kernel, path.grid.epsilon)
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
    indexing bug.  Returns |defect| / (sum of term magnitudes).  Refuses what
    ibp_estimate refuses: its terms too leave double range with epsilon^(-theta).
    """
    _check_horizon(path.grid, kernel.T)
    _check_double_range(kernel, path.grid.epsilon)
    rows = _abel_discrepancies(path.grid.points, path.values[None, :], np.array([kernel.theta]))
    return float(rows[0])


def _log_power_sums(points: np.ndarray, values: np.ndarray, theta: float):
    """Log of the lower/upper power-kernel sums over rows of `values`.

    A zero increment enters as log 0 = -inf and so adds nothing; a row
    without a positive increment gives -inf.
    """
    log_t = np.log(points)
    with np.errstate(divide="ignore"):
        log_inc = np.log(np.diff(values, axis=-1))
    lower = _logsumexp(-theta * log_t[1:] + log_inc)
    upper = _logsumexp(-theta * log_t[:-1] + log_inc)
    return lower, upper


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis of a real array, shifted by the row
    maximum where that is finite (a row of -inf gives -inf, an infinite maximum inf)."""
    a_max = np.max(a, axis=-1, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - shift), axis=-1)) + shift[..., 0]
