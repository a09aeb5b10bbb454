"""Monte Carlo experiments turning pathwise estimators into statistical verdicts.

Replicates are generated in fixed-size batches, each batch keyed by its own
counter-based stream, and reduced in batch order.  Worker count therefore
never changes a single number: it only changes which process evaluates which
batch.

Heavy tails dictate the statistics: expectations of the raw integrals are
infinite for alpha < 1, so divergence diagnostics use medians of scaled
quantities, while the moment-bound checks apply p-th powers (p < alpha)
before averaging.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .integrals import (
    ExpKernel,
    IntegralBracket,
    SingularKernel,
    _abel_discrepancies,
    _brackets_meet,
    _check_double_range,
    _check_horizon,
    ibp_bracket_sums,
    stieltjes_bracket,
)
from .special import FracMomentQuery, frac_moment_closed_form, levy_half_cdf
from .subordinator import (
    DEFAULT_MASTER_SEED,
    SeedSpec,
    StableParams,
    SubordinatorPath,
    TimeGrid,
    _assemble_paths,
    _check_finite,
    _path_blocks,
    deterministic_path,
    kanter_draws,
    kanter_inputs,
    sample_path_values,
    sample_standard_stable_batch,
)

__all__ = [
    "ABEL_TOLERANCE",
    "BATCH_SIZE",
    "BoundCheckReport",
    "CdfCheckReport",
    "LAPLACE_ALPHAS",
    "LAPLACE_LAMBDAS",
    "LaplaceCell",
    "LaplaceCheckReport",
    "MomentEstimate",
    "ScalingCheckReport",
    "SlopeReport",
    "IbpConsistencyReport",
    "classify_power_kernel",
    "draw_standard_samples",
    "ks_distance",
    "run_blowup_diagnostics",
    "run_cdf_check",
    "run_ibp_consistency",
    "run_laplace_check",
    "run_moment_checks",
    "run_scaling_check",
]

# Fixed replicate batching unit; batch boundaries must not depend on the
# worker count or reproducibility across worker counts would break.
BATCH_SIZE = 4096
# Batch streams are keyed by replicate_index = (cell << 32) | batch.
_CELL_SHIFT = 32
# Replicates of a run whose experiment declares no count of its own.
DEFAULT_REPLICATES = 100_000
# A mean agrees with its target within SE_MULTIPLE standard errors (the 3-SE rule).
SE_MULTIPLE = 3.0
# The Laplace check's (alpha, lambda) grid, and the scaling check's horizons t of S_t.
LAPLACE_ALPHAS = (0.3, 0.5, 0.7)
LAPLACE_LAMBDAS = (0.5, 1.0, 2.0)
SCALING_TIMES = (0.25, 1.0, 4.0)
# Below three draws 1.63/sqrt(n) >= 1 exceeds every KS distance: a pass on nothing.
KS_MIN_REPLICATES = 3
# Blowup's epsilon levels run from T * 2^-BLOWUP_MIN_LEVEL down to T * 2^-max_level
# (by default BLOWUP_LEVELS), on BLOWUP_REPLICATES paths: at least BLOWUP_MIN_REPLICATES
# give stable medians.
BLOWUP_MIN_LEVEL = 10
BLOWUP_LEVELS = 30
BLOWUP_REPLICATES = 10_000
BLOWUP_MIN_REPLICATES = 100
# The ibp check's default exponent and path count, and its relative slack:
# rounding, where theta = 0 shrinks both brackets to a point, and the Abel
# identity's largest discrepancy.
IBP_THETA = 0.5
IBP_PATHS = 1000
ABEL_TOLERANCE = 1e-10
# The range of the exponents that probe the Abel identity, one drawn per path.
ABEL_PROBE_THETAS = (0.05, 4.05)


# --------------------------------------------------------------------------
# the analytic kernel classifier


def classify_power_kernel(alpha: float, c: float) -> str:
    """Short-time comparison of the subordinator against the power t^c.

    Returns "limsup_infinite" when c * alpha >= 1 (S_t / t^c has infinite
    limsup as t -> 0) and "ratio_vanishes" when c * alpha < 1 (the ratio
    tends to 0).  Purely analytic; alpha = 1 is admitted for the
    deterministic path analogue.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not c > 0.0:
        raise ValueError(f"c must be > 0, got {c}")
    return "limsup_infinite" if c * alpha >= 1.0 else "ratio_vanishes"


# --------------------------------------------------------------------------
# estimates and reports


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo mean of a p-th power functional with its standard error."""

    mean: float
    std_error: float
    n_replicates: int

    def __post_init__(self) -> None:
        if self.n_replicates < 2:
            raise ValueError("n_replicates must be >= 2")
        if not 0.0 <= self.std_error < math.inf:
            raise ValueError(f"std_error must be finite and >= 0, got {self.std_error}")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "MomentEstimate":
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        if n < 2:
            raise ValueError("need at least 2 replicates")
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = samples.mean(), samples.std(ddof=1)
        if not (np.isfinite(mean) and np.isfinite(std)):
            # The sum or the squares left double range: reduce the samples
            # divided by their largest magnitude, then scale back.
            scale = np.max(np.abs(samples))
            unit = samples / scale
            mean, std = scale * unit.mean(), scale * unit.std(ddof=1)
        return cls(mean=float(mean), std_error=float(std / math.sqrt(n)), n_replicates=n)


@dataclass(frozen=True)
class BoundCheckReport:
    """One-sided comparison of an estimated p-th moment against its bound.

    The verdict uses the upper-bracket estimate plus three standard errors,
    so a pass is conservative against both discretization and Monte Carlo
    noise; the lower-bracket estimate is carried for bracket-tightness
    reporting.
    """

    estimate: MomentEstimate
    lower_estimate: MomentEstimate
    bound_value: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class LaplaceCell:
    alpha: float
    lam: float
    mc_mean: float
    std_error: float
    target: float
    within_3se: bool


@dataclass(frozen=True)
class LaplaceCheckReport:
    """Per-cell Laplace-transform fidelity of the sampler.

    Statistical acceptance: at most one cell of the grid may fall outside
    three standard errors of its target.
    """

    cells: tuple[LaplaceCell, ...]
    n_within: int
    passed: bool


@dataclass(frozen=True)
class CdfCheckReport:
    n_replicates: int
    ks_distance: float
    critical_value: float
    passed: bool


@dataclass(frozen=True)
class ScalingCheckReport:
    """Normalized moments E S_t^p / t^(p/alpha) across horizons.

    Consistency means every pairwise difference stays within three combined
    standard errors; `reference` is the closed-form value they all target.
    """

    times: tuple[float, ...]
    normalized_means: tuple[float, ...]
    std_errors: tuple[float, ...]
    reference: float
    max_deviation_sigmas: float
    passed: bool


@dataclass(frozen=True)
class SlopeReport:
    """Blow-up diagnostic across geometrically decreasing truncation levels.

    `medians` holds the per-level sample medians of epsilon^(-theta) *
    S_epsilon, whose log-log slope against log(1/epsilon) targets
    theta - 1/alpha.  `lower_sum_medians` tracks the truncated lower sums of
    the full integral (stabilizing when theta < 1/alpha).  At the boundary
    theta = 1/alpha the slope carries no information and the report is
    flagged inconclusive rather than asserting divergence.
    """

    epsilons: tuple[float, ...]
    medians: tuple[float, ...]
    median_ci_lower: tuple[float, ...]
    median_ci_upper: tuple[float, ...]
    lower_sum_medians: tuple[float, ...]
    lower_sum_ci_lower: tuple[float, ...]
    lower_sum_ci_upper: tuple[float, ...]
    fitted_slope: float
    expected_slope: float
    residual: float
    lower_sum_slope: float
    boundary_inconclusive: bool
    n_replicates: int

    @property
    def slope_matches(self) -> bool:
        """The slope law: fitted and expected slopes agree within 0.1."""
        return abs(self.fitted_slope - self.expected_slope) <= 0.1


# --------------------------------------------------------------------------
# batched replication machinery


def _stream(master_seed: int, cell: int, batch: int) -> SeedSpec:
    return SeedSpec(master_seed, (cell << _CELL_SHIFT) | batch)


def _batch_task(args):
    """`task(*task_args)` for the tuple (task, *task_args), such as a batch
    (task, seed, count): one pool task as a single argument for the pool's map."""
    task, *task_args = args
    return task(*task_args)


# (workers, pool) of the pool that _worker_pool holds open, or None.
_RUN_POOL = None


def _forget_run_pool() -> None:
    """Pool initializer: a forked worker drops the pool handle it inherits."""
    global _RUN_POOL
    _RUN_POOL = None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextlib.contextmanager
def _worker_pool(workers: int):
    """Run every _pool_map call inside the block on `workers` processes.

    One process pool, of at most one process per usable CPU, is built on entry
    (none where that leaves one process: the tasks run serially) and shut
    down, its workers joined, on exit.
    """
    global _RUN_POOL
    outer = _RUN_POOL
    size = min(workers, _usable_cpus())
    with (ProcessPoolExecutor(max_workers=size, initializer=_forget_run_pool)
          if size > 1 else contextlib.nullcontext()) as pool:
        _RUN_POOL = None if pool is None else (size, pool)
        try:
            yield
        finally:
            _RUN_POOL = outer


def _pool_map(fn, items: list):
    """`fn` over `items`, in order: all submitted at once to the pool that
    _worker_pool holds open (so both must pickle), a few items per message
    (fewer round trips, the same order), else the lazy built-in map."""
    if _RUN_POOL is None:
        return map(fn, items)
    workers, pool = _RUN_POOL
    return pool.map(fn, items, chunksize=math.ceil(len(items) / (4 * workers)))


def _sample_batches(task, n_replicates: int, master_seed: int, cell: int) -> list:
    """`task(seed, count)` for each BATCH_SIZE batch of a cell's replicates, in order.

    Batch b of cell c draws from the stream _stream(master_seed, c, b).  The
    batches go through _pool_map, so `task` must pickle (a module-level
    function or a functools.partial of one).
    """
    n = int(n_replicates)
    if n < 1:
        raise ValueError(f"n_replicates must be >= 1, got {n}")
    args = [
        (task, _stream(master_seed, cell, batch), min(BATCH_SIZE, n - start))
        for batch, start in enumerate(range(0, n, BATCH_SIZE))
    ]
    return list(_pool_map(_batch_task, args))


def draw_standard_samples(
    alpha: float,
    n_replicates: int,
    master_seed: int = DEFAULT_MASTER_SEED,
    cell: int = 0,
) -> np.ndarray:
    """Batched i.i.d. S_1 draws; `cell` separates streams of one experiment."""
    task = functools.partial(sample_standard_stable_batch, StableParams(alpha))
    return np.concatenate(_sample_batches(task, n_replicates, master_seed, cell))


def _moment_sums(jobs: tuple, seed: SeedSpec, count: int) -> np.ndarray:
    """One batch of paths on grids of one length, bracketed for every (alpha, grid, kernel) job.

    One row block at a time, the batch draws (U, W) once, kanter_draws makes
    every alpha's standard draws from one set of sines, and each job brackets
    its alpha's paths on its grid, assembled once per (alpha, grid).  Returns
    sums[k, side, row]: k counts the jobs, side 0 is the lower sum and side 1
    the upper.
    """
    alphas = list(dict.fromkeys(alpha for alpha, _, _ in jobs))
    sums = np.empty((len(jobs), 2, count))
    for rows, u, w in kanter_inputs(seed, (count, len(jobs[0][1]))):
        draws = dict(zip(alphas, kanter_draws(alphas, u, w)))
        # A path or sum that overflows is caught below, once per batch.
        with np.errstate(over="ignore", invalid="ignore"):
            increments = {}  # (alpha, grid) -> the chunk's path increments
            for k, (alpha, grid, kernel) in enumerate(jobs):
                if (alpha, grid) not in increments:
                    increments[alpha, grid] = np.diff(_assemble_paths(draws[alpha], grid, alpha), axis=1)
                sums[k, :, rows] = kernel.bracket_sums(grid.points, increments[alpha, grid])
    finite = np.isfinite(sums).all(axis=1)  # [k, row]
    if not finite.all():
        k = int(np.argmin(finite.all(axis=1)))
        alpha, grid, _ = jobs[k]
        _check_finite(finite[k], f"T = {grid.T:g} at alpha = {alpha:g}", "bracket sums leave double range")
    IntegralBracket.check_rows(sums[:, 0], sums[:, 1])
    return sums


def _blowup_sums(alpha: float, grid: TimeGrid, thetas: tuple, level_columns, seed: SeedSpec, count: int):
    """One batch of paths: per theta, the scaled endpoints and truncated lower sums per level."""
    values = sample_path_values(StableParams(alpha), grid, seed, count)
    pts = grid.points
    increments = np.diff(values, axis=1)
    sums = []
    for theta in thetas:
        endpoint = values[:, level_columns] * pts[level_columns] ** -theta
        terms = increments * pts[1:] ** -theta
        suffix = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
        # Truncating at the last grid point leaves an empty sum.
        suffix = np.concatenate([suffix, np.zeros((suffix.shape[0], 1))], axis=1)
        sums.append((endpoint, suffix[:, level_columns]))
    return sums


def _ibp_sums(alpha: float, grid: TimeGrid, kernel: SingularKernel, seed: SeedSpec, count: int):
    """One batch: do both bracket routes meet on every row, and the rows' Abel
    discrepancies, each row block of paths (_path_blocks) checked as it is
    made.  Both routes are linear-scale: the run has fenced off log space."""
    probes = _stream(seed.master_seed, 1, seed.replicate_index).generator().random(count)
    low, high = ABEL_PROBE_THETAS
    thetas = low + probes * (high - low)
    meet = True
    abel = np.empty(count)
    for rows, block in _path_blocks(StableParams(alpha), grid, seed, count):
        SubordinatorPath.check_rows(block)
        direct = kernel.bracket_sums(grid.points, np.diff(block, axis=1))
        via_parts = ibp_bracket_sums(grid.points, block, kernel.theta)
        IntegralBracket.check_rows(*direct)
        IntegralBracket.check_rows(*via_parts)
        meet &= bool(np.all(_brackets_meet(*direct, *via_parts, ABEL_TOLERANCE)))
        abel[rows] = _abel_discrepancies(grid.points, block, thetas[rows])
    return meet, abel


# --------------------------------------------------------------------------
# experiment drivers


def run_laplace_check(
    alphas=LAPLACE_ALPHAS,
    n_replicates: int = DEFAULT_REPLICATES,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> LaplaceCheckReport:
    """Check E e^(-lam S_1) = e^(-lam^alpha) cell by cell over alphas x
    LAPLACE_LAMBDAS, 3-sigma acceptance."""
    _check_laplace_args(alphas, n_replicates)
    cells = []
    for cell_index, (alpha, lam) in enumerate([(alpha, lam) for alpha in alphas for lam in LAPLACE_LAMBDAS]):
        draws = draw_standard_samples(alpha, n_replicates, master_seed, cell_index)
        with np.errstate(under="ignore"):  # e^(-lam S) rounding to 0 is exact
            transformed = np.exp(-lam * draws)
        est = MomentEstimate.from_samples(transformed)
        target = math.exp(-(lam**alpha))
        cells.append(LaplaceCell(alpha=alpha, lam=lam, mc_mean=est.mean, std_error=est.std_error, target=target,
                                 within_3se=abs(est.mean - target) <= SE_MULTIPLE * est.std_error))
    n_within = sum(c.within_3se for c in cells)
    return LaplaceCheckReport(
        cells=tuple(cells), n_within=n_within, passed=n_within >= len(cells) - 1
    )


def _check_laplace_args(alphas, n_replicates: int) -> None:
    if n_replicates < 2:
        raise ValueError("n_replicates must be >= 2")
    if not alphas:
        raise ValueError("alpha must list at least one stability index")
    for alpha in alphas:
        StableParams(alpha)


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a CDF callable."""
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = ordered.size
    theoretical = cdf(ordered)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(grid_hi - theoretical, theoretical - grid_lo)))


def run_cdf_check(
    n_replicates: int = DEFAULT_REPLICATES,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> CdfCheckReport:
    """KS test of alpha = 1/2 draws against the closed-form CDF erfc(1/(2 sqrt(x))),
    at the asymptotic 1% critical value 1.63/sqrt(n)."""
    _check_cdf_args(n_replicates)
    draws = draw_standard_samples(0.5, n_replicates, master_seed, 0)
    distance = ks_distance(draws, levy_half_cdf)
    critical = 1.63 / math.sqrt(n_replicates)
    return CdfCheckReport(
        n_replicates=int(n_replicates),
        ks_distance=distance,
        critical_value=critical,
        passed=distance < critical,
    )


def _check_cdf_args(n_replicates: int) -> None:
    if n_replicates < KS_MIN_REPLICATES:
        raise ValueError(f"n_replicates must be >= {KS_MIN_REPLICATES} for the KS test, got {n_replicates}")


def run_scaling_check(
    params: StableParams,
    p: float,
    times=SCALING_TIMES,
    n_replicates: int = DEFAULT_REPLICATES,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> ScalingCheckReport:
    """Self-similarity collapse: E S_t^p / t^(p/alpha) constant across horizons."""
    reference = frac_moment_closed_form(_check_scaling_args(params.alpha, p, times))
    normalized, errors = [], []
    for cell, t in enumerate(times):
        draws = draw_standard_samples(params.alpha, n_replicates, master_seed, cell)
        with np.errstate(over="ignore"):
            scaled = t ** (1.0 / params.alpha) * draws
        where = f"times = {t:g} at alpha = {params.alpha:g}"
        _check_finite(np.isfinite(scaled), where, "scaled draws leave double range")
        est = MomentEstimate.from_samples(scaled**p)
        norm = t ** (p / params.alpha)
        normalized.append(est.mean / norm)
        errors.append(est.std_error / norm)
    i, j = np.triu_indices(len(times), 1)  # every pair of horizons
    combined = np.array([math.hypot(errors[a], errors[b]) for a, b in zip(i, j)])
    # np.max passes a NaN through, and a zero combined error gives an infinite distance: both fail.
    with np.errstate(divide="ignore", invalid="ignore"):
        max_sigmas = float(np.max(np.abs(np.take(normalized, i) - np.take(normalized, j)) / combined))
    return ScalingCheckReport(
        times=tuple(float(t) for t in times),
        normalized_means=tuple(normalized),
        std_errors=tuple(errors),
        reference=reference,
        max_deviation_sigmas=max_sigmas,
        passed=max_sigmas <= SE_MULTIPLE,
    )


def _check_scaling_args(alpha: float, p: float, times) -> FracMomentQuery:
    """Validate the scaling check's arguments; returns the query of E S_1^p."""
    query = FracMomentQuery(alpha, p, 1.0)
    for t in times:
        if not t > 0.0:
            raise ValueError(f"times must be positive, got {t}")
        _check_path_scale(alpha, t, "times")
    if len(set(times)) < 2:  # one horizon compares with nothing: a pass on nothing
        raise ValueError(f"times must hold at least two distinct horizons, got {list(times)}")
    return query


def run_moment_checks(
    cells,
    n_replicates: int = DEFAULT_REPLICATES,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> list[BoundCheckReport]:
    """Moment-bound checks for (params, kernel, p, grid or None) cells, in order.

    Every cell keys its (U, W) draws by (master_seed, batch) alone, so cells
    with the same grid length share them (common random numbers: their
    verdicts are correlated), cells with the same alpha too share their
    standard draws, and cells with the same grid too share their paths.  Each
    grid length takes one sampling pass (_moment_sums) over its distinct
    (alpha, grid, kernel) jobs, whose brackets are reduced and released before
    the next pass is sampled.
    """
    prepared = [_moment_cell(*cell) for cell in cells]
    grids: dict = {}
    passes: dict = {}  # grid length -> {job: indices of its cells}
    for index, (alpha, grid, kernel, _, _) in enumerate(prepared):
        grid = grids.setdefault(grid.points.tobytes(), grid)
        passes.setdefault(len(grid), {}).setdefault((alpha, grid, kernel), []).append(index)
    reports: list = [None] * len(prepared)
    for members in passes.values():
        parts = _sample_batches(functools.partial(_moment_sums, tuple(members)), n_replicates, master_seed, 0)
        for k, indices in enumerate(members.values()):
            lower, upper = ([part[k, side] for part in parts] for side in (0, 1))
            for index in indices:
                _, _, _, p, bound = prepared[index]
                reports[index] = _bound_report(lower, upper, p, bound)
        del parts
    return reports


def _moment_cell(params: StableParams, kernel, p: float, grid: TimeGrid | None):
    """Validate one moment-bound cell: (alpha, grid, kernel, p, bound)."""
    if not isinstance(kernel, (SingularKernel, ExpKernel)):
        raise TypeError(f"unsupported kernel type: {type(kernel).__name__}")
    bound = kernel.moment_bound(params.alpha, p)
    if grid is None:
        grid = kernel.default_grid()
    _check_kernel_grid(params.alpha, kernel, grid)
    # The upper sum is at least its largest term, of p-th moment w_i^p
    # (t_{i+1} - t_i)^(p/alpha) E S_1^p: one at the bound fails the verdict.
    _, weights = kernel.weights(grid.points)
    with np.errstate(over="ignore"):
        term = np.max(weights * np.diff(grid.points) ** (1.0 / params.alpha), initial=0.0)
    largest = float(term) ** p * frac_moment_closed_form(FracMomentQuery(params.alpha, p, 1.0))
    if largest >= bound:
        raise ValueError(f"grid.levels = {len(grid) - 1} is too coarse: the upper sum's largest term "
                         f"alone has p-th moment {largest:.4g}, at or above the bound {bound:.4g}")
    return params.alpha, grid, kernel, p, bound


def _check_path_scale(alpha: float, t: float, key: str) -> None:
    """Refuse before sampling a horizon `key` = t > 0 whose path scale t^(1/alpha)
    overflows, or underflows below the smallest normal double."""
    log_scale = math.log(t) / alpha
    if not math.log(sys.float_info.min) <= log_scale <= math.log(sys.float_info.max):
        fault = "overflows" if log_scale > 0.0 else "underflows"
        raise ValueError(f"{key} = {t:g} leaves double range at alpha = {alpha:g}: {key}^(1/alpha) {fault}")


def _check_kernel_grid(alpha: float, kernel, grid: TimeGrid) -> None:
    """Refuse before sampling what a batched driver cannot sum: a grid not ending
    at T, a path scale T^(1/alpha) out of double range, or a kernel value at epsilon
    out of double range (the batched sums have no log-space form)."""
    _check_horizon(grid, kernel.T)
    _check_path_scale(alpha, kernel.T, "T")
    _check_double_range(kernel, grid.epsilon)


def _check_ibp_grid(alpha: float, kernel: SingularKernel, grid: TimeGrid) -> None:
    """_check_kernel_grid, and the same double-range fence for the Abel probes' largest theta."""
    _check_kernel_grid(alpha, kernel, grid)
    if SingularKernel(ABEL_PROBE_THETAS[1], kernel.T).needs_log_space(grid.epsilon):
        raise ValueError(f"the Abel probes' epsilon^-theta leaves double range for theta up to "
                         f"{ABEL_PROBE_THETAS[1]:g} at grid epsilon = {grid.epsilon:g}")


def _bound_report(lower: list, upper: list, p: float, bound: float) -> BoundCheckReport:
    """The report of one cell from its job's per-batch lower and upper sums:
    each piece is raised to the p-th power before the pieces are joined."""
    est_upper = MomentEstimate.from_samples(np.concatenate([piece**p for piece in upper]))
    est_lower = MomentEstimate.from_samples(np.concatenate([piece**p for piece in lower]))
    margin = bound - (est_upper.mean + SE_MULTIPLE * est_upper.std_error)
    return BoundCheckReport(
        estimate=est_upper,
        lower_estimate=est_lower,
        bound_value=bound,
        margin=margin,
        passed=margin >= 0.0,
    )


def run_blowup_diagnostics(
    params: StableParams,
    thetas,
    T: float = 1.0,
    max_level: int = BLOWUP_LEVELS,
    n_replicates: int = BLOWUP_REPLICATES,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> list[SlopeReport]:
    """Blow-up diagnostics for several exponents, in order, on one set of paths.

    For epsilon = T 2^-j the statistic epsilon^(-theta) S_epsilon has median
    proportional to epsilon^(1/alpha - theta); each report fits the log-log
    slope of its medians against log(1/epsilon) and compares it with
    theta - 1/alpha.  Medians, not means: the raw integrals have infinite
    expectation.  Every exponent keys its paths by (master_seed, batch)
    alone, so the diagnostics share them: each batch is sampled once and
    reduced under every theta.
    """
    grid = _check_blowup_args(params.alpha, tuple(thetas), n_replicates, max_level, T)
    levels = np.arange(BLOWUP_MIN_LEVEL, max_level + 1)
    level_columns = max_level - levels  # grid index of epsilon_j = T * 2^-j
    task = functools.partial(_blowup_sums, params.alpha, grid, tuple(thetas), level_columns)
    parts = _sample_batches(task, n_replicates, master_seed, 0)
    epsilons = grid.points[level_columns]
    reports = []
    for slot, theta in enumerate(thetas):
        endpoint = np.concatenate([part[slot][0] for part in parts], axis=0)
        lower_sums = np.concatenate([part[slot][1] for part in parts], axis=0)
        reports.append(_slope_report(params.alpha, theta, epsilons, endpoint, lower_sums))
    return reports


def _slope_report(alpha: float, theta: float, epsilons, endpoint, lower_sums) -> SlopeReport:
    """Medians, their intervals and the fitted slopes of one exponent's statistics."""
    med_e, lo_e, hi_e = _median_with_ci(endpoint)
    med_s, lo_s, hi_s = _median_with_ci(lower_sums)

    x = np.log(1.0 / epsilons)
    fitted, residual = _ols_slope(x, np.log(med_e))
    lower_sum_slope, _ = _ols_slope(x, np.log(med_s))
    expected = theta - 1.0 / alpha
    return SlopeReport(
        epsilons=tuple(float(e) for e in epsilons),
        medians=tuple(med_e),
        median_ci_lower=tuple(lo_e),
        median_ci_upper=tuple(hi_e),
        lower_sum_medians=tuple(med_s),
        lower_sum_ci_lower=tuple(lo_s),
        lower_sum_ci_upper=tuple(hi_s),
        fitted_slope=fitted,
        expected_slope=expected,
        residual=residual,
        lower_sum_slope=lower_sum_slope,
        boundary_inconclusive=abs(expected) <= 1e-9,
        n_replicates=int(endpoint.shape[0]),
    )


def _check_blowup_args(alpha: float, thetas: tuple, n_replicates: int, max_level: int, T: float) -> TimeGrid:
    """Validate a blowup run before sampling; returns the grid it samples on."""
    if not thetas:
        raise ValueError("thetas must be nonempty")
    if n_replicates < BLOWUP_MIN_REPLICATES:
        raise ValueError(f"n_replicates must be at least {BLOWUP_MIN_REPLICATES} for stable medians")
    if max_level < BLOWUP_MIN_LEVEL + 5:  # the slope fit takes at least six levels
        raise ValueError(f"grid.levels (max_level) must be >= {BLOWUP_MIN_LEVEL + 5} "
                         f"for blowup, got {max_level}")
    grid = TimeGrid.geometric(T, levels=max_level, q=0.5)
    for theta in thetas:
        if not theta > 0.0:
            raise ValueError(f"theta must be > 0, got {theta}")
        _check_kernel_grid(alpha, SingularKernel(theta, T), grid)
    # The slopes take logarithms of medians: refuse a level whose factors leave the normal range.
    log_min = math.log(sys.float_info.min)
    if math.log(grid.epsilon) / alpha < log_min:
        raise ValueError(f"grid.levels = {max_level} is too deep at alpha = {alpha:g}: the path "
                         f"scale epsilon^(1/alpha) underflows at epsilon = {grid.epsilon:g}")
    coarsest = grid.points[max_level - BLOWUP_MIN_LEVEL]  # epsilon = T * 2^-BLOWUP_MIN_LEVEL
    theta = max(thetas)
    if -theta * math.log(coarsest) < log_min:
        raise ValueError(f"T = {T:g} is too large for theta = {theta:g}: epsilon^-theta "
                         f"underflows at the coarsest level epsilon = {coarsest:g}")
    return grid


def _median_with_ci(matrix: np.ndarray):
    """Column medians with distribution-free ~95% order-statistic intervals."""
    ordered = np.sort(matrix, axis=0)  # a NaN sorts last and makes its column's median NaN
    n = ordered.shape[0]
    middle = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    med = np.where(np.isnan(ordered[-1]), np.nan, middle)
    half_width = 0.98 * math.sqrt(n)  # 1.96 * sqrt(n) / 2
    lo = max(0, int(math.floor(n / 2 - half_width)))
    hi = min(n - 1, int(math.ceil(n / 2 + half_width)))
    return (
        [float(v) for v in med],
        [float(v) for v in ordered[lo]],
        [float(v) for v in ordered[hi]],
    )


def _ols_slope(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    residual = float(np.sqrt(np.mean((y - fit) ** 2)))
    return float(slope), residual


@dataclass(frozen=True)
class IbpConsistencyReport:
    """Cross-validation of the two integral routes plus classical-calculus anchors.

    The three verdicts are all_brackets_intersect, abel_identity (the largest
    discrepancy within tolerance, a NaN failing) and classical_integrals (both
    deterministic targets inside their brackets).
    """

    n_paths: int
    all_brackets_intersect: bool
    max_abel_discrepancy: float
    abel_identity: bool
    det_power_bracket: tuple[float, float]
    det_power_target: float
    det_exp_bracket: tuple[float, float]
    det_exp_target: float
    classical_integrals: bool
    convergence_rows: tuple[tuple[int, float, float, float], ...]

    @property
    def passed(self) -> bool:
        return self.all_brackets_intersect and self.abel_identity and self.classical_integrals


def run_ibp_consistency(
    params: StableParams,
    theta: float = IBP_THETA,
    T: float = 1.0,
    n_paths: int = IBP_PATHS,
    master_seed: int = DEFAULT_MASTER_SEED,
    grid: TimeGrid | None = None,
) -> IbpConsistencyReport:
    """Check that both bracket routes enclose the same truncated integral.

    On every sampled path the endpoint-sum bracket and the
    boundary-plus-time-integral bracket must intersect (up to ABEL_TOLERANCE
    of their magnitude, which absorbs rounding where theta = 0 shrinks both
    to a point), and the discrete summation-by-parts identity must hold to
    rounding accuracy, each with an exponent drawn from ABEL_PROBE_THETAS.
    Paths are sampled and checked one batch at a time.  Deterministic-path
    anchors pin the estimators to classical integrals, and a
    midpoint-refinement sweep records how the deterministic bracket tightens.
    """
    kernel = SingularKernel(theta=theta, T=T)
    if grid is None:
        grid = kernel.default_grid()
    _check_ibp_grid(params.alpha, kernel, grid)
    task = functools.partial(_ibp_sums, params.alpha, grid, kernel)
    meets, abel = zip(*_sample_batches(task, n_paths, master_seed, 0))
    # np.max passes a NaN discrepancy through, so it fails the tolerance test.
    max_abel = float(np.max(np.concatenate(abel)))

    fines = [grid.refined(factor) for factor in (1, 2, 4, 8)]
    anchor = SingularKernel(theta=0.5, T=T)
    brackets = [stieltjes_bracket(deterministic_path(fine), anchor) for fine in fines]
    # grid.refined(1) is the grid itself: the first row brackets the classical anchor.
    power_bracket = brackets[0]
    eps = grid.epsilon
    power_target = 2.0 * (math.sqrt(T) - math.sqrt(eps))
    exp_grid = TimeGrid.uniform(T, levels=max(len(grid) - 1, 1), epsilon=eps)
    exp_bracket = stieltjes_bracket(deterministic_path(exp_grid), ExpKernel(lam=1.0, T=T))
    exp_target = -math.expm1(-(T - eps))

    return IbpConsistencyReport(
        n_paths=int(n_paths),
        all_brackets_intersect=all(meets),
        max_abel_discrepancy=max_abel,
        abel_identity=max_abel <= ABEL_TOLERANCE,
        det_power_bracket=(power_bracket.lower, power_bracket.upper),
        det_power_target=power_target,
        det_exp_bracket=(exp_bracket.lower, exp_bracket.upper),
        det_exp_target=exp_target,
        classical_integrals=bool(
            power_bracket.contains(power_target) and exp_bracket.contains(exp_target)
        ),
        convergence_rows=tuple((len(fine), b.lower, b.upper, b.gap) for fine, b in zip(fines, brackets)),
    )
