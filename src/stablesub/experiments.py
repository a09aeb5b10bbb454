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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .integrals import (
    LOG_SPACE_THRESHOLD,
    ExpKernel,
    IntegralBracket,
    SingularKernel,
    _abel_discrepancies,
    _brackets_meet,
    _check_horizon,
    _log_power_sums,
    _needs_log_space,
    exp_bracket_sums,
    exp_kernel_integral,
    ibp_bracket_sums,
    power_bracket_sums,
    stieltjes_bracket,
)
from .special import FracMomentQuery, frac_moment_closed_form, levy_half_cdf
from .subordinator import (
    DEFAULT_GRID_LEVELS,
    DEFAULT_GRID_Q,
    DEFAULT_MASTER_SEED,
    SeedSpec,
    StableParams,
    SubordinatorPath,
    TimeGrid,
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
    "default_grid",
    "draw_standard_samples",
    "exp_kernel_moment_bound",
    "ks_distance",
    "power_kernel_moment_bound",
    "run_blowup_diagnostic",
    "run_blowup_diagnostics",
    "run_cdf_check",
    "run_ibp_consistency",
    "run_laplace_check",
    "run_moment_check",
    "run_moment_checks",
    "run_scaling_check",
]

# Fixed replicate batching unit; batch boundaries must not depend on the
# worker count or reproducibility across worker counts would break.
BATCH_SIZE = 4096
# Rows of a moment batch transformed and bracketed at a time, so the working
# set stays small.  A multiple of 4: a BLAS matrix-vector product rounds a row
# by its place in a block of 4 rows, so chunks that start on such a block give
# the same bracket sums, bit for bit, as one product over the whole batch.
CHUNK_ROWS = 512
# Batch streams are keyed by replicate_index = (cell << 32) | batch.
_CELL_SHIFT = 32
# The Laplace check's (alpha, lambda) grid.
LAPLACE_ALPHAS = (0.3, 0.5, 0.7)
LAPLACE_LAMBDAS = (0.5, 1.0, 2.0)
# Blowup's epsilon levels run from T * 2^-BLOWUP_MIN_LEVEL down to T * 2^-max_level.
BLOWUP_MIN_LEVEL = 10
# Relative slack of the ibp check: rounding, where theta = 0 shrinks both
# brackets to a point, and the Abel identity's largest discrepancy.
ABEL_TOLERANCE = 1e-10


# --------------------------------------------------------------------------
# closed-form bounds and the analytic kernel classifier


def power_kernel_moment_bound(alpha: float, theta: float, p: float, T: float = 1.0) -> float:
    """Closed-form majorant of E (int_0^T t^-theta dS)^p, valid for theta < 1/alpha.

        (2^(p/alpha + p*theta) * E S_1^p / (2^(p/alpha) - 2^(p*theta)) + 1)
            * T^((1/alpha - theta) * p)

    with E S_1^p from the validated closed form.
    """
    query = FracMomentQuery(alpha, p, 1.0)  # validates alpha and p before 1/alpha
    if not 0.0 < theta < 1.0 / alpha:
        raise ValueError(f"theta must lie in (0, 1/alpha): got theta={theta}, alpha={alpha}")
    if not T > 0.0:
        raise ValueError(f"T must be > 0, got {T}")
    moment = frac_moment_closed_form(query)
    numerator = 2.0 ** (p / alpha + p * theta) * moment
    denominator = 2.0 ** (p / alpha) - 2.0 ** (p * theta)
    return (numerator / denominator + 1.0) * T ** ((1.0 / alpha - theta) * p)


def exp_kernel_moment_bound(alpha: float, p: float, lam: float) -> float:
    """Horizon-independent majorant of E (int_0^T e^(-lam (T-t)) dS)^p.

    Equals e^(p*lam) / (e^(p*lam) - 1) * E S_1^p, evaluated in the
    overflow-safe form E S_1^p / (1 - e^(-p*lam)).
    """
    query = FracMomentQuery(alpha, p, 1.0)
    if not lam > 0.0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    moment = frac_moment_closed_form(query)
    return moment / -math.expm1(-p * lam)


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
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be >= 0")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "MomentEstimate":
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        if n < 2:
            raise ValueError("need at least 2 replicates")
        return cls(
            mean=float(samples.mean()),
            std_error=float(samples.std(ddof=1) / math.sqrt(n)),
            n_replicates=n,
        )


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
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


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
    """One batch, packed as a single argument for the pool's map."""
    task, seed, count = args
    return task(seed, count)


# (workers, pool) of the pool that _worker_pool holds open, or None.
_RUN_POOL = None


@contextlib.contextmanager
def _worker_pool(workers: int):
    """Run every _sample_batches call inside the block on `workers` processes.

    One process pool is built on entry (none for a single worker: the batches
    run serially) and shut down, its workers joined, on exit.
    """
    global _RUN_POOL
    outer = _RUN_POOL
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        _RUN_POOL = None if pool is None else (workers, pool)
        try:
            yield
        finally:
            _RUN_POOL = outer


def _sample_batches(task, n_replicates: int, master_seed: int, cell: int) -> list:
    """`task(seed, count)` for each BATCH_SIZE batch of a cell's replicates, in order.

    Batch b of cell c draws from the stream _stream(master_seed, c, b).  The
    batches run in the process pool that _worker_pool holds open, so `task`
    must pickle (a module-level function or a functools.partial of one), and
    serially when no pool is open.
    """
    n = int(n_replicates)
    if n < 1:
        raise ValueError(f"n_replicates must be >= 1, got {n}")
    args = [
        (task, _stream(master_seed, cell, batch), min(BATCH_SIZE, n - start))
        for batch, start in enumerate(range(0, n, BATCH_SIZE))
    ]
    if _RUN_POOL is None or len(args) <= 1:
        return [_batch_task(a) for a in args]
    workers, pool = _RUN_POOL
    # A few batches per message: fewer round trips, the same order.
    return list(pool.map(_batch_task, args, chunksize=math.ceil(len(args) / (4 * workers))))


def draw_standard_samples(
    alpha: float,
    n_replicates: int,
    master_seed: int = DEFAULT_MASTER_SEED,
    cell: int = 0,
) -> np.ndarray:
    """Batched i.i.d. S_1 draws; `cell` separates streams of one experiment."""
    task = functools.partial(sample_standard_stable_batch, StableParams(alpha))
    return np.concatenate(_sample_batches(task, n_replicates, master_seed, cell))


def _moment_sums(plan: tuple, seed: SeedSpec, count: int) -> np.ndarray:
    """One batch of paths on grids of one length, bracketed under every kernel.

    `plan` holds (alpha, ((grid, kernels), ...)) entries.  The batch draws
    (U, W) once; then, CHUNK_ROWS rows at a time, kanter_draws makes every
    alpha's standard draws from one set of sines, each grid scales its alpha's
    draws by (t_{i+1} - t_i)^(1/alpha) into paths, and each kernel brackets
    the paths' increments.  Returns sums[k, side, row]: k counts the kernels
    in plan order, side 0 is the lower sum and side 1 the upper.
    """
    first_grid = plan[0][1][0][0]  # every grid of the plan has its length
    u, w = kanter_inputs(seed, (count, len(first_grid)))
    alphas = [alpha for alpha, _ in plan]
    scales = [
        [np.diff(grid.points, prepend=0.0) ** (1.0 / alpha) for grid, _ in grids]
        for alpha, grids in plan
    ]
    sums = np.empty((sum(len(kernels) for _, grids in plan for _, kernels in grids), 2, count))
    for start in range(0, count, CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        k = 0
        for (_, grids), draws, grid_scales in zip(plan, kanter_draws(alphas, u[rows], w[rows]), scales):
            for (grid, kernels), scale in zip(grids, grid_scales):
                increments = np.diff(np.cumsum(draws * scale, axis=1), axis=1)
                for kernel in kernels:
                    sums[k, :, rows] = (
                        power_bracket_sums(grid.points, increments, kernel.theta)
                        if isinstance(kernel, SingularKernel)
                        else exp_bracket_sums(grid.points, increments, kernel.lam, kernel.T)
                    )
                    k += 1
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


def _ibp_sums(alpha: float, grid: TimeGrid, theta: float, seed: SeedSpec, count: int):
    """One batch: do both bracket routes meet on every row, and the rows' Abel discrepancies."""
    values = sample_path_values(StableParams(alpha), grid, seed, count)
    SubordinatorPath.check_rows(values)
    if _needs_log_space(grid.epsilon, theta):
        # Both routes reduce to the same log-space sums (see ibp_estimate).
        direct = via_parts = _log_power_sums(grid.points, values, theta)
    else:
        direct = power_bracket_sums(grid.points, np.diff(values, axis=1), theta)
        via_parts = ibp_bracket_sums(grid.points, values, theta)
    IntegralBracket.check_rows(*direct)
    IntegralBracket.check_rows(*via_parts)
    meet = bool(np.all(_brackets_meet(*direct, *via_parts, ABEL_TOLERANCE)))
    probes = _stream(seed.master_seed, 1, seed.replicate_index).generator().random(count)
    return meet, _abel_discrepancies(grid.points, values, 0.05 + probes * 4.0)


# --------------------------------------------------------------------------
# experiment drivers


def default_grid(kernel) -> TimeGrid:
    """Grid matched to the kernel: dyadic refinement toward the power-kernel
    singularity, uniform cells for the bounded exponential kernel."""
    if isinstance(kernel, SingularKernel):
        return TimeGrid.geometric(kernel.T, DEFAULT_GRID_LEVELS, DEFAULT_GRID_Q)
    return TimeGrid.uniform(kernel.T, DEFAULT_GRID_LEVELS)


def run_laplace_check(
    alphas=LAPLACE_ALPHAS,
    n_replicates: int = 100_000,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> LaplaceCheckReport:
    """Check E e^(-lam S_1) = e^(-lam^alpha) cell by cell over alphas x
    LAPLACE_LAMBDAS, 3-sigma acceptance."""
    _check_laplace_args(alphas, n_replicates)
    cells = []
    cell_index = 0
    for alpha in alphas:
        for lam in LAPLACE_LAMBDAS:
            draws = draw_standard_samples(alpha, n_replicates, master_seed, cell_index)
            transformed = np.exp(-lam * draws)
            est = MomentEstimate.from_samples(transformed)
            target = math.exp(-(lam**alpha))
            cells.append(
                LaplaceCell(
                    alpha=alpha,
                    lam=lam,
                    mc_mean=est.mean,
                    std_error=est.std_error,
                    target=target,
                    within_3se=abs(est.mean - target) <= 3.0 * est.std_error,
                )
            )
            cell_index += 1
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
    return float(max(np.max(grid_hi - theoretical), np.max(theoretical - grid_lo)))


def run_cdf_check(
    n_replicates: int = 100_000,
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
    # Below three draws 1.63/sqrt(n) >= 1 exceeds every KS distance: a pass on nothing.
    if n_replicates < 3:
        raise ValueError(f"n_replicates must be >= 3 for the KS test, got {n_replicates}")


def run_scaling_check(
    params: StableParams,
    p: float,
    times=(0.25, 1.0, 4.0),
    n_replicates: int = 100_000,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> ScalingCheckReport:
    """Self-similarity collapse: E S_t^p / t^(p/alpha) constant across horizons."""
    reference = frac_moment_closed_form(_check_scaling_args(params.alpha, p, times))
    normalized, errors = [], []
    for cell, t in enumerate(times):
        draws = draw_standard_samples(params.alpha, n_replicates, master_seed, cell)
        scaled = (t ** (1.0 / params.alpha) * draws) ** p
        est = MomentEstimate.from_samples(scaled)
        norm = t ** (p / params.alpha)
        normalized.append(est.mean / norm)
        errors.append(est.std_error / norm)
    max_sigmas = 0.0
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            combined = math.hypot(errors[i], errors[j])
            if combined > 0.0:
                max_sigmas = max(max_sigmas, abs(normalized[i] - normalized[j]) / combined)
    return ScalingCheckReport(
        times=tuple(float(t) for t in times),
        normalized_means=tuple(normalized),
        std_errors=tuple(errors),
        reference=reference,
        max_deviation_sigmas=max_sigmas,
        passed=max_sigmas <= 3.0,
    )


def _check_scaling_args(alpha: float, p: float, times) -> FracMomentQuery:
    """Validate the scaling check's arguments; returns the query of E S_1^p."""
    query = FracMomentQuery(alpha, p, 1.0)
    if not times:
        raise ValueError("times must be nonempty")
    for t in times:
        if not t > 0.0:
            raise ValueError(f"times must be positive, got {t}")
    return query


def run_moment_check(
    params: StableParams,
    kernel,
    p: float,
    n_replicates: int = 100_000,
    master_seed: int = DEFAULT_MASTER_SEED,
    grid: TimeGrid | None = None,
) -> BoundCheckReport:
    """Estimate E (bracket of the kernel integral)^p and compare to its bound."""
    return run_moment_checks([(params, kernel, p, grid)], n_replicates, master_seed)[0]


def run_moment_checks(
    cells,
    n_replicates: int = 100_000,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> list[BoundCheckReport]:
    """Moment-bound checks for (params, kernel, p, grid or None) cells, in order.

    Every cell keys its (U, W) draws by (master_seed, batch) alone, so cells
    with the same grid length share them (common random numbers: their
    verdicts are correlated), cells with the same alpha too share their
    standard draws, and cells with the same grid too share their paths.  Cells
    are grouped by grid length, then alpha, grid and kernel; each grid length
    takes one sampling pass (_moment_sums), whose brackets are reduced and
    released before the next pass is sampled.
    """
    prepared = [_moment_cell(*cell) for cell in cells]
    passes: dict = {}
    for index, (alpha, grid, kernel, _, _) in enumerate(prepared):
        grids = passes.setdefault(len(grid), {}).setdefault(alpha, {})
        _, kernels = grids.setdefault(grid.points.tobytes(), (grid, {}))
        kernels.setdefault(kernel, []).append(index)
    reports: list = [None] * len(prepared)
    for by_alpha in passes.values():
        plan = tuple(
            (alpha, tuple((grid, tuple(kernels)) for grid, kernels in grids.values()))
            for alpha, grids in by_alpha.items()
        )
        members = [
            indices
            for grids in by_alpha.values()
            for _, kernels in grids.values()
            for indices in kernels.values()
        ]
        task = functools.partial(_moment_sums, plan)
        parts = _sample_batches(task, n_replicates, master_seed, 0)
        for k, indices in enumerate(members):
            lower = np.concatenate([part[k, 0] for part in parts])
            upper = np.concatenate([part[k, 1] for part in parts])
            for index in indices:
                _, _, _, p, bound = prepared[index]
                reports[index] = _bound_report(lower, upper, p, bound)
        del parts
    return reports


def _moment_cell(params: StableParams, kernel, p: float, grid: TimeGrid | None):
    """Validate one moment-bound cell: (alpha, grid, kernel, p, bound)."""
    if isinstance(kernel, SingularKernel):
        bound = power_kernel_moment_bound(params.alpha, kernel.theta, p, kernel.T)
    elif isinstance(kernel, ExpKernel):
        bound = exp_kernel_moment_bound(params.alpha, p, kernel.lam)
    else:
        raise TypeError(f"unsupported kernel type: {type(kernel).__name__}")
    if grid is None:
        grid = default_grid(kernel)
    _check_horizon(grid, kernel.T)
    if isinstance(kernel, SingularKernel) and _needs_log_space(grid.epsilon, kernel.theta):
        # The batched sums have no log-space form; refuse before sampling.
        raise ValueError(
            f"theta * |ln(grid epsilon)| must be <= {LOG_SPACE_THRESHOLD:g} "
            f"(epsilon^-theta leaves double range); "
            f"got {kernel.theta * abs(math.log(grid.epsilon)):.6g}"
        )
    return params.alpha, grid, kernel, p, bound


def _bound_report(lower: np.ndarray, upper: np.ndarray, p: float, bound: float) -> BoundCheckReport:
    est_upper = MomentEstimate.from_samples(upper**p)
    est_lower = MomentEstimate.from_samples(lower**p)
    margin = bound - (est_upper.mean + 3.0 * est_upper.std_error)
    return BoundCheckReport(
        estimate=est_upper,
        lower_estimate=est_lower,
        bound_value=bound,
        margin=margin,
        verdict="pass" if margin >= 0.0 else "fail",
    )


def run_blowup_diagnostic(
    params: StableParams,
    theta: float,
    T: float = 1.0,
    max_level: int = 30,
    n_replicates: int = 10_000,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> SlopeReport:
    """Median growth of the scaled near-origin statistic across epsilon levels.

    For epsilon = T 2^-j the statistic epsilon^(-theta) S_epsilon has median
    proportional to epsilon^(1/alpha - theta); the report fits the log-log
    slope against log(1/epsilon) and compares it with theta - 1/alpha.
    Medians, not means: the raw integrals have infinite expectation.
    """
    return run_blowup_diagnostics(params, (theta,), T, max_level, n_replicates, master_seed)[0]


def run_blowup_diagnostics(
    params: StableParams,
    thetas,
    T: float = 1.0,
    max_level: int = 30,
    n_replicates: int = 10_000,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> list[SlopeReport]:
    """Blow-up diagnostics for several exponents, in order, on one set of paths.

    Every exponent keys its paths by (master_seed, batch) alone, so the
    diagnostics share them: each batch is sampled once and reduced under
    every theta.
    """
    if not thetas:
        raise ValueError("thetas must be nonempty")
    for theta in thetas:
        _check_blowup_args(theta, n_replicates, max_level)
    grid = TimeGrid.geometric(T, levels=max_level, q=0.5)
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


def _check_blowup_args(theta: float, n_replicates: int, max_level: int) -> None:
    if n_replicates < 100:
        raise ValueError("n_replicates must be at least 100 for stable medians")
    if not theta > 0.0:
        raise ValueError(f"theta must be > 0, got {theta}")
    if max_level < BLOWUP_MIN_LEVEL + 5:  # the slope fit takes at least six levels
        raise ValueError(
            f"grid.levels (max_level) must be >= {BLOWUP_MIN_LEVEL + 5} for blowup, got {max_level}"
        )


def _median_with_ci(matrix: np.ndarray):
    """Column medians with distribution-free ~95% order-statistic intervals."""
    ordered = np.sort(matrix, axis=0)
    n = ordered.shape[0]
    med = np.median(ordered, axis=0)
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
    theta: float = 0.5,
    T: float = 1.0,
    n_paths: int = 1000,
    master_seed: int = DEFAULT_MASTER_SEED,
    grid: TimeGrid | None = None,
) -> IbpConsistencyReport:
    """Check that both bracket routes enclose the same truncated integral.

    On every sampled path the endpoint-sum bracket and the
    boundary-plus-time-integral bracket must intersect (up to ABEL_TOLERANCE
    of their magnitude, which absorbs rounding where theta = 0 shrinks both
    to a point), and the discrete summation-by-parts identity must hold to
    rounding accuracy, each with an independently drawn exponent.  Paths are
    sampled and checked one batch at a time.  Deterministic-path anchors pin
    the estimators to classical integrals, and a midpoint-refinement sweep
    records how the deterministic bracket tightens.
    """
    kernel = SingularKernel(theta=theta, T=T)
    if grid is None:
        grid = default_grid(kernel)
    _check_horizon(grid, T)
    task = functools.partial(_ibp_sums, params.alpha, grid, theta)
    meets, abel = zip(*_sample_batches(task, n_paths, master_seed, 0))
    # np.max passes a NaN discrepancy through, so it fails the tolerance test.
    max_abel = float(np.max(np.concatenate(abel)))

    det = deterministic_path(grid)
    power_bracket = stieltjes_bracket(det, SingularKernel(theta=0.5, T=T))
    eps = grid.epsilon
    power_target = 2.0 * (math.sqrt(T) - math.sqrt(eps))
    exp_grid = TimeGrid.uniform(T, levels=max(len(grid) - 1, 1), epsilon=eps)
    exp_bracket = exp_kernel_integral(deterministic_path(exp_grid), ExpKernel(lam=1.0, T=T))
    exp_target = 1.0 - math.exp(-(T - eps))

    rows = []
    for factor in (1, 2, 4, 8):
        fine = grid.refined(factor)
        bracket = stieltjes_bracket(deterministic_path(fine), SingularKernel(theta=0.5, T=T))
        rows.append((len(fine), bracket.lower, bracket.upper, bracket.gap))

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
        convergence_rows=tuple(rows),
    )
