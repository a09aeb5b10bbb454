"""Exact-in-distribution sampling of stable subordinator paths on time grids.

Paths are materialized only at grid points: jumps interior to a cell are never
located.  The integral estimators downstream absorb that uncertainty with
rigorous lower/upper bracketing, so exactness at the grid points is the only
distributional requirement.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "NonFiniteDrawError",
    "SeedSpec",
    "StableParams",
    "SubordinatorPath",
    "TimeGrid",
    "deterministic_path",
    "kanter_draws",
    "kanter_inputs",
    "sample_path",
    "sample_path_values",
    "sample_standard_stable_batch",
]

DEFAULT_MASTER_SEED = 12345
# Default grid shape: 40 geometric levels of ratio 1/2, so epsilon = T * 2^-40.
DEFAULT_GRID_LEVELS = 40
DEFAULT_GRID_Q = 0.5
_TWO64 = 1 << 64
# Angle clamp for the sine-ratio construction: the ratios overflow at the
# endpoints of (0, pi).  The induced bias is far below statistical resolution.
_ANGLE_CLAMP = 1e-12


class NonFiniteDrawError(ValueError):
    """Draws or paths left double range: at small alpha sin(U)^(1/alpha)
    underflows, and at a large horizon the scaled draws overflow."""


def _check_finite(finite: np.ndarray, where: str, what: str) -> None:
    """Raise NonFiniteDrawError("<where>: <bad> of <n> <what>") if `bad` of `finite`'s n entries are False."""
    bad = finite.size - int(np.count_nonzero(finite))
    if bad:
        raise NonFiniteDrawError(f"{where}: {bad} of {finite.size} {what}")


@dataclass(frozen=True)
class StableParams:
    """Stability index; the sampler needs alpha strictly inside (0, 1).

    The alpha = 1 case (the identity path S_t = t) is produced only by
    deterministic_path, never by the sampler.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible stream identity.

    The pair (master_seed, replicate_index) is used verbatim as the 128-bit
    Philox key, so distinct pairs give distinct counter-based streams and an
    identical pair reproduces identical draws bit-for-bit, independent of how
    many streams are consumed concurrently elsewhere.
    """

    master_seed: int
    replicate_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "replicate_index"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and 0 <= int(value) < _TWO64):
                raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")

    def generator(self) -> Generator:
        key = np.array([self.master_seed, self.replicate_index], dtype=np.uint64)
        return Generator(Philox(key=key))


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing sampling times in (0, T]; the first point is epsilon."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid needs at least one point")
        if not pts[0] > 0.0:
            raise ValueError("grid points must be positive")
        if pts.size > 1 and not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def T(self) -> float:
        return float(self.points[-1])

    @property
    def epsilon(self) -> float:
        return float(self.points[0])

    @classmethod
    def geometric(cls, T: float, levels: int, q: float = DEFAULT_GRID_Q) -> "TimeGrid":
        """Points T * q^k for k = levels..0, so epsilon = T * q^levels."""
        if not 0.0 < T < math.inf:
            raise ValueError(f"T must be > 0 and finite, got {T}")
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {q}")
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        pts = T * q ** np.arange(levels, -1, -1, dtype=float)
        return cls(points=pts)

    @classmethod
    def uniform(cls, T: float, levels: int, epsilon: float | None = None) -> "TimeGrid":
        """`levels` equal cells from epsilon (default T * 2^-40) up to T."""
        if not 0.0 < T < math.inf:
            raise ValueError(f"T must be > 0 and finite, got {T}")
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        eps = T * DEFAULT_GRID_Q**DEFAULT_GRID_LEVELS if epsilon is None else float(epsilon)
        if not 0.0 < eps < T:
            raise ValueError(f"epsilon must lie in (0, T), got {eps}")
        pts = np.linspace(eps, T, levels + 1)
        pts[0], pts[-1] = eps, T
        return cls(points=pts)

    def refined(self, factor: int = 2) -> "TimeGrid":
        """Split every cell into `factor` equal parts; epsilon and T unchanged."""
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if factor == 1 or len(self) == 1:
            return self
        left = self.points[:-1]
        step = (self.points[1:] - left) / factor
        inner = left[:, None] + step[:, None] * np.arange(factor, dtype=float)[None, :]
        pts = np.append(inner.ravel(), self.points[-1])
        return TimeGrid(points=pts)


@dataclass(frozen=True, eq=False)
class SubordinatorPath:
    """Grid times paired with nondecreasing, nonnegative process values.

    Strict increase holds for the continuum process; at grid resolution,
    nondecreasing values are the enforceable invariant.  Immutable after
    construction.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != self.grid.points.shape:
            raise ValueError("values must have one entry per grid point")
        self.check_rows(vals[None, :])
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def check_rows(values: np.ndarray) -> None:
        """Raise the path-invariant error for the first row of a value matrix
        that starts below 0 or decreases somewhere."""
        negative = ~(values[:, 0] >= 0.0)
        decreasing = ~np.all(np.diff(values, axis=1) >= 0.0, axis=1)
        bad = negative | decreasing
        if np.any(bad):
            row = int(np.argmax(bad))
            if negative[row]:
                raise ValueError("process values must be nonnegative")
            raise ValueError("process values must be nondecreasing")


def kanter_inputs(seed: SeedSpec, shape) -> tuple[np.ndarray, np.ndarray]:
    """The angles U, uniform on (0, pi), and unit exponentials W of `shape`
    Kanter draws, from the single stream keyed by `seed`.

    The only function that draws from a stream for the stable sampler: every
    standard draw is Kanter's transform of these (see kanter_draws).  U comes
    first, then W, each over the whole shape.  Degenerate endpoint draws
    (probability ~2^-53 each) are re-drawn rather than clamped away; U is then
    kept _ANGLE_CLAMP away from 0 and pi.
    """
    rng = seed.generator()
    u = rng.random(shape) * math.pi
    w = rng.standard_exponential(shape)
    bad = (u <= 0.0) | (w <= 0.0)
    while np.any(bad):
        n_bad = int(np.count_nonzero(bad))
        u[bad] = rng.random(n_bad) * math.pi
        w[bad] = rng.standard_exponential(n_bad)
        bad = (u <= 0.0) | (w <= 0.0)
    np.clip(u, _ANGLE_CLAMP, math.pi - _ANGLE_CLAMP, out=u)
    return u, w


def kanter_draws(alphas, u: np.ndarray, w: np.ndarray) -> list[np.ndarray]:
    """i.i.d. draws with Laplace transform exp(-lam^alpha), lam > 0, one array per alpha.

    Kanter construction: with U uniform on (0, pi) and W unit exponential,

        sin(alpha U) * sin((1-alpha) U)^(1/alpha - 1)
            / ( sin(U)^(1/alpha) * W^(1/alpha - 1) )

    has exactly the target law.  Rejection-free.  The alphas share (U, W),
    so their draws share their randomness (common random numbers), and each
    sine sin(c U) is evaluated once per distinct coefficient c: sin(U) for
    every alpha, sin(U / 2) twice for alpha = 1/2, sin(0.7 U) for both
    alpha = 0.3 and 0.7.  A sine is released after its last use, so no more
    arrays are alive at once than in the one-alpha expression.  Elementwise:
    any block of rows of (u, w) gives the same rows of each result, bit for
    bit.  Raises NonFiniteDrawError, naming alpha and the count, when an
    alpha's draws are not all finite.
    """
    uses = collections.Counter(c for alpha in alphas for c in (alpha, 1.0 - alpha, 1.0))
    sines: dict = {}

    def sin_of(c: float) -> np.ndarray:
        value = sines.pop(c) if c in sines else np.sin(c * u)
        uses[c] -= 1
        if uses[c]:
            sines[c] = value
        return value

    draws = []
    for alpha in alphas:
        inv = 1.0 / alpha
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            draw = (
                sin_of(alpha)
                * sin_of(1.0 - alpha) ** (inv - 1.0)
                / (sin_of(1.0) ** inv * w ** (inv - 1.0))
            )
        where = f"alpha = {alpha:g} leaves the sampler's double range"
        _check_finite(np.isfinite(draw), where, "stable draws are not finite")
        draws.append(draw)
    return draws


def _standard_stable_draws(alpha: float, seed: SeedSpec, shape) -> np.ndarray:
    """Standard draws of `shape` for one alpha: kanter_inputs, then kanter_draws."""
    u, w = kanter_inputs(seed, shape)
    return kanter_draws((alpha,), u, w)[0]


def sample_standard_stable_batch(params: StableParams, seed: SeedSpec, size: int) -> np.ndarray:
    """`size` i.i.d. draws of S_1 from the single stream keyed by `seed`."""
    return _standard_stable_draws(params.alpha, seed, int(size))


def _assemble_paths(draws: np.ndarray, grid: TimeGrid, alpha: float) -> np.ndarray:
    """The paths of sample_path_values from rows of its standard draws: scaled
    and summed only, so the caller checks the values."""
    return np.cumsum(draws * np.diff(grid.points, prepend=0.0) ** (1.0 / alpha), axis=1)


def sample_path_values(
    params: StableParams, grid: TimeGrid, seed: SeedSpec, n_paths: int
) -> np.ndarray:
    """Value matrix of shape (n_paths, len(grid)): independent paths, one stream.

    Cell increments are (t_{i+1} - t_i)^(1/alpha) times independent standard
    draws; the first column carries the increment over (0, epsilon].  Raises
    NonFiniteDrawError, naming T and alpha, when a path overflows.
    """
    draws = _standard_stable_draws(params.alpha, seed, (int(n_paths), len(grid)))
    with np.errstate(over="ignore"):
        values = _assemble_paths(draws, grid, params.alpha)
    # A row is nondecreasing, so it is finite where its last value is.
    where = f"T = {grid.T:g} at alpha = {params.alpha:g}"
    _check_finite(np.isfinite(values[:, -1]), where, "paths leave double range")
    return values


def sample_path(params: StableParams, grid: TimeGrid, seed: SeedSpec) -> SubordinatorPath:
    """One path, exact in distribution at the grid points, bit-reproducible per seed."""
    values = sample_path_values(params, grid, seed, 1)[0]
    return SubordinatorPath(grid=grid, values=values)


def deterministic_path(grid: TimeGrid) -> SubordinatorPath:
    """The alpha = 1 path S_t = t; turns every estimator into classical calculus."""
    return SubordinatorPath(grid=grid, values=grid.points.copy())
