"""Experiment configuration: parsing, validation, defaults, rendering.

Configs are flat JSON documents with an optional nested "grid" object.  Every
constraint violation names the offending key so the CLI can fail actionably.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .integrals import LOG_SPACE_THRESHOLD
from .subordinator import TimeGrid

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "GridConfig",
    "EXPERIMENTS",
    "config_from_mapping",
    "parse_config",
    "render_config",
]

EXPERIMENTS = (
    "laplace_check",
    "cdf_check",
    "scaling",
    "moment_bound_theta",
    "moment_bound_exp",
    "blowup",
    "ibp_consistency",
    "kernel_classify",
    "verify_all",
)

DEFAULT_MASTER_SEED = 12345
DEFAULT_REPLICATES = 100_000
_TWO64 = 1 << 64

_GRID_KEYS = ("kind", "levels", "q", "epsilon")
_TOP_KEYS = (
    "experiment",
    "alpha",
    "theta",
    "p",
    "lambda",
    "T",
    "times",
    "grid",
    "n_replicates",
    "master_seed",
    "workers",
    "output_path",
)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


@dataclass(frozen=True)
class GridConfig:
    """Grid shape: geometric refinement toward 0 by default.

    For geometric grids an explicit epsilon fixes the ratio via
    q = (epsilon/T)^(1/levels); otherwise epsilon = T * q^levels
    (T * 2^-40 with the defaults).
    """

    kind: str = "geometric"
    levels: int = 40
    q: float = 0.5
    epsilon: float | None = None

    def build(self, T: float) -> TimeGrid:
        if self.kind == "uniform":
            return TimeGrid.uniform(T, self.levels, self.epsilon)
        if self.epsilon is not None:
            ratio = (self.epsilon / T) ** (1.0 / self.levels)
            return TimeGrid.geometric(T, self.levels, ratio)
        return TimeGrid.geometric(T, self.levels, self.q)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters of one experiment run.

    A rendered config plus the recorded master seed is sufficient to re-run
    the experiment exactly.
    """

    experiment: str
    alpha: float | tuple[float, ...] | None = None
    theta: float | None = None
    p: float | None = None
    lam: float | None = None
    T: float = 1.0
    times: tuple[float, ...] | None = None
    grid: GridConfig = field(default_factory=GridConfig)
    n_replicates: int = DEFAULT_REPLICATES
    master_seed: int = DEFAULT_MASTER_SEED
    workers: int = 1
    output_path: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.alpha, list):
            object.__setattr__(self, "alpha", tuple(self.alpha))
        if isinstance(self.times, list):
            object.__setattr__(self, "times", tuple(self.times))

    def alphas(self) -> tuple[float, ...]:
        """Alpha grid: scalars become singletons, None the standard triple."""
        if self.alpha is None:
            return (0.3, 0.5, 0.7)
        if isinstance(self.alpha, tuple):
            return self.alpha
        return (self.alpha,)

    def scalar_alpha(self) -> float:
        if not isinstance(self.alpha, float):
            raise ConfigError(f"{self.experiment} requires a scalar alpha")
        return self.alpha


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config document."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_mapping(payload)


def config_from_mapping(payload: dict) -> ExperimentConfig:
    """Build a validated config from a plain mapping (CLI flags or JSON)."""
    for key in payload:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key: {key!r}")
    if "experiment" not in payload or payload["experiment"] is None:
        raise ConfigError("missing required field: experiment")
    experiment = payload["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}")

    grid_payload = payload.get("grid") or {}
    if not isinstance(grid_payload, dict):
        raise ConfigError("grid must be an object")
    for key in grid_payload:
        if key not in _GRID_KEYS:
            raise ConfigError(f"unknown key: grid.{key!r}")
    # The bounded exponential kernel has no singularity to resolve, so its
    # natural default is uniform cells; everything else refines toward 0.
    default_kind = "uniform" if experiment == "moment_bound_exp" else "geometric"
    grid = GridConfig(
        kind=grid_payload.get("kind", default_kind),
        levels=_req_int(grid_payload.get("levels", 40), "grid.levels"),
        q=_req_float(grid_payload.get("q", 0.5), "grid.q"),
        epsilon=_opt_float(grid_payload.get("epsilon"), "grid.epsilon"),
    )

    alpha = payload.get("alpha")
    if isinstance(alpha, (list, tuple)):
        alpha = tuple(_req_float(a, "alpha") for a in alpha)
    elif alpha is not None:
        alpha = _req_float(alpha, "alpha")

    times = payload.get("times")
    if times is not None:
        if not isinstance(times, (list, tuple)) or not times:
            raise ConfigError("times must be a nonempty list of horizons")
        times = tuple(_req_float(t, "times") for t in times)

    config = ExperimentConfig(
        experiment=experiment,
        alpha=alpha,
        theta=_opt_float(payload.get("theta"), "theta"),
        p=_opt_float(payload.get("p"), "p"),
        lam=_opt_float(payload.get("lambda"), "lambda"),
        T=_req_float(payload.get("T", 1.0), "T"),
        times=times,
        grid=grid,
        n_replicates=_req_int(payload.get("n_replicates", DEFAULT_REPLICATES), "n_replicates"),
        master_seed=_req_int(payload.get("master_seed", DEFAULT_MASTER_SEED), "master_seed"),
        workers=_req_int(payload.get("workers", 1), "workers"),
        output_path=payload.get("output_path"),
    )
    config = _apply_experiment_defaults(config)
    validate_config(config)
    return config


def _apply_experiment_defaults(config: ExperimentConfig) -> ExperimentConfig:
    if config.experiment == "cdf_check" and config.alpha is None:
        config = replace(config, alpha=0.5)
    if config.experiment == "scaling" and config.times is None:
        config = replace(config, times=(0.25, 1.0, 4.0))
    if config.experiment in ("scaling", "moment_bound_theta", "moment_bound_exp"):
        if config.p is None and isinstance(config.alpha, float):
            config = replace(config, p=config.alpha / 2.0)
    if config.experiment == "moment_bound_exp" and config.lam is None:
        config = replace(config, lam=1.0)
    return config


def validate_config(config: ExperimentConfig) -> None:
    if not config.T > 0.0:
        raise ConfigError("T must be > 0")
    if config.n_replicates < 2:
        raise ConfigError("n_replicates must be >= 2")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    if not 0 <= config.master_seed < _TWO64:
        raise ConfigError("master_seed must lie in [0, 2**64)")

    grid = config.grid
    if grid.kind not in ("geometric", "uniform"):
        raise ConfigError(f"grid.kind must be 'geometric' or 'uniform', got {grid.kind!r}")
    if grid.levels < 1:
        raise ConfigError("grid.levels must be >= 1")
    if not 0.0 < grid.q < 1.0:
        raise ConfigError("grid.q must lie in (0, 1)")
    if grid.epsilon is not None and not 0.0 < grid.epsilon < config.T:
        raise ConfigError("grid.epsilon must lie in (0, T)")

    exp = config.experiment
    if exp in ("laplace_check",):
        for a in config.alphas():
            _check_alpha_value(a)
    elif exp == "cdf_check":
        if config.scalar_alpha() != 0.5:
            raise ConfigError("alpha must be 0.5 for cdf_check (the closed-form comparison law)")
    elif exp == "scaling":
        alpha = _require(config, "alpha").scalar_alpha()
        _check_alpha_value(alpha)
        _check_order(config, alpha)
        for t in config.times or ():
            if not t > 0.0:
                raise ConfigError("times must be positive")
    elif exp == "moment_bound_theta":
        alpha = _require(config, "alpha").scalar_alpha()
        _check_alpha_value(alpha)
        theta = _required_value(config.theta, "theta")
        if not theta > 0.0:
            raise ConfigError("theta must be > 0")
        if not theta < 1.0 / alpha:
            raise ConfigError("theta must be < 1/alpha")
        _check_order(config, alpha)
        # The batched kernel epsilon^(-theta) has no log-space form.
        try:
            log_scale = theta * abs(math.log(config.grid.build(config.T).epsilon))
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
        if log_scale > LOG_SPACE_THRESHOLD:
            raise ConfigError(
                f"theta * |ln(grid epsilon)| must be <= {LOG_SPACE_THRESHOLD:g} "
                f"(epsilon^-theta leaves double range); got {log_scale:.6g}"
            )
    elif exp == "moment_bound_exp":
        alpha = _require(config, "alpha").scalar_alpha()
        _check_alpha_value(alpha)
        if not _required_value(config.lam, "lambda") > 0.0:
            raise ConfigError("lambda must be > 0")
        _check_order(config, alpha)
    elif exp == "blowup":
        alpha = _require(config, "alpha").scalar_alpha()
        _check_alpha_value(alpha)
        if not _required_value(config.theta, "theta") > 0.0:
            raise ConfigError("theta must be > 0")
        if config.n_replicates < 100:
            raise ConfigError("n_replicates must be >= 100 (stable medians)")
        if config.grid.levels < 15:
            raise ConfigError("grid.levels must be >= 15 for blowup (epsilon levels start at 2^-10)")
    elif exp == "ibp_consistency":
        alpha = _require(config, "alpha").scalar_alpha()
        _check_alpha_value(alpha)
        if config.theta is not None and not config.theta >= 0.0:
            raise ConfigError("theta must be >= 0")
    elif exp == "kernel_classify":
        alpha = _require(config, "alpha").scalar_alpha()
        if not 0.0 < alpha <= 1.0:
            raise ConfigError("alpha must lie in (0, 1]")
        if not _required_value(config.theta, "theta") > 0.0:
            raise ConfigError("theta must be > 0")


def _check_alpha_value(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0,1)")


def _check_order(config: ExperimentConfig, alpha: float) -> None:
    p = _required_value(config.p, "p")
    if not 0.0 < p < alpha:
        raise ConfigError("p must be < alpha (and positive)")


def _require(config: ExperimentConfig, key: str) -> ExperimentConfig:
    if getattr(config, key) is None:
        raise ConfigError(f"missing required field: {key}")
    return config


def _required_value(value, key: str):
    if value is None:
        raise ConfigError(f"missing required field: {key}")
    return value


def _req_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _req_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _opt_float(value, key: str) -> float | None:
    if value is None:
        return None
    return _req_float(value, key)


def render_config(config: ExperimentConfig) -> str:
    """Canonical JSON rendering; parse_config(render_config(c)) == c."""
    payload = {
        "experiment": config.experiment,
        "alpha": list(config.alpha) if isinstance(config.alpha, tuple) else config.alpha,
        "theta": config.theta,
        "p": config.p,
        "lambda": config.lam,
        "T": config.T,
        "times": list(config.times) if config.times is not None else None,
        "grid": {
            "kind": config.grid.kind,
            "levels": config.grid.levels,
            "q": config.grid.q,
            "epsilon": config.grid.epsilon,
        },
        "n_replicates": config.n_replicates,
        "master_seed": config.master_seed,
        "workers": config.workers,
        "output_path": config.output_path,
    }
    return json.dumps(payload, sort_keys=True, indent=2)
