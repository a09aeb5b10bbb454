"""Experiment configuration: parsing, validation, defaults, rendering.

Configs are flat JSON documents with an optional nested "grid" object, parsed
through one key table, with each experiment's defaults in one table.  The
parameter rules (alpha in (0, 1), 0 < p < alpha, theta < 1/alpha, ...) are the
library's own: validation builds the objects a run builds.  Every error names
the offending key so the CLI can fail actionably.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from . import experiments
from .integrals import ExpKernel, SingularKernel
from .subordinator import DEFAULT_GRID_LEVELS, DEFAULT_GRID_Q, DEFAULT_MASTER_SEED
from .subordinator import SeedSpec, StableParams, TimeGrid

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "GridConfig",
    "EXPERIMENTS",
    "config_from_mapping",
    "parse_config",
    "parse_document",
    "render_config",
]

DEFAULT_REPLICATES = 100_000


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
    levels: int = DEFAULT_GRID_LEVELS
    q: float = DEFAULT_GRID_Q
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

    def alphas(self) -> tuple[float, ...]:
        """Alpha grid: scalars become singletons, None the Laplace check's triple."""
        if self.alpha is None:
            return experiments.LAPLACE_ALPHAS
        if isinstance(self.alpha, tuple):
            return self.alpha
        return (self.alpha,)

    def scalar_alpha(self) -> float:
        if not isinstance(self.alpha, float):
            raise ConfigError(f"{self.experiment} requires a scalar alpha")
        return self.alpha

    def kernel(self) -> SingularKernel | ExpKernel:
        """The kernel the run integrates: t^(-theta), or e^(-lambda (T - t))."""
        if self.experiment == "moment_bound_exp":
            return ExpKernel(lam=self.lam, T=self.T)
        return SingularKernel(theta=self.theta, T=self.T)


def _half_alpha(fields: dict) -> float | None:
    alpha = fields.get("alpha")
    return alpha / 2.0 if isinstance(alpha, float) else None


_REQUIRED = object()  # a field the experiment cannot run without
_FIELD = object()  # a field read with its ExperimentConfig or GridConfig default
_SAMPLING = {"n_replicates": _FIELD, "master_seed": _FIELD, "workers": _FIELD}
_GRID = {"kind": _FIELD, "levels": _FIELD, "q": _FIELD, "epsilon": _FIELD}

# Per experiment, every field its run reads besides output_path, with the
# default that fills it when unset (absent or null): _FIELD, _REQUIRED, a
# value, or a callable of the fields parsed so far; "grid" holds the grid
# fields.  A field an entry does not list keeps its field default, so a record
# never echoes a setting its run did not use.
_DEFAULTS = {
    "laplace_check": {"alpha": _FIELD, **_SAMPLING},
    "cdf_check": {"alpha": 0.5, **_SAMPLING},  # recorded, and held at 0.5 by validate_config
    "scaling": {"alpha": _REQUIRED, "p": _half_alpha, "times": (0.25, 1.0, 4.0), **_SAMPLING},
    "moment_bound_theta": {"alpha": _REQUIRED, "theta": _REQUIRED, "p": _half_alpha, "T": _FIELD,
                           "grid": _GRID, **_SAMPLING},
    # The bounded exponential kernel has no singularity to resolve.
    "moment_bound_exp": {"alpha": _REQUIRED, "p": _half_alpha, "lam": 1.0, "T": _FIELD,
                         "grid": {**_GRID, "kind": "uniform"}, **_SAMPLING},
    # The diagnostic halves its grid down to T * 2^-levels: it reads only the depth.
    "blowup": {"alpha": _REQUIRED, "theta": _REQUIRED, "T": _FIELD, "grid": {"levels": 30},
               **_SAMPLING, "n_replicates": 10_000},
    # Runs serially: no workers.
    "ibp_consistency": {"alpha": _REQUIRED, "theta": 0.5, "T": _FIELD, "grid": _GRID,
                        "n_replicates": 1000, "master_seed": _FIELD},
    "kernel_classify": {"alpha": _REQUIRED, "theta": _REQUIRED},
    "verify_all": _SAMPLING,
}
EXPERIMENTS = tuple(_DEFAULTS)


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _optional_number(value, key: str) -> float | None:
    return None if value is None else _number(value, key)


def _numbers(value, key: str):
    if isinstance(value, (list, tuple)):
        return tuple(_number(v, key) for v in value)
    return _optional_number(value, key)


def _times(value, key: str):
    if value is not None and not (isinstance(value, (list, tuple)) and value):
        raise ConfigError(f"{key} must be a nonempty list of horizons")
    return _numbers(value, key)


def _object(value, key: str) -> dict:
    value = value or {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    return value


def _as_is(value, key: str):
    return value


# Config key -> (field name, parser(value, key)), in the order unread keys
# are reported: the grid's, then T, then the rest.
_KEYS = {
    "experiment": ("experiment", _as_is),
    "grid": ("grid", _object),
    "T": ("T", _number),
    "alpha": ("alpha", _numbers),
    "theta": ("theta", _optional_number),
    "p": ("p", _optional_number),
    "lambda": ("lam", _optional_number),
    "times": ("times", _times),
    "n_replicates": ("n_replicates", _integer),
    "master_seed": ("master_seed", _integer),
    "workers": ("workers", _integer),
    "output_path": ("output_path", _as_is),
}
_GRID_KEYS = {
    "kind": ("kind", _as_is),
    "levels": ("levels", _integer),
    "q": ("q", _number),
    "epsilon": ("epsilon", _optional_number),
}


def parse_document(text: str) -> dict:
    """The mapping held by a JSON config document, not yet validated."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    return payload


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config document."""
    return config_from_mapping(parse_document(text))


def config_from_mapping(payload: dict) -> ExperimentConfig:
    """Build a validated config from a plain mapping (CLI flags or JSON)."""
    experiment = payload.get("experiment")
    if experiment is None:
        raise ConfigError("missing required field: experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}")
    defaults = dict(_DEFAULTS[experiment])
    grid_defaults = defaults.pop("grid", {})
    fields = _fields(payload, _KEYS, defaults, "")
    grid = _fields(fields.get("grid", {}), _GRID_KEYS, grid_defaults, "grid.")
    fields["grid"] = GridConfig(**grid)
    config = ExperimentConfig(**fields)
    validate_config(config)
    return config


def _fields(payload: dict, keys: dict, defaults: dict, prefix: str) -> dict:
    """Field values parsed through a key table, unset ones filled from `defaults`."""
    fields = {}
    for key, value in payload.items():
        if key not in keys:
            raise ConfigError(f"unknown key: {prefix}{key!r}")
        name, parse = keys[key]
        fields[name] = parse(value, prefix + key)
    for name, default in defaults.items():
        if fields.get(name) is None and default is not _FIELD:
            if default is _REQUIRED:
                raise ConfigError(f"missing required field: {name}")
            fields[name] = default(fields) if callable(default) else default
    return fields


def validate_config(config: ExperimentConfig) -> None:
    """Raise a ConfigError for a config that cannot run: first the checks a
    config alone can make, then the library's rules, by building what the run
    builds (each ValueError comes back as a ConfigError)."""
    if not config.T > 0.0:
        raise ConfigError("T must be > 0")
    if config.n_replicates < 2:
        raise ConfigError("n_replicates must be >= 2")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")

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
    reads = _DEFAULTS[exp]  # every other field must keep its default
    unread = [(f"grid.{key}", grid, name) for key, (name, _) in _GRID_KEYS.items()
              if name not in reads.get("grid", {})]
    unread += [(key, config, name) for key, (name, _) in _KEYS.items()
               if name not in (*reads, "experiment", "grid", "output_path")]
    for key, owner, name in unread:
        if getattr(owner, name) != getattr(type(owner), name):
            raise ConfigError(f"{key} must keep its default for {exp}, got {getattr(owner, name)!r}")
    if exp not in ("laplace_check", "verify_all"):
        config.scalar_alpha()
    if exp == "cdf_check" and config.alpha != 0.5:
        raise ConfigError("alpha must be 0.5 for cdf_check (the closed-form comparison law)")
    if grid.q != GridConfig().q and (grid.kind == "uniform" or grid.epsilon is not None):
        # Only a geometric grid without an explicit epsilon reads its ratio.
        raise ConfigError(f"grid.q is read only by a geometric grid without grid.epsilon, got {grid.q!r}")
    if "grid" in reads:
        try:
            grid = grid.build(config.T)
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc

    try:  # build what the run builds, or run the argument checks of its experiment
        SeedSpec(config.master_seed)
        if exp == "laplace_check":
            experiments._check_laplace_args(config.alphas(), config.n_replicates)
        elif exp == "scaling":
            experiments._check_scaling_args(config.alpha, config.p, config.times)
        elif exp in ("moment_bound_theta", "moment_bound_exp"):
            experiments._moment_cell(StableParams(config.alpha), config.kernel(), config.p, grid)
        elif exp in ("cdf_check", "verify_all"):  # verify-all runs cdf_check
            experiments._check_cdf_args(config.n_replicates)
        elif exp == "blowup":
            StableParams(config.alpha)
            experiments._check_blowup_args(config.theta, config.n_replicates, config.grid.levels)
        elif exp == "ibp_consistency":
            StableParams(config.alpha)
            config.kernel()
        elif exp == "kernel_classify":
            experiments.classify_power_kernel(config.alpha, config.theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def render_config(config: ExperimentConfig) -> str:
    """Canonical JSON rendering; parse_config(render_config(c)) == c."""
    payload = dataclasses.asdict(config)
    payload["lambda"] = payload.pop("lam")
    return json.dumps(payload, sort_keys=True, indent=2)
