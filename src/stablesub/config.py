"""Experiment configuration: parsing, validation, defaults, rendering.

Configs are flat JSON documents with an optional nested "grid" object.  Each
key is declared once, on its field, and each experiment once, as a row of
_EXPERIMENTS; the CLI is built from both.  The parameter rules (alpha in
(0, 1), 0 < p < alpha, theta < 1/alpha, ...) are the library's own: validation
builds the objects a run builds.  Every error names the offending key so the
CLI can fail actionably.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import experiments
from .experiments import DEFAULT_REPLICATES, KS_MIN_REPLICATES
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

_GRID_KINDS = ("geometric", "uniform")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _numbers(value, key: str):
    if isinstance(value, (list, tuple)):
        return tuple(_number(v, key) for v in value)
    return _number(value, key)


def _times(value, key: str):
    if not (isinstance(value, (list, tuple)) and value):
        raise ConfigError(f"{key} must be a nonempty list of horizons")
    return _numbers(value, key)


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    return value


def _as_is(value, key: str):
    return value


def _key(default=dataclasses.MISSING, *, parse, help="", flag=None, choices=None, key=None, **kwargs):
    """A field that is a config key (named `key` where not the field's name),
    parsed by `parse(value, key)`.  A key with `help` is a setting: the CLI
    gives it the flag `flag`, or else --<key> (a grid key as --grid-<name>)."""
    metadata = {"parse": parse, "help": help, "flag": flag, "choices": choices, "key": key}
    return field(default=default, metadata=metadata, **kwargs)


@dataclass(frozen=True)
class GridConfig:
    """Grid shape: geometric refinement toward 0 by default.

    For geometric grids an explicit epsilon fixes the ratio via
    q = (epsilon/T)^(1/levels); otherwise epsilon = T * q^levels
    (T * 2^-40 with the defaults).
    """

    kind: str = _key("geometric", parse=_as_is, help="Grid kind.", choices=_GRID_KINDS)
    levels: int = _key(DEFAULT_GRID_LEVELS, parse=_integer, help="Number of grid cells.")
    q: float = _key(DEFAULT_GRID_Q, parse=_number, help="Ratio of a geometric grid.")
    epsilon: float | None = _key(None, parse=_number, help="First grid point.")

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
    the experiment exactly.  The fields come in the order their unread
    settings are reported, after the grid's: T, then the rest.
    """

    experiment: str = _key(parse=_as_is)
    T: float = _key(1.0, parse=_number, help="Horizon T: the grid ends there.")
    alpha: float | tuple[float, ...] | None = _key(None, parse=_numbers, help="Stability index.")
    theta: float | None = _key(None, parse=_number, help="Kernel exponent.")
    p: float | None = _key(None, parse=_number, help="Moment order.")
    lam: float | None = _key(None, parse=_number, key="lambda",
                             help="Rate of the kernel e^(-lambda (T - t)).")
    times: tuple[float, ...] | None = _key(None, parse=_times, help="Horizon t of S_t.")
    grid: GridConfig = _key(parse=_object, default_factory=GridConfig)
    n_replicates: int = _key(DEFAULT_REPLICATES, parse=_integer, flag="--replicates", help="Replicate count.")
    master_seed: int = _key(DEFAULT_MASTER_SEED, parse=_integer, flag="--seed", help="Master seed.")
    workers: int = _key(1, parse=_integer, help="Parallel worker processes, at most one per usable CPU.")
    output_path: str | None = _key(None, parse=_as_is)

    def alphas(self) -> tuple[float, ...]:
        """Alpha grid: a scalar becomes a singleton."""
        return self.alpha if isinstance(self.alpha, tuple) else (self.alpha,)

    def kernel(self) -> SingularKernel | ExpKernel:
        """The kernel the run integrates: e^(-lambda (T - t)) if lambda is set, else t^(-theta)."""
        if self.lam is not None:
            return ExpKernel(lam=self.lam, T=self.T)
        return SingularKernel(theta=self.theta, T=self.T)


# Config key -> field; a key of the grid object as "grid.<name>".
_KEYS = {spec.metadata["key"] or spec.name: spec for spec in dataclasses.fields(ExperimentConfig)}
_GRID_KEYS = {"grid." + spec.name: spec for spec in dataclasses.fields(GridConfig)}
# Every setting, in the order unread ones are reported: the grid's, then T, then the rest.
_SETTINGS = {key: spec for key, spec in {**_GRID_KEYS, **_KEYS}.items() if spec.metadata["help"]}


def _half_alpha(fields: dict) -> float | None:
    alpha = fields.get("alpha")
    return alpha / 2.0 if isinstance(alpha, float) else None


def _check_moment(config: ExperimentConfig, grid: TimeGrid) -> None:
    experiments._moment_cell(StableParams(config.alpha), config.kernel(), config.p, grid)


def _check_verify_all(config: ExperimentConfig, grid: GridConfig) -> None:
    """The floor of the KS test that verify-all runs, checked on the caller's
    count here rather than by _check_cdf_args: a refusal of that check inside
    the run is then the library's fault, not the caller's."""
    if config.n_replicates < KS_MIN_REPLICATES:
        raise ValueError(f"n_replicates must be >= {KS_MIN_REPLICATES} for the KS test, got {config.n_replicates}")


class _Experiment(NamedTuple):
    """One experiment: its subcommand and that command's help; every key its
    run reads besides output_path (a grid key as "grid.<name>"), with the
    default that fills it when unset (absent or null): _FIELD, _REQUIRED, a
    value, or a callable of the fields parsed so far; and the check that
    refuses before any draw what the run refuses, given the config and its
    grid (built if the run reads a grid key).  A key the row does not list
    keeps its field default, so a record never echoes a setting its run did
    not use."""

    name: str
    command: str
    summary: str
    reads: dict
    check: Callable[[ExperimentConfig, TimeGrid | GridConfig], object]


_REQUIRED = object()  # a field the experiment cannot run without
_FIELD = object()  # a field read with its ExperimentConfig or GridConfig default
_SAMPLING = {"n_replicates": _FIELD, "master_seed": _FIELD, "workers": _FIELD}
_GRID = {"grid.kind": _FIELD, "grid.levels": _FIELD, "grid.q": _FIELD, "grid.epsilon": _FIELD}

_EXPERIMENTS = {row.name: row for row in (
    _Experiment("laplace_check", "laplace",
                "Laplace-transform fidelity of the sampler over an (alpha, lambda) grid.",
                {"alpha": experiments.LAPLACE_ALPHAS, **_SAMPLING},
                lambda config, grid: experiments._check_laplace_args(config.alphas(), config.n_replicates)),
    # alpha = 1/2 is the law under test, not a setting.
    _Experiment("cdf_check", "cdf",
                "Kolmogorov-Smirnov check of alpha = 1/2 draws against the closed-form CDF.",
                _SAMPLING, lambda config, grid: experiments._check_cdf_args(config.n_replicates)),
    _Experiment("scaling", "scaling",
                "Self-similarity collapse of normalized fractional moments across horizons.",
                {"alpha": _REQUIRED, "p": _half_alpha, "times": experiments.SCALING_TIMES, **_SAMPLING},
                lambda config, grid: experiments._check_scaling_args(config.alpha, config.p, config.times)),
    _Experiment("moment_bound_theta", "bound-theta",
                "Power-kernel moment bound check: MC mean of the bracketed integral^p vs bound.",
                {"alpha": _REQUIRED, "theta": _REQUIRED, "p": _half_alpha, "T": _FIELD, **_GRID, **_SAMPLING},
                _check_moment),
    # The bounded exponential kernel has no singularity to resolve.
    _Experiment("moment_bound_exp", "bound-exp",
                "Exponential-kernel moment bound check (kernel e^(-lambda (T-t))).",
                {"alpha": _REQUIRED, "p": _half_alpha, "lambda": 1.0, "T": _FIELD,
                 **_GRID, "grid.kind": "uniform", **_SAMPLING},
                _check_moment),
    # The diagnostic halves its grid down to T * 2^-levels: it reads only the depth.
    _Experiment("blowup", "blowup", "Blow-up diagnostic: log-log slope of scaled near-origin medians.",
                {"alpha": _REQUIRED, "theta": _REQUIRED, "T": _FIELD, "grid.levels": experiments.BLOWUP_LEVELS,
                 **_SAMPLING, "n_replicates": experiments.BLOWUP_REPLICATES},
                lambda config, grid: experiments._check_blowup_args(
                    StableParams(config.alpha).alpha, (config.theta,), config.n_replicates,
                    config.grid.levels, config.T)),
    # Runs serially: no workers.
    _Experiment("ibp_consistency", "ibp",
                "Dual-route bracket consistency and exact summation-by-parts identity.",
                {"alpha": _REQUIRED, "theta": experiments.IBP_THETA, "T": _FIELD, **_GRID,
                 "n_replicates": experiments.IBP_PATHS, "master_seed": _FIELD},
                lambda config, grid: experiments._check_ibp_grid(StableParams(config.alpha).alpha,
                                                                 config.kernel(), grid)),
    _Experiment("kernel_classify", "classify",
                "Analytic short-time classification of S_t against the power t^c, c = --theta.",
                {"alpha": _REQUIRED, "theta": _REQUIRED},
                lambda config, grid: experiments.classify_power_kernel(config.alpha, config.theta)),
    _Experiment("verify_all", "verify-all",
                "Run the full acceptance grid; nonzero exit if any verdict fails.",
                _SAMPLING, _check_verify_all),
)}
EXPERIMENTS = tuple(_EXPERIMENTS)


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
    defaults = _EXPERIMENTS[experiment].reads
    fields = _fields(payload, _KEYS, defaults, "")
    fields["grid"] = GridConfig(**_fields(fields.get("grid", {}), _GRID_KEYS, defaults, "grid."))
    config = ExperimentConfig(**fields)
    validate_config(config)
    return config


def _fields(payload: dict, keys: dict, defaults: dict, prefix: str) -> dict:
    """Field values of `payload` parsed through `keys` (config key -> field,
    each key prefixed by `prefix`), unset ones (absent or null) filled from
    `defaults` (keyed by config key)."""
    fields = {}
    for key, value in payload.items():
        if prefix + key not in keys:
            raise ConfigError(f"unknown key: {prefix}{key!r}")
        if value is not None:
            spec = keys[prefix + key]
            fields[spec.name] = spec.metadata["parse"](value, prefix + key)
    for key, spec in keys.items():
        default = defaults.get(key, _FIELD)
        if spec.name not in fields and default is not _FIELD:
            if default is _REQUIRED:
                raise ConfigError(f"missing required field: {key}")
            fields[spec.name] = default(fields) if callable(default) else default
    return fields


def default_replicates(experiment: str) -> int:
    """The replicate count a run of `experiment` takes when none is set."""
    default = _EXPERIMENTS[experiment].reads.get("n_replicates", _FIELD)
    return ExperimentConfig.n_replicates if default is _FIELD else default


def validate_config(config: ExperimentConfig) -> None:
    """Raise a ConfigError for a config that cannot run: first the checks a
    config alone can make, then the library's rules, by building what the run
    builds (each ValueError comes back as a ConfigError)."""
    if not 0.0 < config.T < math.inf:
        raise ConfigError(f"T must be > 0 and finite, got {config.T}")
    if config.n_replicates < 2:
        raise ConfigError("n_replicates must be >= 2")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")

    grid = config.grid
    if grid.kind not in _GRID_KINDS:
        raise ConfigError(f"grid.kind must be {' or '.join(map(repr, _GRID_KINDS))}, got {grid.kind!r}")
    if grid.levels < 1:
        raise ConfigError("grid.levels must be >= 1")
    if not 0.0 < grid.q < 1.0:
        raise ConfigError("grid.q must lie in (0, 1)")
    if grid.epsilon is not None and not 0.0 < grid.epsilon < config.T:
        raise ConfigError("grid.epsilon must lie in (0, T)")

    row = _EXPERIMENTS[config.experiment]
    for key, spec in _SETTINGS.items():  # a setting the run does not read keeps its default
        value = getattr(grid if key in _GRID_KEYS else config, spec.name)
        if key not in row.reads and value != spec.default:
            raise ConfigError(f"{key} must keep its default for {row.name}, got {value!r}")
    if isinstance(config.alpha, tuple) and not isinstance(row.reads["alpha"], tuple):  # a grid of alphas
        raise ConfigError(f"{row.name} requires a scalar alpha")
    if grid.q != GridConfig().q and (grid.kind == "uniform" or grid.epsilon is not None):
        # Only a geometric grid without an explicit epsilon reads its ratio.
        raise ConfigError(f"grid.q is read only by a geometric grid without grid.epsilon, got {grid.q!r}")
    if any(key in _GRID_KEYS for key in row.reads):
        try:
            grid = grid.build(config.T)
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc

    try:  # build what the run builds, or run the argument checks of its experiment
        SeedSpec(config.master_seed)
        row.check(config, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def render_config(config: ExperimentConfig) -> str:
    """Canonical JSON rendering; parse_config(render_config(c)) == c."""
    fields = dataclasses.asdict(config)
    return json.dumps({key: fields[spec.name] for key, spec in _KEYS.items()}, sort_keys=True, indent=2)
